/**
 * @file
 * Metrics-exposition tests: Prometheus name mangling, deterministic
 * byte-identical renders, histogram summaries, labeled gauges, and
 * the JSON exposition's schema tag.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hh"
#include "telemetry/registry.hh"

namespace
{

using namespace aurora;

TEST(PrometheusName, ManglesDotsAndKeepsWordChars)
{
    EXPECT_EQ(obs::prometheusName("serve.queued_jobs"),
              "aurora_serve_queued_jobs");
    EXPECT_EQ(obs::prometheusName("serve.admission.AUR201"),
              "aurora_serve_admission_AUR201");
    EXPECT_EQ(obs::prometheusName("weird-name with spaces"),
              "aurora_weird_name_with_spaces");
}

telemetry::Registry
sampleRegistry()
{
    telemetry::Registry registry;
    registry.counter("serve.submits", "grids submitted").add(3);
    registry.counter("fleet.respawns", "shard respawns").add();
    auto &h = registry.histogram("serve.submit_to_grid_done_ms",
                                 "submit to GridDone latency", 64);
    h.add(5);
    h.add(10);
    h.add(10);
    return registry;
}

TEST(RenderPrometheus, EmitsCountersHistogramsAndGauges)
{
    auto registry = sampleRegistry();
    registry.gauge("serve.queued_jobs", "jobs waiting").set(7);
    registry
        .gauge("serve.tenant_inflight", "inflight jobs per tenant",
               "tenant")
        .set({{"alice", 2}, {"bo\"b", 1}});

    const std::string text = obs::renderPrometheus(registry);
    EXPECT_NE(text.find("# TYPE aurora_serve_submits counter"),
              std::string::npos);
    EXPECT_NE(text.find("aurora_serve_submits 3"), std::string::npos);
    EXPECT_NE(text.find("aurora_fleet_respawns 1"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE aurora_serve_submit_to_grid_done_ms "
                        "summary"),
              std::string::npos);
    EXPECT_NE(text.find("aurora_serve_submit_to_grid_done_ms_count 3"),
              std::string::npos);
    EXPECT_NE(text.find("aurora_serve_submit_to_grid_done_ms_sum 25"),
              std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
    EXPECT_NE(text.find("aurora_serve_queued_jobs 7"),
              std::string::npos);
    EXPECT_NE(
        text.find("aurora_serve_tenant_inflight{tenant=\"alice\"} 2"),
        std::string::npos);
    // Label escaping: the quote inside the tenant name is escaped.
    EXPECT_NE(
        text.find("aurora_serve_tenant_inflight{tenant=\"bo\\\"b\"} 1"),
        std::string::npos);
}

TEST(RenderPrometheus, GaugeSetReplacesEverySample)
{
    telemetry::Registry registry;
    auto &inflight = registry.gauge("serve.tenant_inflight",
                                    "inflight jobs per tenant", "tenant");
    inflight.set({{"alice", 2}, {"bob", 1}});
    EXPECT_NE(obs::renderPrometheus(registry).find("tenant=\"bob\""),
              std::string::npos);
    // A departed tenant's series disappears from the next scrape.
    inflight.set({{"alice", 1}});
    const std::string text = obs::renderPrometheus(registry);
    EXPECT_EQ(text.find("tenant=\"bob\""), std::string::npos) << text;
    EXPECT_NE(
        text.find("aurora_serve_tenant_inflight{tenant=\"alice\"} 1"),
        std::string::npos)
        << text;
    EXPECT_EQ(&registry.gauge("serve.tenant_inflight", "", "tenant"),
              &inflight);
}

TEST(RenderPrometheus, TwoScrapesOfIdleStateAreByteIdentical)
{
    auto registry = sampleRegistry();
    registry.gauge("serve.sessions", "connected sessions").set(0);
    EXPECT_EQ(obs::renderPrometheus(registry),
              obs::renderPrometheus(registry));
    EXPECT_EQ(obs::renderMetricsJson(registry),
              obs::renderMetricsJson(registry));
}

TEST(RenderMetricsJson, CarriesSchemaTagAndValues)
{
    auto registry = sampleRegistry();
    registry.gauge("serve.queued_jobs", "queue").set(4);
    const std::string json = obs::renderMetricsJson(registry);
    EXPECT_NE(json.find("\"aurora.metrics.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"serve.submits\""), std::string::npos);
    EXPECT_NE(json.find("\"serve.queued_jobs\""), std::string::npos);
    // Dotted names survive in JSON (only Prometheus mangles).
    EXPECT_EQ(json.find("aurora_serve_submits"), std::string::npos);
}

} // namespace
