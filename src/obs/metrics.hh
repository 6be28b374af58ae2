/**
 * @file
 * Metrics exposition: Prometheus text + JSON renderings of a
 * telemetry Registry.
 *
 * The registry holds the service's monotonic metrics (admission
 * verdicts, streamed results, latency histograms) and its gauges,
 * which the owner sets at exposition time (queue depth, per-tenant
 * inflight, sessions). Both renderings are deterministic in the
 * registry's registration order, so two scrapes of an idle server
 * are byte-identical — which is what lets aurora_top render a stable
 * fleet view and lets tests diff scrapes directly.
 *
 * Metric names keep their dotted registry form in JSON and are
 * mangled to `aurora_<dots-to-underscores>` for Prometheus.
 * Histograms render as Prometheus summaries (p50/p90/p99 quantiles +
 * _sum/_count) — with unit-width millisecond buckets, the full
 * bucket vector would be hundreds of lines per scrape.
 */

#ifndef AURORA_OBS_METRICS_HH
#define AURORA_OBS_METRICS_HH

#include <string>
#include <string_view>

namespace aurora::telemetry
{
class Registry;
}

namespace aurora::obs
{

/** Prometheus metric name: "serve.queue_depth" → "aurora_serve_queue_depth". */
std::string prometheusName(std::string_view name);

/** Prometheus text-format exposition (text/plain; version=0.0.4). */
std::string renderPrometheus(const telemetry::Registry &registry);

/** `aurora.metrics.v1` JSON exposition. */
std::string renderMetricsJson(const telemetry::Registry &registry);

} // namespace aurora::obs

#endif // AURORA_OBS_METRICS_HH
