/**
 * @file
 * Tests for configuration validation and the §2.1 / §2 fidelity
 * knobs (ALU pipeline depth, BIU collision modelling).
 */

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "core/simulator.hh"
#include "mem/biu.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using util::SimError;
using util::SimErrorCode;

TEST(Validate, NamedModelsAreValid)
{
    for (const auto &m : studyModels())
        m.validate(); // must not throw
    recommendedModel().validate();
}

/** Expect validate() to throw BadConfig mentioning @p substr. */
void
expectInvalid(const MachineConfig &m, const std::string &substr)
{
    try {
        m.validate();
        FAIL() << "validate() should have thrown (" << substr << ")";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
        EXPECT_NE(std::string(e.what()).find(substr),
                  std::string::npos)
            << e.what();
    }
}

TEST(ValidateErrors, MismatchedLineSizesThrow)
{
    auto m = baselineModel();
    m.lsu.line_bytes = 64;
    expectInvalid(m, "line sizes disagree");
}

TEST(ValidateErrors, FetchIssueWidthMismatchThrows)
{
    auto m = baselineModel();
    m.ifu.fetch_width = 1; // issue width still 2
    expectInvalid(m, "fetch width");
}

TEST(ValidateErrors, RetireNarrowerThanIssueThrows)
{
    auto m = baselineModel();
    m.retire_width = 1;
    expectInvalid(m, "retire width");
}

TEST(ValidateErrors, ZeroMshrsThrow)
{
    auto m = baselineModel();
    m.lsu.mshr_entries = 0;
    expectInvalid(m, "MSHR");
}

TEST(ValidateErrors, BadSafeFracThrows)
{
    auto m = baselineModel();
    m.fpu.provably_safe_frac = 1.5;
    expectInvalid(m, "fp_safe_frac");
}

TEST(ValidateErrors, ZeroFpQueuesThrow)
{
    // A zero-capacity decoupling queue would abort BoundedQueue
    // construction deep inside the Processor; validation must reject
    // it first as a recoverable user error.
    auto m = baselineModel();
    m.fpu.inst_queue = 0;
    expectInvalid(m, "FPU decoupling queues");
    m = baselineModel();
    m.fpu.load_queue = 0;
    expectInvalid(m, "FPU decoupling queues");
    m = baselineModel();
    m.fpu.store_queue = 0;
    expectInvalid(m, "FPU decoupling queues");
    m = baselineModel();
    m.fpu.rob_entries = 0;
    expectInvalid(m, "FPU reorder buffer");
}

TEST(ValidateErrors, OverlongFpLatencyThrows)
{
    // Latencies past the result-bus scheduling window used to panic
    // at the first issue; now they are rejected up front.
    auto m = baselineModel();
    m.fpu.div.latency = 1000;
    expectInvalid(m, "div latency");
    m = baselineModel();
    m.fpu.add.latency = 0;
    expectInvalid(m, "add latency");
}

TEST(ValidateErrors, InvalidConfigNeverReachesSimulation)
{
    // The Processor constructor validates, so a bad machine fails as
    // a structured error before any component is built.
    auto m = baselineModel();
    m.rob_entries = 0;
    EXPECT_THROW(simulate(m, trace::espresso(), 1000), SimError);
}

TEST(ValidateErrors, UnusableWriteCacheThrows)
{
    auto m = baselineModel();
    m.write_cache.lines = 0;
    expectInvalid(m, "write cache needs at least one line");
    for (const std::uint32_t page : {0u, 3000u}) {
        m = baselineModel();
        m.write_cache.page_bytes = page;
        expectInvalid(m, "page size");
    }
}

TEST(ValidateErrors, UnusableWriteCacheNeverReachesSimulation)
{
    // wc_lines=0 used to abort in the WriteCache constructor and
    // wc_page=0 to divide by zero at the first store's page match;
    // both must fail as a structured error instead.
    for (const char *spec :
         {"model=baseline wc_lines=0", "model=baseline wc_page=0"}) {
        SCOPED_TRACE(spec);
        EXPECT_THROW(simulate(parseMachineSpec(spec), trace::espresso(),
                              1000),
                     SimError);
    }
}

TEST(ValidateErrors, BusStarvedFpuPassesValidation)
{
    // fp_buses=0 is structurally representable (the liveness wedge
    // the forward-progress watchdog exists for); validation must not
    // reject it.
    auto m = baselineModel();
    m.fpu.result_buses = 0;
    m.validate();
}

TEST(AluLatency, DeeperPipelineCostsCpi)
{
    const double fwd =
        simulate(baselineModel(), trace::espresso(), 60000).cpi();
    auto deep = baselineModel();
    deep.alu_latency = 2;
    const double no_fwd =
        simulate(deep, trace::espresso(), 60000).cpi();
    EXPECT_GT(no_fwd, fwd * 1.03)
        << "losing forwarding must insert dependency bubbles";
}

TEST(AluLatency, ParsesAndDescribes)
{
    const auto m = parseMachineSpec("alu_lat=3");
    EXPECT_EQ(m.alu_latency, 3u);
    EXPECT_NE(describe(m).find("alu_lat=3"), std::string::npos);
}

TEST(BiuCollisions, OverlappingReplyCollides)
{
    mem::BiuConfig cfg;
    cfg.latency = 10;
    cfg.line_occupancy = 4;
    cfg.model_collisions = true;
    cfg.collision_penalty = 2;
    mem::Biu biu(cfg);
    // Read issued at 0 replies at 14..; a transmit started at 12
    // overlaps the landing reply and must retry.
    const Cycle reply = biu.requestLine(0, false);
    EXPECT_EQ(reply, 14u);
    biu.postWrite(12);
    EXPECT_EQ(biu.collisions(), 1u);
}

TEST(BiuCollisions, DisjointTrafficDoesNotCollide)
{
    mem::BiuConfig cfg;
    cfg.model_collisions = true;
    mem::Biu biu(cfg);
    biu.requestLine(0, false); // reply at 21
    biu.postWrite(100);
    EXPECT_EQ(biu.collisions(), 0u);
}

TEST(BiuCollisions, OffByDefaultAndCalibrationUnchanged)
{
    mem::Biu biu(mem::BiuConfig{});
    biu.requestLine(0, false);
    biu.postWrite(18);
    EXPECT_EQ(biu.collisions(), 0u);
}

TEST(BiuCollisions, EndToEndPenaltyIsSmallButReal)
{
    const double base =
        simulate(baselineModel(), trace::gcc(), 60000).cpi();
    auto m = baselineModel();
    m.biu.model_collisions = true;
    const double with = simulate(m, trace::gcc(), 60000).cpi();
    EXPECT_GE(with, base) << "collisions can only slow things down";
    EXPECT_LT(with, base * 1.10) << "but only mildly";
}

} // namespace
