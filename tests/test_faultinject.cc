/**
 * @file
 * Tests for the deterministic fault injectors: every manufactured
 * fault must actually trip its detector (validate(), the watchdog,
 * the trace reader), and the injectors themselves must be pure
 * functions of their seeds.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "analyze/lint_config.hh"
#include "analyze/verify_trace.hh"
#include "core/simulator.hh"
#include "core/watchdog.hh"
#include "faultinject/faultinject.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_io.hh"
#include "util/sim_error.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
namespace fi = aurora::faultinject;
using util::SimError;
using util::SimErrorCode;

TEST(FaultInject, PoisonedIsDeterministicAndScales)
{
    std::size_t hits = 0;
    for (std::size_t i = 0; i < 3000; ++i) {
        const bool p = fi::poisoned(42, i, 0.33);
        EXPECT_EQ(p, fi::poisoned(42, i, 0.33)) << i;
        hits += p;
    }
    // ~990 expected; a loose window suffices to catch a broken mix.
    EXPECT_GT(hits, 700u);
    EXPECT_LT(hits, 1300u);

    // fraction 0 and 1 are exact.
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_FALSE(fi::poisoned(7, i, 0.0));
        EXPECT_TRUE(fi::poisoned(7, i, 1.0));
    }

    // Different seeds pick different victims.
    bool any_difference = false;
    for (std::size_t i = 0; i < 256; ++i)
        any_difference |=
            fi::poisoned(1, i, 0.5) != fi::poisoned(2, i, 0.5);
    EXPECT_TRUE(any_difference);
}

TEST(FaultInject, EveryConfigFaultFailsValidation)
{
    for (std::size_t k = 0; k < fi::NUM_CONFIG_FAULTS; ++k) {
        const auto fault = static_cast<fi::ConfigFault>(k);
        const auto bad = fi::poisonConfig(baselineModel(), fault);
        SCOPED_TRACE(fi::configFaultName(fault));
        EXPECT_NE(bad.name.find(fi::configFaultName(fault)),
                  std::string::npos)
            << "the poisoned name must identify the fault";
        try {
            bad.validate();
            FAIL() << "poisoned config passed validation";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
        }
    }
}

TEST(FaultInject, AnyConfigFaultCoversTheEnum)
{
    bool seen[fi::NUM_CONFIG_FAULTS] = {};
    for (std::uint64_t s = 0; s < 256; ++s)
        seen[static_cast<std::size_t>(fi::anyConfigFault(s))] = true;
    for (std::size_t k = 0; k < fi::NUM_CONFIG_FAULTS; ++k)
        EXPECT_TRUE(seen[k]) << fi::configFaultName(
            static_cast<fi::ConfigFault>(k));
    // And the choice is a pure function of the seed.
    EXPECT_EQ(fi::anyConfigFault(99), fi::anyConfigFault(99));
}

TEST(FaultInject, WedgeValidatesButTripsTheWatchdog)
{
    const auto wedged = fi::wedgeConfig(baselineModel());
    wedged.validate(); // structurally legal...
    try {
        // ...but an FP workload never retires past the queue fill.
        simulate(wedged, trace::nasa7(), 50'000,
                 WatchdogConfig{2000, 0});
        FAIL() << "wedge must trip the watchdog";
    } catch (const WatchdogError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::NoForwardProgress);
    }
}

TEST(FaultInject, EveryTraceFaultIsCaught)
{
    namespace fs = std::filesystem;
    trace::SyntheticWorkload w(trace::espresso());
    const auto insts = trace::collect(w, 64);
    const std::string pristine = test::tempPath("fi_pristine.aur3");
    trace::writeTrace(pristine, insts);

    for (std::size_t k = 0; k < fi::NUM_TRACE_FAULTS; ++k) {
        const auto fault = static_cast<fi::TraceFault>(k);
        SCOPED_TRACE(fi::traceFaultName(fault));
        const std::string victim = test::tempPath("fi_victim.aur3");
        fs::copy_file(pristine, victim,
                      fs::copy_options::overwrite_existing);
        fi::corruptTraceFile(victim, fault, /*seed=*/k);
        try {
            trace::readTrace(victim);
            FAIL() << "corruption went undetected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), SimErrorCode::BadTrace);
        }
        std::remove(victim.c_str());
    }
    std::remove(pristine.c_str());
}

TEST(FaultInject, EveryConfigFaultHasAStableStaticDiagnostic)
{
    // Cross-check against the static analyzer: each injected defect
    // must surface as its catalog ID, so the sweep preflight and the
    // fault-storm bench can assert on *which* fault was planted.
    const struct
    {
        fi::ConfigFault fault;
        const char *id;
    } expected[] = {
        {fi::ConfigFault::ZeroRob, "AUR001"},
        {fi::ConfigFault::ZeroMshr, "AUR002"},
        {fi::ConfigFault::MismatchedLineSize, "AUR003"},
        {fi::ConfigFault::FetchWidthMismatch, "AUR004"},
        {fi::ConfigFault::ZeroFpInstQueue, "AUR005"},
        {fi::ConfigFault::BadSafeFrac, "AUR006"},
        {fi::ConfigFault::OverlongFpLatency, "AUR007"},
    };
    static_assert(std::size(expected) == fi::NUM_CONFIG_FAULTS);
    for (const auto &c : expected) {
        SCOPED_TRACE(fi::configFaultName(c.fault));
        const auto bad = fi::poisonConfig(baselineModel(), c.fault);
        const auto findings = analyze::lintConfig(bad);
        bool found = false;
        for (const auto &d : findings)
            found |= d.id == c.id;
        EXPECT_TRUE(found) << "expected " << c.id;
        EXPECT_TRUE(analyze::hasErrors(findings));
    }
}

TEST(FaultInject, WedgeIsCaughtStaticallyAsAur010)
{
    // The wedge passes validate() and at runtime burns the watchdog
    // window; the deadlock detector rejects it in microseconds.
    const auto wedged = fi::wedgeConfig(baselineModel());
    const auto findings = analyze::lintConfig(wedged);
    bool found = false;
    for (const auto &d : findings)
        found |= d.id == "AUR010";
    EXPECT_TRUE(found);
}

TEST(FaultInject, EveryTraceFaultHasAStableVerifierDiagnostic)
{
    namespace fs = std::filesystem;
    const struct
    {
        fi::TraceFault fault;
        const char *id;
    } expected[] = {
        {fi::TraceFault::Magic, "AUR101"},
        {fi::TraceFault::Version, "AUR102"},
        {fi::TraceFault::OpClass, "AUR103"},
        {fi::TraceFault::Truncate, "AUR104"},
    };
    static_assert(std::size(expected) == fi::NUM_TRACE_FAULTS);

    trace::SyntheticWorkload w(trace::espresso());
    const auto insts = trace::collect(w, 64);
    const std::string pristine = test::tempPath("fi_lint_pristine.aur3");
    trace::writeTrace(pristine, insts);

    for (const auto &c : expected) {
        SCOPED_TRACE(fi::traceFaultName(c.fault));
        const std::string victim = test::tempPath("fi_lint_victim.aur3");
        fs::copy_file(pristine, victim,
                      fs::copy_options::overwrite_existing);
        fi::corruptTraceFile(victim, c.fault, /*seed=*/3);
        const auto report = analyze::verifyTrace(victim);
        EXPECT_FALSE(report.ok());
        bool found = false;
        for (const auto &d : report.diagnostics)
            found |= d.id == c.id;
        EXPECT_TRUE(found) << "expected " << c.id;
        std::remove(victim.c_str());
    }
    std::remove(pristine.c_str());
}

TEST(FaultInject, OpClassCorruptionPicksVictimBySeed)
{
    namespace fs = std::filesystem;
    trace::SyntheticWorkload w(trace::espresso());
    const auto insts = trace::collect(w, 64);
    const std::string a = test::tempPath("fi_seed_a.aur3");
    const std::string b = test::tempPath("fi_seed_b.aur3");
    trace::writeTrace(a, insts);
    fs::copy_file(a, b, fs::copy_options::overwrite_existing);

    fi::corruptTraceFile(a, fi::TraceFault::OpClass, 1);
    fi::corruptTraceFile(b, fi::TraceFault::OpClass, 1);
    // Same seed, same victim byte: the corrupted files are identical.
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardFaults, NamesAndDiagnosticIdsAreStable)
{
    // These strings are wire/env/catalog contracts: drills script
    // them ("--fault 0:kill-shard:1") and `aurora_lint explain`
    // documents them. Renaming is a protocol change, not a refactor.
    using SF = fi::ShardFault;
    EXPECT_STREQ(fi::shardFaultName(SF::KillShard), "kill-shard");
    EXPECT_STREQ(fi::shardFaultName(SF::HangShard), "hang-shard");
    EXPECT_STREQ(fi::shardFaultName(SF::DropHeartbeats),
                 "drop-heartbeats");
    EXPECT_STREQ(fi::shardFaultName(SF::ZombieAppend),
                 "zombie-append");
    EXPECT_STREQ(fi::shardFaultDiagnosticId(SF::HangShard), "AUR301");
    EXPECT_STREQ(fi::shardFaultDiagnosticId(SF::KillShard), "AUR302");
    EXPECT_STREQ(fi::shardFaultDiagnosticId(SF::DropHeartbeats),
                 "AUR303");
    EXPECT_STREQ(fi::shardFaultDiagnosticId(SF::ZombieAppend),
                 "AUR304");
}

TEST(ShardFaults, PlanFormatParsesBackExactly)
{
    for (std::size_t i = 0; i < fi::NUM_SHARD_FAULTS; ++i) {
        const auto fault = static_cast<fi::ShardFault>(i);
        const fi::ShardFaultPlan plan{fault,
                                      static_cast<std::uint32_t>(3 * i)};
        const auto back =
            fi::parseShardFaultPlan(fi::formatShardFaultPlan(plan));
        ASSERT_TRUE(back.has_value())
            << fi::formatShardFaultPlan(plan);
        EXPECT_EQ(back->fault, plan.fault);
        EXPECT_EQ(back->after_jobs, plan.after_jobs);
    }
}

TEST(ShardFaults, MalformedPlansAreRejectedNotMisread)
{
    // A drill must never silently run the wrong sabotage.
    for (const char *bad :
         {"", "kill-shard", "kill-shard:", "kill-shard:x",
          "kill-shard:1:2", "unknown-fault:1", "KILL-SHARD:1",
          ":1", "kill-shard:-1"})
        EXPECT_FALSE(fi::parseShardFaultPlan(bad).has_value()) << bad;
}

TEST(ShardFaults, AnyShardFaultIsSeedDeterministicAndCoversAll)
{
    bool seen[fi::NUM_SHARD_FAULTS] = {};
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const fi::ShardFault a = fi::anyShardFault(seed);
        EXPECT_EQ(a, fi::anyShardFault(seed));
        seen[static_cast<std::size_t>(a)] = true;
    }
    for (std::size_t i = 0; i < fi::NUM_SHARD_FAULTS; ++i)
        EXPECT_TRUE(seen[i])
            << fi::shardFaultName(static_cast<fi::ShardFault>(i));
}

} // namespace
