/**
 * @file
 * Static machine-model linter tests: every shipped model is clean,
 * every catalog AUR0xx check fires on the configuration it exists
 * for, the RBE budget check prices overshoot actionably, and the
 * linter never throws on garbage input.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/lint_config.hh"
#include "core/machine_config.hh"
#include "cost/rbe.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using analyze::Diagnostic;
using analyze::lintConfig;
using analyze::LintOptions;
using analyze::Severity;

bool
has(const std::vector<Diagnostic> &findings, const std::string &id)
{
    for (const Diagnostic &d : findings)
        if (d.id == id)
            return true;
    return false;
}

std::string
idList(const std::vector<Diagnostic> &findings)
{
    std::string out;
    for (const Diagnostic &d : findings)
        out += d.id + " ";
    return out;
}

TEST(LintConfig, ShippedModelsAreClean)
{
    for (const MachineConfig &m :
         {smallModel(), baselineModel(), largeModel(),
          recommendedModel()}) {
        SCOPED_TRACE(m.name);
        const auto findings = lintConfig(m);
        EXPECT_TRUE(findings.empty())
            << m.name << ": " << idList(findings);
    }
}

TEST(LintConfig, CleanImpliesValidateAccepts)
{
    // The contract in lint_config.hh: a clean lint means validate()
    // would also accept the machine.
    for (const MachineConfig &m : studyModels())
        if (lintConfig(m).empty()) {
            EXPECT_NO_THROW(m.validate()) << m.name;
        }
}

TEST(LintConfig, EveryValidateRejectionHasACatalogId)
{
    // One mutation per validate() check: each must surface as an
    // error-severity diagnostic, so a sweep preflight rejects exactly
    // what the Processor constructor would.
    struct Case
    {
        const char *id;
        void (*mutate)(MachineConfig &);
    };
    const Case cases[] = {
        {"AUR008", [](MachineConfig &m) { m.issue_width = 3; }},
        {"AUR004", [](MachineConfig &m) { m.ifu.fetch_width = 1; }},
        {"AUR009", [](MachineConfig &m) { m.retire_width = 1; }},
        {"AUR003", [](MachineConfig &m) { m.lsu.line_bytes = 64; }},
        {"AUR003", [](MachineConfig &m) { m.prefetch.line_bytes = 16; }},
        {"AUR001", [](MachineConfig &m) { m.rob_entries = 0; }},
        {"AUR020", [](MachineConfig &m) { m.alu_latency = 0; }},
        {"AUR002", [](MachineConfig &m) { m.lsu.mshr_entries = 0; }},
        {"AUR011", [](MachineConfig &m) { m.prefetch.num_buffers = 0; }},
        {"AUR019", [](MachineConfig &m) { m.write_cache.lines = 0; }},
        {"AUR019", [](MachineConfig &m) { m.write_cache.page_bytes = 0; }},
        {"AUR019",
         [](MachineConfig &m) { m.write_cache.page_bytes = 3000; }},
        {"AUR005", [](MachineConfig &m) { m.fpu.inst_queue = 0; }},
        {"AUR005", [](MachineConfig &m) { m.fpu.load_queue = 0; }},
        {"AUR005", [](MachineConfig &m) { m.fpu.store_queue = 0; }},
        {"AUR001", [](MachineConfig &m) { m.fpu.rob_entries = 0; }},
        {"AUR007", [](MachineConfig &m) { m.fpu.div.latency = 300; }},
        {"AUR007", [](MachineConfig &m) { m.fpu.add.latency = 0; }},
        {"AUR006",
         [](MachineConfig &m) { m.fpu.provably_safe_frac = 1.5; }},
        {"AUR006",
         [](MachineConfig &m) { m.fpu.provably_safe_frac = -0.1; }},
    };
    for (const Case &c : cases) {
        MachineConfig m = baselineModel();
        c.mutate(m);
        const auto findings = lintConfig(m);
        SCOPED_TRACE(c.id);
        EXPECT_TRUE(has(findings, c.id)) << idList(findings);
        EXPECT_TRUE(analyze::hasErrors(findings));
    }
}

TEST(LintConfig, DiagnosticsCarryFieldValueAndHint)
{
    MachineConfig m = baselineModel();
    m.rob_entries = 0;
    const auto findings = lintConfig(m);
    ASSERT_TRUE(has(findings, "AUR001"));
    for (const Diagnostic &d : findings)
        if (d.id == "AUR001") {
            EXPECT_EQ(d.field, "rob");
            EXPECT_EQ(d.value, "0");
            EXPECT_FALSE(d.message.empty());
            EXPECT_FALSE(d.hint.empty());
            EXPECT_EQ(d.severity, Severity::Error);
            EXPECT_NE(d.toString().find("AUR001"), std::string::npos);
        }
}

TEST(LintConfig, SizingWarningsFireAndDoNotReject)
{
    struct Case
    {
        const char *id;
        void (*mutate)(MachineConfig &);
    };
    const Case cases[] = {
        // fp_rob below the deepest pipelined FP latency (mul: 5).
        {"AUR012", [](MachineConfig &m) { m.fpu.rob_entries = 3; }},
        {"AUR013", [](MachineConfig &m) { m.fpu.inst_queue = 2; }},
        {"AUR014", [](MachineConfig &m) { m.fpu.load_queue = 1; }},
        {"AUR015", [](MachineConfig &m) { m.write_cache.lines = 1; }},
        {"AUR016", [](MachineConfig &m) { m.biu.queue_depth = 1; }},
        {"AUR017", [](MachineConfig &m) { m.prefetch.depth = 8; }},
        {"AUR018",
         [](MachineConfig &m) {
             m.rob_entries = 1;
             m.retire_width = 2;
             m.lsu.dcache_latency = 3;
         }},
        {"AUR022", [](MachineConfig &m) { m.lsu.victim_lines = 4; }},
        {"AUR023",
         [](MachineConfig &m) {
             m.biu.model_collisions = true;
             m.biu.collision_penalty = 0;
         }},
        {"AUR024",
         [](MachineConfig &m) {
             m.fpu.precise_exceptions = true;
             m.fpu.provably_safe_frac = 0.0;
         }},
    };
    for (const Case &c : cases) {
        MachineConfig m = baselineModel();
        c.mutate(m);
        const auto findings = lintConfig(m);
        SCOPED_TRACE(c.id);
        EXPECT_TRUE(has(findings, c.id)) << idList(findings);
        for (const Diagnostic &d : findings)
            if (d.id == c.id) {
                EXPECT_EQ(d.severity, Severity::Warning);
            }
    }
}

TEST(LintConfig, IterativeDivideDoesNotTriggerDepthWarnings)
{
    // AUR012/AUR013 bound against the deepest *pipelined* unit: the
    // 19-cycle iterative divider holds one op, not nineteen, so the
    // shipped fp_rob=6 must stay clean (it already does via
    // ShippedModelsAreClean; this pins the reason).
    MachineConfig m = baselineModel();
    m.fpu.div.latency = 30; // still iterative
    const auto findings = lintConfig(m);
    EXPECT_FALSE(has(findings, "AUR012")) << idList(findings);
    EXPECT_FALSE(has(findings, "AUR013")) << idList(findings);
}

TEST(LintConfig, BudgetOvershootIsAnErrorWithBreakdown)
{
    const MachineConfig m = largeModel();
    LintOptions options;
    options.rbe_budget = 50000.0;
    const auto findings = lintConfig(m, options);
    ASSERT_TRUE(has(findings, "AUR030")) << idList(findings);
    for (const Diagnostic &d : findings)
        if (d.id == "AUR030") {
            EXPECT_EQ(d.severity, Severity::Error);
            // The per-structure breakdown makes the overshoot
            // actionable.
            EXPECT_NE(d.message.find("icache"), std::string::npos)
                << d.message;
            EXPECT_NE(d.message.find("fpu"), std::string::npos)
                << d.message;
        }
}

TEST(LintConfig, NearBudgetIsAWarningAndSlackIsClean)
{
    const MachineConfig m = baselineModel();
    const double total =
        cost::ipuRbe(m.ipuResources()) + cost::fpuRbe(m.fpu);

    LintOptions tight;
    tight.rbe_budget = total * 1.02; // within the 5% band
    const auto near = lintConfig(m, tight);
    EXPECT_TRUE(has(near, "AUR031")) << idList(near);
    EXPECT_FALSE(analyze::hasErrors(near));

    LintOptions roomy;
    roomy.rbe_budget = total * 2.0;
    EXPECT_TRUE(lintConfig(m, roomy).empty());

    // budget 0 disables the check entirely.
    EXPECT_TRUE(lintConfig(m, LintOptions{}).empty());
}

TEST(LintConfig, CollectsEveryFindingInsteadOfStoppingAtTheFirst)
{
    MachineConfig m = baselineModel();
    m.rob_entries = 0;
    m.lsu.mshr_entries = 0;
    m.fpu.inst_queue = 0;
    const auto findings = lintConfig(m);
    EXPECT_TRUE(has(findings, "AUR001")) << idList(findings);
    EXPECT_TRUE(has(findings, "AUR002")) << idList(findings);
    EXPECT_TRUE(has(findings, "AUR005")) << idList(findings);
    EXPECT_GE(analyze::errorCount(findings), 3u);
}

TEST(LintConfig, NeverThrowsOnDegenerateInput)
{
    // A linter that dies on its input is useless: an all-zero
    // machine must come back as a (large) list of findings.
    MachineConfig m;
    m.issue_width = 0;
    m.rob_entries = 0;
    m.retire_width = 0;
    m.alu_latency = 0;
    m.ifu.fetch_width = 0;
    m.ifu.buffer_entries = 0;
    m.lsu.mshr_entries = 0;
    m.write_cache.lines = 0;
    m.prefetch.num_buffers = 0;
    m.prefetch.depth = 0;
    m.biu.queue_depth = 0;
    m.fpu.inst_queue = 0;
    m.fpu.load_queue = 0;
    m.fpu.store_queue = 0;
    m.fpu.rob_entries = 0;
    m.fpu.result_buses = 0;
    m.fpu.add.latency = 0;
    m.fpu.provably_safe_frac = -1.0;
    std::vector<Diagnostic> findings;
    EXPECT_NO_THROW(findings = lintConfig(m));
    EXPECT_TRUE(analyze::hasErrors(findings));
    EXPECT_GE(findings.size(), 10u) << idList(findings);
}

TEST(LintCatalog, EveryEntryIsCompleteAndOrdered)
{
    const auto &entries = analyze::catalog();
    ASSERT_FALSE(entries.empty());
    std::string prev;
    for (const analyze::DiagnosticInfo &info : entries) {
        SCOPED_TRACE(info.id);
        EXPECT_GT(std::string(info.id), prev); // strictly ascending
        EXPECT_NE(info.title[0], '\0');
        EXPECT_NE(info.rationale[0], '\0');
        EXPECT_NE(info.hint[0], '\0');
        EXPECT_EQ(analyze::findDiagnostic(info.id), &info);
        prev = info.id;
    }
    EXPECT_EQ(analyze::findDiagnostic("AUR999"), nullptr);
}

TEST(LintCatalog, JsonOutputIsWellFormedEnoughForCi)
{
    MachineConfig m = baselineModel();
    m.rob_entries = 0;
    const std::string json = analyze::toJson(lintConfig(m));
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"id\": \"AUR001\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos)
        << json;
}

TEST(LintCatalog, JsonEndsWithExactlyOneNewline)
{
    // CI pipes concatenate these reports; a missing or doubled
    // trailing newline breaks line-oriented consumers byte-for-byte.
    MachineConfig m = baselineModel();
    m.rob_entries = 0;
    m.lsu.mshr_entries = 0;
    for (const auto &findings :
         {lintConfig(m), std::vector<Diagnostic>{}}) {
        const std::string json = analyze::toJson(findings);
        ASSERT_GE(json.size(), 2u);
        EXPECT_EQ(json.back(), '\n');
        EXPECT_NE(json[json.size() - 2], '\n')
            << "doubled trailing newline";
    }
}

TEST(LintCatalog, SortDiagnosticsOrdersByIdThenJobThenField)
{
    auto mk = [](const char *id, int job, const char *field) {
        Diagnostic d;
        d.id = id;
        d.job = job;
        d.field = field;
        return d;
    };
    std::vector<Diagnostic> diags = {
        mk("AUR043", 2, "grid"),  mk("AUR040", 1, "mshr"),
        mk("AUR040", -1, "rob"),  mk("AUR043", 0, "grid"),
        mk("AUR040", 1, "fetch"), mk("AUR001", 5, "rob"),
    };
    analyze::sortDiagnostics(diags);
    ASSERT_EQ(diags.size(), 6u);
    EXPECT_EQ(diags[0].id, "AUR001");
    EXPECT_EQ(diags[1].id, "AUR040");
    EXPECT_EQ(diags[1].job, -1); // whole-artifact before job-indexed
    EXPECT_EQ(diags[2].field, "fetch"); // same (id, job): field order
    EXPECT_EQ(diags[3].field, "mshr");
    EXPECT_EQ(diags[4].job, 0);
    EXPECT_EQ(diags[5].job, 2);

    // Sorting is the byte-stability guarantee: repeat is identical.
    std::vector<Diagnostic> again = diags;
    analyze::sortDiagnostics(again);
    EXPECT_EQ(analyze::toJson(again), analyze::toJson(diags));
}

TEST(LintCatalog, JobIndexRendersInTextAndJson)
{
    Diagnostic d =
        analyze::makeDiagnostic("AUR043", "grid", "7", "dominated");
    d.job = 7;
    EXPECT_NE(d.toString().find("[job 7]"), std::string::npos)
        << d.toString();
    const std::string json = analyze::toJson({d});
    EXPECT_NE(json.find("\"job\": 7"), std::string::npos) << json;

    // Unset job stays out of both renderings entirely.
    Diagnostic plain =
        analyze::makeDiagnostic("AUR001", "rob", "0", "empty");
    EXPECT_EQ(plain.toString().find("[job"), std::string::npos);
    EXPECT_EQ(analyze::toJson({plain}).find("\"job\""),
              std::string::npos);
}

TEST(LintCatalog, NearestIdsRankNumericNeighboursFirst)
{
    // AUR044 doesn't exist; its numeric neighbours are the model
    // advisories right below it.
    const auto near = analyze::nearestDiagnosticIds("AUR044", 3);
    ASSERT_EQ(near.size(), 3u);
    EXPECT_EQ(near[0], "AUR043");
    EXPECT_EQ(near[1], "AUR042");
    EXPECT_EQ(near[2], "AUR041");

    // Non-numeric garbage falls back to edit distance but still
    // returns a deterministic, catalog-sized-capped list.
    const auto typo = analyze::nearestDiagnosticIds("AUX001", 3);
    ASSERT_EQ(typo.size(), 3u);
    EXPECT_EQ(typo[0], "AUR001");
    EXPECT_EQ(typo, analyze::nearestDiagnosticIds("AUX001", 3));

    // Never suggests more than the catalog holds.
    EXPECT_LE(analyze::nearestDiagnosticIds("zzz", 500).size(),
              analyze::catalog().size());
}

} // namespace
