#include "lint_config.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "cost/rbe.hh"
#include "fpu/result_bus.hh"
#include "pipeline_graph.hh"

namespace aurora::analyze
{

namespace
{

/** Latest writeback slot a result bus can be reserved for. */
constexpr Cycle MAX_FP_LATENCY = fpu::ResultBusSchedule::WINDOW - 1;

/** Render a number the way config_io keys are written. */
template <typename T>
std::string
str(T value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

void
emit(std::vector<Diagnostic> &out, const char *id, std::string field,
     std::string value, std::string detail)
{
    out.push_back(makeDiagnostic(id, std::move(field),
                                 std::move(value), std::move(detail)));
}

/** Deepest *pipelined* FP unit: it alone bounds in-flight results. */
Cycle
maxPipelinedFpLatency(const fpu::FpuConfig &fpu)
{
    Cycle deepest = 0;
    for (const fpu::FpUnitConfig *unit :
         {&fpu.add, &fpu.mul, &fpu.div, &fpu.cvt})
        if (unit->pipelined)
            deepest = std::max(deepest, unit->latency);
    return deepest;
}

/** validate()-class structural defects, restated as catalog IDs. */
void
lintStructure(const core::MachineConfig &m, std::vector<Diagnostic> &out)
{
    if (m.issue_width < 1 || m.issue_width > 2)
        emit(out, "AUR008", "issue", str(m.issue_width),
             detail::concat("issue_width is ", m.issue_width));
    if (m.ifu.fetch_width != m.issue_width)
        emit(out, "AUR004", "fetch", str(m.ifu.fetch_width),
             detail::concat("fetch_width ", m.ifu.fetch_width,
                            " vs issue_width ", m.issue_width));
    if (m.retire_width < m.issue_width)
        emit(out, "AUR009", "retire", str(m.retire_width),
             detail::concat("retire_width ", m.retire_width,
                            " < issue_width ", m.issue_width));
    if (m.ifu.line_bytes != m.lsu.line_bytes ||
        m.ifu.line_bytes != m.prefetch.line_bytes ||
        m.ifu.line_bytes != m.write_cache.line_bytes)
        emit(out, "AUR003", "iline/dline/pf_line/wc_line",
             detail::concat(m.ifu.line_bytes, "/", m.lsu.line_bytes,
                            "/", m.prefetch.line_bytes, "/",
                            m.write_cache.line_bytes),
             "icache, dcache, prefetch and write-cache lines must be "
             "one size");
    if (m.rob_entries == 0)
        emit(out, "AUR001", "rob", "0", "IPU reorder buffer is empty");
    if (m.alu_latency < 1)
        emit(out, "AUR020", "alu_lat", str(m.alu_latency), "");
    if (m.lsu.mshr_entries == 0)
        emit(out, "AUR002", "mshr", "0", "");
    if (m.prefetch.enabled && m.prefetch.num_buffers == 0)
        emit(out, "AUR011", "pf_buffers", "0", "");
    if (m.write_cache.lines == 0)
        emit(out, "AUR019", "wc_lines", "0", "write cache has no lines");
    if (!std::has_single_bit(m.write_cache.page_bytes))
        emit(out, "AUR019", "wc_page", str(m.write_cache.page_bytes),
             detail::concat("wc_page=", m.write_cache.page_bytes,
                            " is not a power of two"));

    const struct
    {
        const char *key;
        unsigned entries;
    } queues[] = {{"fp_instq", m.fpu.inst_queue},
                  {"fp_loadq", m.fpu.load_queue},
                  {"fp_storeq", m.fpu.store_queue}};
    for (const auto &q : queues)
        if (q.entries == 0)
            emit(out, "AUR005", q.key, "0",
                 detail::concat(q.key, " has no entries"));
    if (m.fpu.rob_entries == 0)
        emit(out, "AUR001", "fp_rob", "0",
             "FPU reorder buffer is empty");

    const struct
    {
        const char *key;
        Cycle latency;
    } units[] = {{"fp_add_lat", m.fpu.add.latency},
                 {"fp_mul_lat", m.fpu.mul.latency},
                 {"fp_div_lat", m.fpu.div.latency},
                 {"fp_cvt_lat", m.fpu.cvt.latency}};
    for (const auto &u : units)
        if (u.latency < 1 || u.latency > MAX_FP_LATENCY)
            emit(out, "AUR007", u.key, str(u.latency),
                 detail::concat(u.key, "=", u.latency, " outside [1, ",
                                MAX_FP_LATENCY, "]"));
    if (m.fpu.provably_safe_frac < 0.0 ||
        m.fpu.provably_safe_frac > 1.0)
        emit(out, "AUR006", "fp_safe_frac",
             str(m.fpu.provably_safe_frac), "");
}

/** §5 sizing relationships: legal configurations known to stall. */
void
lintSizing(const core::MachineConfig &m, std::vector<Diagnostic> &out)
{
    const Cycle deepest = maxPipelinedFpLatency(m.fpu);
    if (m.fpu.rob_entries > 0 && m.fpu.rob_entries < deepest)
        emit(out, "AUR012", "fp_rob", str(m.fpu.rob_entries),
             detail::concat("fp_rob=", m.fpu.rob_entries,
                            " < deepest pipelined FP latency ",
                            deepest));
    if (m.fpu.inst_queue > 0 && m.fpu.inst_queue < deepest)
        emit(out, "AUR013", "fp_instq", str(m.fpu.inst_queue),
             detail::concat("fp_instq=", m.fpu.inst_queue,
                            " < deepest pipelined FP latency ",
                            deepest));
    if (m.fpu.load_queue > 0 && m.fpu.load_queue < m.issue_width)
        emit(out, "AUR014", "fp_loadq", str(m.fpu.load_queue),
             detail::concat("fp_loadq=", m.fpu.load_queue,
                            " < issue_width ", m.issue_width));
    if (m.write_cache.lines > 0 && m.write_cache.lines < m.issue_width)
        emit(out, "AUR015", "wc_lines", str(m.write_cache.lines),
             detail::concat("wc_lines=", m.write_cache.lines,
                            " < issue_width ", m.issue_width));
    if (m.prefetch.enabled) {
        if (m.prefetch.depth > m.biu.queue_depth)
            emit(out, "AUR016", "pf_depth", str(m.prefetch.depth),
                 detail::concat("pf_depth=", m.prefetch.depth,
                                " > biu_queue=", m.biu.queue_depth));
        const unsigned aggregate =
            m.prefetch.num_buffers * m.prefetch.depth;
        if (aggregate > 2 * m.biu.queue_depth)
            emit(out, "AUR017", "pf_buffers*pf_depth", str(aggregate),
                 detail::concat(m.prefetch.num_buffers, " buffers x ",
                                m.prefetch.depth, " lines > 2 x "
                                "biu_queue=", m.biu.queue_depth));
    }
    if (m.rob_entries * m.retire_width < m.lsu.dcache_latency)
        emit(out, "AUR018", "rob*retire",
             str(m.rob_entries * m.retire_width),
             detail::concat("rob=", m.rob_entries, " x retire=",
                            m.retire_width, " < dcache_lat=",
                            m.lsu.dcache_latency));
    if (m.lsu.victim_lines > 0 && m.prefetch.enabled)
        emit(out, "AUR022", "victim_lines", str(m.lsu.victim_lines),
             "");
    if (m.biu.model_collisions && m.biu.collision_penalty == 0)
        emit(out, "AUR023", "collision_penalty", "0", "");
    if (m.fpu.precise_exceptions && m.fpu.provably_safe_frac == 0.0)
        emit(out, "AUR024", "fp_precise/fp_safe_frac", "on/0", "");
}

/** §4.2 area budget: price the machine and report the overshoot. */
void
lintBudget(const core::MachineConfig &m, double budget,
           std::vector<Diagnostic> &out)
{
    if (budget <= 0.0)
        return;
    const double ipu = cost::ipuRbe(m.ipuResources());
    const double fpu = cost::fpuRbe(m.fpu);
    const double total = ipu + fpu;
    if (total <= 0.95 * budget)
        return;

    // Per-structure breakdown so the overshoot is actionable: the
    // user sees *which* structures to shrink, in RBE, not just that
    // the sum is too large.
    const cost::IpuResources res = m.ipuResources();
    std::ostringstream detail;
    detail << str(total) << " RBE vs budget " << str(budget)
           << " (icache " << cost::icacheRbe(res.icache_bytes)
           << ", wcache " << cost::writeCacheRbe(res.write_cache_lines)
           << ", prefetch "
           << cost::prefetchRbe(res.prefetch_buffers,
                                res.prefetch_depth)
           << ", rob " << cost::robRbe(res.rob_entries) << ", mshr "
           << cost::mshrRbe(res.mshr_entries) << ", pipelines "
           << cost::pipelineRbe(res.pipelines) << ", fpu " << fpu
           << ")";
    emit(out, total > budget ? "AUR030" : "AUR031", "rbe", str(total),
         detail.str());
}

} // namespace

std::vector<Diagnostic>
lintConfig(const core::MachineConfig &machine, const LintOptions &options)
{
    std::vector<Diagnostic> out;
    lintStructure(machine, out);
    lintSizing(machine, out);
    lintBudget(machine, options.rbe_budget, out);
    for (Diagnostic &d : checkPipelineGraph(machine))
        out.push_back(std::move(d));
    return out;
}

} // namespace aurora::analyze
