#include "machine_config.hh"

#include <bit>

#include "fpu/result_bus.hh"
#include "util/sim_error.hh"

namespace aurora::core
{

namespace
{

using util::SimErrorCode;
using util::raiseError;

/** Shared bound on FP unit latencies (result bus scheduling window). */
constexpr Cycle MAX_FP_LATENCY = fpu::ResultBusSchedule::WINDOW - 1;

void
checkFpLatency(const char *unit, const fpu::FpUnitConfig &cfg)
{
    if (cfg.latency < 1 || cfg.latency > MAX_FP_LATENCY)
        raiseError(SimErrorCode::BadConfig, "FP ", unit, " latency ",
                   cfg.latency, " outside [1, ", MAX_FP_LATENCY,
                   "] (result bus scheduling window)");
}

} // namespace

void
MachineConfig::validate() const
{
    // Every failure here is a user configuration error — recoverable
    // by whoever drives the sweep — so it throws SimError(BadConfig)
    // rather than terminating the process. Note that validation is
    // deliberately not a liveness proof: a machine can pass every
    // structural check and still never retire (e.g. fp_buses=0, a
    // bus-starved FPU); the Processor's forward-progress watchdog
    // exists for exactly those configurations.
    if (issue_width < 1 || issue_width > 2)
        raiseError(SimErrorCode::BadConfig,
                   "issue width must be 1 or 2, got ", issue_width);
    if (ifu.fetch_width != issue_width)
        raiseError(SimErrorCode::BadConfig, "fetch width (",
                   ifu.fetch_width, ") must equal issue width (",
                   issue_width, ")");
    if (retire_width < issue_width)
        raiseError(SimErrorCode::BadConfig, "retire width (",
                   retire_width,
                   ") below issue width would leak ROB entries");
    if (ifu.line_bytes != lsu.line_bytes ||
        ifu.line_bytes != prefetch.line_bytes ||
        ifu.line_bytes != write_cache.line_bytes)
        raiseError(SimErrorCode::BadConfig,
                   "cache line sizes disagree: icache ",
                   ifu.line_bytes, ", dcache ", lsu.line_bytes,
                   ", prefetch ", prefetch.line_bytes,
                   ", write cache ", write_cache.line_bytes);
    if (rob_entries == 0)
        raiseError(SimErrorCode::BadConfig,
                   "reorder buffer needs at least one entry");
    if (alu_latency < 1)
        raiseError(SimErrorCode::BadConfig,
                   "ALU latency must be at least one cycle");
    if (lsu.mshr_entries == 0)
        raiseError(SimErrorCode::BadConfig,
                   "the LSU needs at least one MSHR");
    if (write_cache.lines == 0)
        raiseError(SimErrorCode::BadConfig,
                   "the write cache needs at least one line");
    if (!std::has_single_bit(write_cache.page_bytes))
        raiseError(SimErrorCode::BadConfig,
                   "write cache page size (", write_cache.page_bytes,
                   ") must be a nonzero power of two");
    if (prefetch.enabled && prefetch.num_buffers == 0)
        raiseError(SimErrorCode::BadConfig,
                   "enabled prefetch unit needs buffers");
    if (fpu.inst_queue == 0 || fpu.load_queue == 0 ||
        fpu.store_queue == 0)
        raiseError(SimErrorCode::BadConfig,
                   "FPU decoupling queues need at least one entry "
                   "(fp_instq=", fpu.inst_queue,
                   ", fp_loadq=", fpu.load_queue,
                   ", fp_storeq=", fpu.store_queue, ")");
    if (fpu.rob_entries == 0)
        raiseError(SimErrorCode::BadConfig,
                   "FPU reorder buffer needs at least one entry");
    checkFpLatency("add", fpu.add);
    checkFpLatency("mul", fpu.mul);
    checkFpLatency("div", fpu.div);
    checkFpLatency("cvt", fpu.cvt);
    if (fpu.provably_safe_frac < 0.0 ||
        fpu.provably_safe_frac > 1.0)
        raiseError(SimErrorCode::BadConfig,
                   "fp_safe_frac must lie in [0,1]");
}

cost::IpuResources
MachineConfig::ipuResources() const
{
    cost::IpuResources res;
    res.icache_bytes = ifu.icache_bytes;
    res.write_cache_lines = write_cache.lines;
    res.prefetch_buffers = prefetch.enabled ? prefetch.num_buffers : 0;
    res.prefetch_depth = prefetch.depth;
    res.rob_entries = rob_entries;
    res.mshr_entries = lsu.mshr_entries;
    res.pipelines = issue_width;
    return res;
}

double
MachineConfig::rbeCost() const
{
    return cost::ipuRbe(ipuResources());
}

MachineConfig
MachineConfig::withIssueWidth(unsigned width) const
{
    MachineConfig c = *this;
    c.issue_width = width;
    c.ifu.fetch_width = width;
    return c;
}

MachineConfig
MachineConfig::withLatency(Cycle latency) const
{
    MachineConfig c = *this;
    c.biu.latency = latency;
    return c;
}

MachineConfig
MachineConfig::withPrefetch(bool enabled) const
{
    MachineConfig c = *this;
    c.prefetch.enabled = enabled;
    return c;
}

MachineConfig
MachineConfig::withMshrs(unsigned entries) const
{
    MachineConfig c = *this;
    c.lsu.mshr_entries = entries;
    return c;
}

MachineConfig
MachineConfig::withName(std::string new_name) const
{
    MachineConfig c = *this;
    c.name = std::move(new_name);
    return c;
}

MachineConfig
smallModel()
{
    MachineConfig c;
    c.name = "small";
    c.rob_entries = 2;
    c.ifu.icache_bytes = 1024;
    c.lsu.dcache_bytes = 16 * 1024;
    c.lsu.mshr_entries = 1;
    c.write_cache.lines = 2;
    c.prefetch.num_buffers = 2;
    return c;
}

MachineConfig
baselineModel()
{
    MachineConfig c;
    c.name = "baseline";
    c.rob_entries = 6;
    c.ifu.icache_bytes = 2048;
    c.lsu.dcache_bytes = 32 * 1024;
    c.lsu.mshr_entries = 2;
    c.write_cache.lines = 4;
    c.prefetch.num_buffers = 4;
    return c;
}

MachineConfig
largeModel()
{
    MachineConfig c;
    c.name = "large";
    c.rob_entries = 8;
    c.ifu.icache_bytes = 4096;
    c.lsu.dcache_bytes = 64 * 1024;
    c.lsu.mshr_entries = 4;
    c.write_cache.lines = 8;
    c.prefetch.num_buffers = 8;
    return c;
}

MachineConfig
recommendedModel()
{
    MachineConfig c = baselineModel();
    c.name = "recommended";
    c.ifu.icache_bytes = 4096;
    c.lsu.mshr_entries = 4;
    return c;
}

std::vector<MachineConfig>
studyModels()
{
    return {smallModel(), baselineModel(), largeModel()};
}

} // namespace aurora::core
