/**
 * @file
 * Instruction Fetch Unit with the pre-decoded instruction cache (§2).
 *
 * The IFU walks the dynamic instruction stream, modelling the on-chip
 * instruction cache and the Figure 3 predecode machinery:
 *
 *  - instructions are grouped into aligned EVEN/ODD pairs; at most one
 *    pair is fetched per cycle, and a lone ODD instruction (e.g. a
 *    branch target at an odd slot) fills only one issue slot;
 *  - with branch folding enabled the NEXT field supplies the target's
 *    cache index, so taken control transfers cost no fetch bubble;
 *    with folding disabled each taken transfer costs one cycle;
 *  - I-cache misses stall fetching (the "front of the IEU pipeline"
 *    stalls) while the LSU and reorder buffer continue; missing lines
 *    are looked up in the shared prefetch stream buffers before a
 *    demand fetch is issued.
 */

#ifndef AURORA_IPU_IFU_HH
#define AURORA_IPU_IFU_HH

#include "isa/predecode.hh"
#include "mem/biu.hh"
#include "mem/cache.hh"
#include "mem/stream_buffer.hh"
#include "trace/trace_source.hh"
#include "util/bounded_queue.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace aurora::ipu
{

/** Front-end configuration. */
struct IfuConfig
{
    /** On-chip I-cache capacity (Table 1: 1/2/4 KB). */
    std::uint32_t icache_bytes = 2048;
    /** Cache line size. */
    std::uint32_t line_bytes = 32;
    /** Instructions fetched per cycle (the pair width). */
    unsigned fetch_width = 2;
    /** Branch folding via the predecoded NEXT field (Figure 3). */
    bool branch_folding = true;
    /**
     * Fetch buffer entries between fetch and issue. Two pairs: the
     * machine issues almost directly from the decoded cache, so a
     * taken-branch fetch bubble (folding disabled) is visible to the
     * issue stage rather than absorbed by a deep buffer.
     */
    unsigned buffer_entries = 4;
};

/** Front end: fetch from the trace through the I-cache model. */
class Ifu
{
  public:
    Ifu(const IfuConfig &config, trace::TraceSource &source,
        mem::PrefetchUnit &prefetch);

    /**
     * Fetch up to fetch_width instructions into the buffer. The pair
     * and redirect tests read the records' predecoded bits. Always
     * inlined into Processor::tick, the per-cycle caller: left to
     * itself the compiler keeps a function this size out of line.
     */
    [[gnu::always_inline]] void
    tick(Cycle now)
    {
        if (now < resumeAt_)
            return;
        missStall_ = false;

        unsigned fetched = 0;
        Addr looked_up_line = 1; // sentinel: no line looked up yet

        while (fetched < config_.fetch_width) {
            pump();
            if (!haveNext_ || buffer_.full())
                return;

            const trace::Inst &inst = span_[head_];

            // Pair constraint: the second instruction of a fetch group
            // must be the ODD mate of the first (aligned 8-byte pair).
            if (fetched == 1 && !(inst.predecoded & isa::PD_ODD_MATE))
                return;

            // Instruction cache lookup, once per line per group.
            const Addr line = inst.pc & ~static_cast<Addr>(
                                            config_.line_bytes - 1);
            if (line != looked_up_line) {
                if (!icache_.access(inst.pc)) {
                    const auto res = prefetch_.missLookup(
                        inst.pc, now, /*is_instruction=*/true);
                    icache_.fill(inst.pc);
                    resumeAt_ = res.ready;
                    missStall_ = true;
                    return;
                }
                looked_up_line = line;
            }

            const bool redirect = inst.predecoded & isa::PD_REDIRECT;
            buffer_.push(span_[head_++]);
            haveNext_ = false;
            ++fetched;

            if (redirect) {
                // Fetch the architectural delay slot with the branch,
                // then redirect. Folding (the NEXT field) makes the
                // redirect free; otherwise it costs one fetch cycle.
                pump();
                // The delay slot may be the branch's pair mate and
                // co-fetched; if it lies in the next pair it costs
                // the next fetch slot, modelled by ending the group.
                if (haveNext_ && !buffer_.full() &&
                    fetched < config_.fetch_width &&
                    (span_[head_].predecoded & isa::PD_ODD_MATE)) {
                    buffer_.push(span_[head_++]);
                    haveNext_ = false;
                    ++fetched;
                }
                if (!config_.branch_folding)
                    resumeAt_ = now + 2;
                return;
            }
        }
    }

    /**
     * Earliest cycle >= @p now at which tick() can change state:
     * @p now itself while it can still fetch or pull from the trace,
     * the end of a fetch block, or NEVER when only an issue (freeing
     * buffer space) can restart it.
     */
    Cycle
    nextEvent(Cycle now) const
    {
        if (now < resumeAt_)
            return resumeAt_;
        const bool can_pump = !haveNext_ && !done_;
        const bool can_fetch = haveNext_ && !buffer_.full();
        return can_pump || can_fetch ? now : NEVER;
    }

    /// @name Issue-stage interface
    /// @{
    bool empty() const { return buffer_.empty(); }
    std::size_t available() const { return buffer_.size(); }
    /** Instruction at buffer position @p idx (0 = next to issue). */
    const trace::Inst &peek(std::size_t idx) const
    {
        return buffer_.at(idx);
    }
    /** Consume the next @p n instructions (an issued group). */
    void pop(std::size_t n = 1) { buffer_.drop(n); }
    /// @}

    /** Is fetch currently stalled on an I-cache miss? */
    bool missStalled(Cycle now) const
    {
        return missStall_ && now < resumeAt_;
    }

    /** True when the trace ended and the buffer has drained. */
    bool exhausted() const { return done_ && buffer_.empty(); }

    /**
     * Instructions delivered by the trace source so far — the trace
     * length once exhausted() holds (the auditor's reference count).
     */
    Count fetchedFromSource() const { return fetchedFromSource_; }

    /** I-cache statistics. */
    const mem::DirectMappedCache &icache() const { return icache_; }

    const IfuConfig &config() const { return config_; }

  private:
    /** Instructions asked of the source per read(). */
    static constexpr std::size_t READ_SPAN = 64;

    /**
     * Pull span_[head_], reading the source a span at a time, unless
     * one is pulled already or the trace ended.
     */
    void
    pump()
    {
        if (done_ || haveNext_)
            return;
        if (head_ == span_.size()) {
            span_ = source_.read(READ_SPAN);
            head_ = 0;
            if (span_.empty()) {
                done_ = true;
                return;
            }
            // Every read() provider predecodes its views; a view's
            // first record stands for the rest.
            AURORA_ASSERT(span_.front().predecoded & isa::PD_VALID,
                          "IFU read a trace view that was not "
                          "predecoded");
        }
        haveNext_ = true;
        ++fetchedFromSource_;
    }

    IfuConfig config_;
    trace::TraceSource &source_;
    mem::PrefetchUnit &prefetch_;
    mem::DirectMappedCache icache_;
    BoundedQueue<trace::Inst> buffer_;

    /** The source's last read(); span_[head_] is the next to pull. */
    std::span<const trace::Inst> span_;
    std::size_t head_ = 0;
    bool haveNext_ = false;
    bool done_ = false;
    Count fetchedFromSource_ = 0;

    Cycle resumeAt_ = 0;    ///< fetch blocked before this cycle
    bool missStall_ = false; ///< current block is an I-miss
};

} // namespace aurora::ipu

#endif // AURORA_IPU_IFU_HH
