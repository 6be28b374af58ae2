#include "ifu.hh"

#include "util/logging.hh"

namespace aurora::ipu
{

Ifu::Ifu(const IfuConfig &config, trace::TraceSource &source,
         mem::PrefetchUnit &prefetch)
    : config_(config), source_(source), prefetch_(prefetch),
      icache_(config.icache_bytes, config.line_bytes),
      buffer_(config.buffer_entries)
{
    AURORA_ASSERT(config_.fetch_width >= 1 && config_.fetch_width <= 2,
                  "fetch width must be 1 or 2");
    pump();
}

void
Ifu::pump()
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
    }
    haveNext_ = true;
    ++fetchedFromSource_;
}

void
Ifu::tick(Cycle now)
{
    if (now < resumeAt_)
        return;
    missStall_ = false;

    unsigned fetched = 0;
    Addr first_pair = 0;
    Addr looked_up_line = 1; // sentinel: no line looked up yet

    while (fetched < config_.fetch_width) {
        pump();
        if (!haveNext_ || buffer_.full())
            return;

        const trace::Inst &inst = span_[head_];

        // Pair constraint: the second instruction of a fetch group
        // must be the ODD mate of the first (aligned 8-byte pair).
        if (fetched == 1) {
            const bool odd_mate = (inst.pc >> 3) == first_pair &&
                                  (inst.pc & 0x4u) != 0;
            if (!odd_mate)
                return;
        }

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

        if (fetched == 0)
            first_pair = inst.pc >> 3;

        const bool redirect = inst.redirectsFetch();
        buffer_.push(span_[head_++]);
        haveNext_ = false;
        ++fetched;

        if (redirect) {
            // Fetch the architectural delay slot with the branch,
            // then redirect. Folding (the NEXT field) makes the
            // redirect free; otherwise it costs one fetch cycle.
            pump();
            if (haveNext_ && !buffer_.full()) {
                const bool mate =
                    (span_[head_].pc >> 3) == first_pair &&
                    (span_[head_].pc & 0x4u) != 0;
                // The delay slot may be the branch's pair mate and
                // co-fetched; if it lies in the next pair it costs
                // the next fetch slot, modelled by ending the group.
                if (fetched < config_.fetch_width && mate) {
                    buffer_.push(span_[head_++]);
                    haveNext_ = false;
                    ++fetched;
                }
            }
            if (!config_.branch_folding)
                resumeAt_ = now + 2;
            return;
        }
    }
}

} // namespace aurora::ipu
