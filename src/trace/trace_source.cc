#include "trace_source.hh"

#include "isa/predecode.hh"
#include "util/logging.hh"

namespace aurora::trace
{

std::span<const Inst>
TraceSource::read(std::size_t max)
{
    staged_.resize(max);
    std::size_t n = 0;
    while (n < max && next(staged_[n]))
        ++n;
    const std::span<Inst> view(staged_.data(), n);
    isa::predecode(view, last_ ? &*last_ : nullptr);
    if (n > 0)
        last_ = view.back();
    return view;
}

VectorTraceSource::VectorTraceSource(std::vector<Inst> insts)
    : insts_(std::move(insts))
{
    isa::predecode(insts_, nullptr);
}

InterleavedTraceSource::InterleavedTraceSource(
    std::vector<TraceSource *> sources, Count quantum)
    : sources_(std::move(sources)),
      dead_(sources_.size(), false), quantum_(quantum)
{
    AURORA_ASSERT(!sources_.empty(),
                  "interleaving needs at least one source");
    AURORA_ASSERT(quantum_ > 0, "context-switch quantum must be > 0");
    for (const TraceSource *src : sources_)
        AURORA_ASSERT(src != nullptr, "null trace source");
}

bool
InterleavedTraceSource::rotate()
{
    for (std::size_t step = 1; step <= sources_.size(); ++step) {
        const std::size_t candidate =
            (current_ + step) % sources_.size();
        if (!dead_[candidate]) {
            current_ = candidate;
            used_ = 0;
            return true;
        }
    }
    return !dead_[current_];
}

bool
InterleavedTraceSource::next(Inst &out)
{
    for (std::size_t attempts = 0; attempts <= sources_.size();
         ++attempts) {
        if (dead_[current_]) {
            if (!rotate())
                return false;
            continue;
        }
        if (used_ >= quantum_) {
            if (!rotate())
                return false;
        }
        if (sources_[current_]->next(out)) {
            ++used_;
            // A context switch happened only if an instruction was
            // actually delivered from a different source than the
            // previous one (end-of-stream probing is not a switch).
            if (haveDelivered_ && current_ != lastDelivered_)
                ++switches_;
            lastDelivered_ = current_;
            haveDelivered_ = true;
            return true;
        }
        dead_[current_] = true;
    }
    return false;
}

std::vector<Inst>
collect(TraceSource &src, Count limit)
{
    std::vector<Inst> insts;
    insts.reserve(limit);
    Inst inst;
    while (insts.size() < limit && src.next(inst))
        insts.push_back(inst);
    return insts;
}

} // namespace aurora::trace
