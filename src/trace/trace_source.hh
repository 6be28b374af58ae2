/**
 * @file
 * Streaming trace interfaces.
 *
 * The simulator pulls instructions through TraceSource so experiments
 * can run hundreds of millions of instructions without materializing
 * them; VectorTraceSource adapts an in-memory trace for tests.
 */

#ifndef AURORA_TRACE_TRACE_SOURCE_HH
#define AURORA_TRACE_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "inst.hh"

namespace aurora::trace
{

/** Pull-model producer of a dynamic instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction.
     *
     * @param out receives the instruction when available.
     * @retval true an instruction was produced.
     * @retval false the stream is exhausted; out is untouched.
     */
    virtual bool next(Inst &out) = 0;

    /**
     * Consume up to @p max (> 0) instructions, what that many next()
     * calls would deliver, as a view valid until the next call. Empty
     * only at the end of the stream. Every record of the view is
     * predecoded (isa::predecode), against the previous view's last
     * instruction. By default next() stages them and this predecodes
     * the stage.
     */
    virtual std::span<const Inst> read(std::size_t max);

  private:
    std::vector<Inst> staged_;
    /** The last instruction read() returned (predecode context). */
    std::optional<Inst> last_;
};

/**
 * TraceSource over an in-memory vector of instructions, predecoded
 * once at construction.
 */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<Inst> insts);

    bool
    next(Inst &out) override
    {
        if (pos_ >= insts_.size())
            return false;
        out = insts_[pos_++];
        return true;
    }

    std::span<const Inst>
    read(std::size_t max) override
    {
        const std::size_t n = std::min(max, insts_.size() - pos_);
        pos_ += n;
        return {insts_.data() + pos_ - n, n};
    }

    /** Rewind to the beginning of the stream. */
    void rewind() { pos_ = 0; }

    const std::vector<Inst> &insts() const { return insts_; }

  private:
    std::vector<Inst> insts_;
    std::size_t pos_ = 0;
};

/**
 * Wrap any source, truncating it after a fixed number of
 * instructions. Used to honour the paper's per-benchmark cycle budget.
 */
class LimitedTraceSource : public TraceSource
{
  public:
    LimitedTraceSource(TraceSource &inner, Count limit)
        : inner_(inner), remaining_(limit)
    {}

    bool
    next(Inst &out) override
    {
        if (remaining_ == 0)
            return false;
        if (!inner_.next(out))
            return false;
        --remaining_;
        return true;
    }

  private:
    TraceSource &inner_;
    Count remaining_;
};

/**
 * Interleave several sources in round-robin quanta of @p quantum
 * instructions — a multiprogrammed workload with context switches.
 * The stream ends when every inner source is exhausted; exhausted
 * sources are skipped.
 */
class InterleavedTraceSource : public TraceSource
{
  public:
    InterleavedTraceSource(std::vector<TraceSource *> sources,
                           Count quantum);

    bool next(Inst &out) override;

    /** Context switches performed so far. */
    Count switches() const { return switches_; }

  private:
    /** Move current_ to the next live source. */
    bool rotate();

    std::vector<TraceSource *> sources_;
    std::vector<bool> dead_;
    Count quantum_;
    Count used_ = 0;
    std::size_t current_ = 0;
    std::size_t lastDelivered_ = 0;
    bool haveDelivered_ = false;
    Count switches_ = 0;
};

/** Materialize up to @p limit instructions from a source. */
std::vector<Inst> collect(TraceSource &src, Count limit);

} // namespace aurora::trace

#endif // AURORA_TRACE_TRACE_SOURCE_HH
