#include "simulator.hh"

#include <algorithm>
#include <memory>

#include "isa/predecode.hh"
#include "trace/synthetic_workload.hh"
#include "util/logging.hh"

namespace aurora::core
{

namespace
{

/** Instructions a TraceWindow holds (a power of two). */
constexpr Count WINDOW = 512;
/** Most instructions in one view: VIEW + pullBound() < WINDOW. */
constexpr Count VIEW = 64;

/**
 * The first @p length instructions of a source, produced in blocks
 * into a ring: instruction i sits in slot i % WINDOW while
 * filled() - WINDOW <= i < filled().
 */
class TraceWindow
{
  public:
    TraceWindow(trace::SyntheticWorkload &source, Count length)
        : source_(source), length_(length), ring_(WINDOW)
    {}

    /**
     * Produce up to one window past @p slowest, the oldest held, and
     * predecode each block once for every machine reading the ring.
     */
    void
    refill(Count slowest)
    {
        const Count target = std::min(slowest + WINDOW, length_);
        while (filled_ < target) {
            const Count at = filled_ % WINDOW;
            const Count want = std::min(target - filled_, WINDOW - at);
            // A whole-ring block overwrites the slot of the instruction
            // before it, so that one is copied out first.
            const trace::Inst prev = ring_[(at + WINDOW - 1) % WINDOW];
            const std::span block(ring_.data() + at, want);
            source_.fill(block);
            isa::predecode(block, filled_ > 0 ? &prev : nullptr);
            filled_ += want;
        }
    }

    /** Whole trace produced. */
    bool complete() const { return filled_ == length_; }

    /** Processor::advance() input limit: NEVER once complete. */
    Count available() const { return complete() ? NEVER : filled_; }

    Count filled() const { return filled_; }

    const trace::Inst &at(Count i) const { return ring_[i % WINDOW]; }

  private:
    trace::SyntheticWorkload &source_;
    Count length_;
    std::vector<trace::Inst> ring_;
    Count filled_ = 0;
};

/**
 * One machine's read position in a TraceWindow. read() returns views
 * of the ring itself: the IFU copies each instruction once.
 */
class WindowCursor final : public trace::TraceSource
{
  public:
    explicit WindowCursor(const TraceWindow &window) : window_(&window) {}

    bool
    next(trace::Inst &out) override
    {
        const auto got = read(1);
        if (got.empty())
            return false;
        out = got.front();
        return true;
    }

    std::span<const trace::Inst>
    read(std::size_t max) override
    {
        if (pos_ == window_->filled()) {
            // advance() stops before reading past a partial window.
            AURORA_ASSERT(window_->complete(),
                          "trace window read past its fill");
            return {};
        }
        // A view ends at the fill or the ring's end, if not before.
        const Count n = std::min({Count{max}, VIEW,
                                  window_->filled() - pos_,
                                  WINDOW - pos_ % WINDOW});
        held_ = pos_;
        pos_ += n;
        return {&window_->at(held_), n};
    }

    /** Oldest instruction the reader may still hold: its last view's. */
    Count held() const { return held_; }

  private:
    const TraceWindow *window_;
    Count pos_ = 0;
    Count held_ = 0;
};

} // namespace

RunResult
simulate(const MachineConfig &machine,
         const trace::WorkloadProfile &profile, Count instructions,
         const WatchdogConfig &watchdog, PipelineObserver *observer)
{
    PipelineObserver *const observers[] = {observer};
    SharedRun run = simulateShared(std::span(&machine, 1), profile,
                                   instructions, watchdog, observers);
    SharedMachineRun &only = run.machines.front();
    if (only.error)
        std::rethrow_exception(only.error);
    return std::move(only.result);
}

SharedRun
simulateShared(std::span<const MachineConfig> machines,
               const trace::WorkloadProfile &profile, Count instructions,
               const WatchdogConfig &watchdog,
               std::span<PipelineObserver *const> observers)
{
    AURORA_ASSERT(observers.empty() || observers.size() == machines.size(),
                  "simulateShared() needs one observer slot per machine");
    const std::size_t n = machines.size();
    SharedRun run;
    run.machines.resize(n);
    if (n == 0)
        return run;

    WallTimer timer;
    trace::SyntheticWorkload workload(profile);
    TraceWindow window(workload, instructions);
    window.refill(0);
    double synth_seconds = timer.seconds();

    // Cursors are sized once: each Processor holds a reference to its
    // own for life.
    std::vector<WindowCursor> cursors(n, WindowCursor(window));
    std::vector<std::unique_ptr<Processor>> cpus(n);
    // Record a machine's failure or success and release it.
    const auto retire = [&](std::size_t i, std::exception_ptr error) {
        run.machines[i].error = std::move(error);
        if (cpus[i])
            run.machines[i].seconds += cpus[i]->advanceSeconds();
        cpus[i].reset();
    };
    for (std::size_t i = 0; i < n; ++i) {
        timer.reset();
        try {
            cpus[i] = std::make_unique<Processor>(machines[i], cursors[i],
                                                  watchdog);
            if (!observers.empty())
                cpus[i]->setObserver(observers[i]);
        } catch (...) {
            retire(i, std::current_exception());
        }
        run.machines[i].seconds += timer.seconds();
    }

    for (;;) {
        Count slowest = NEVER;
        for (std::size_t i = 0; i < n; ++i)
            if (cpus[i])
                slowest = std::min(slowest, cursors[i].held());
        if (slowest == NEVER)
            break;
        timer.reset();
        window.refill(slowest);
        synth_seconds += timer.seconds();
        const Count available = window.available();
        for (std::size_t i = 0; i < n; ++i) {
            if (!cpus[i])
                continue;
            try {
                if (!cpus[i]->advance(available))
                    continue;
                timer.reset();
                RunResult &res = run.machines[i].result;
                res = cpus[i]->finish();
                res.benchmark = profile.name;
                run.machines[i].seconds += timer.seconds();
                retire(i, nullptr);
            } catch (...) {
                retire(i, std::current_exception());
            }
        }
    }

    run.synthesized = window.filled();
    for (SharedMachineRun &m : run.machines)
        m.seconds += synth_seconds / static_cast<double>(n);
    return run;
}

Accumulator
SuiteResult::cpiStats() const
{
    Accumulator acc;
    for (const RunResult &run : runs)
        acc.add(run.cpi());
    return acc;
}

double
SuiteResult::avgCpi() const
{
    return cpiStats().mean();
}

double
SuiteResult::avgStallCpi(StallCause cause) const
{
    Accumulator acc;
    for (const RunResult &run : runs)
        acc.add(run.stallCpi(cause));
    return acc.mean();
}

} // namespace aurora::core
