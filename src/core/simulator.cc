#include "simulator.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "isa/predecode.hh"
#include "trace/synthetic_workload.hh"
#include "util/logging.hh"

namespace aurora::core
{

namespace
{

/** Instructions a window holds (a power of two). */
constexpr Count WINDOW = 512;
/** Most instructions in one view: VIEW + pullBound() < WINDOW. */
constexpr Count VIEW = 64;

using Ring = std::vector<trace::Inst>;

/** Frozen rings alive (LockstepUnit::frozenRings()). */
std::atomic<std::size_t> frozen_rings{0};

} // namespace

/**
 * The first @p length instructions of a trace, produced in blocks
 * into a ring: instruction i sits in slot i % WINDOW while
 * filled() - WINDOW <= i < filled(). A copy carries on the same
 * stream: the generator is a plain value.
 */
class LockstepUnit::Window
{
  public:
    Window(const trace::WorkloadProfile &profile, Count length)
        : source_(profile), length_(length), ring_(WINDOW)
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

    /**
     * Hand the ring over as frozen, never written again, and go on
     * writing a copy of it. Moving the vector keeps its buffer, so
     * views into it stay valid for as long as the result is held.
     */
    std::shared_ptr<const Ring>
    freeze()
    {
        ++frozen_rings;
        std::shared_ptr<const Ring> frozen(
            new Ring(std::move(ring_)), [](const Ring *ring) {
                --frozen_rings;
                delete ring;
            });
        ring_ = *frozen;
        return frozen;
    }

    /** Whole trace produced. */
    bool complete() const { return filled_ == length_; }

    /** Processor::advance() input limit: NEVER once complete. */
    Count available() const { return complete() ? NEVER : filled_; }

    Count filled() const { return filled_; }

    Count length() const { return length_; }

    const std::string &benchmark() const { return source_.profile().name; }

    const trace::Inst &at(Count i) const { return ring_[i % WINDOW]; }

  private:
    trace::SyntheticWorkload source_;
    Count length_;
    Ring ring_;
    Count filled_ = 0;
};

/**
 * One machine's read position in a window. read() returns views of
 * the ring itself: the IFU copies each instruction once.
 */
class LockstepUnit::Cursor final : public trace::TraceSource
{
  public:
    explicit Cursor(const Window &window) : window_(&window) {}

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
        // The last view, the only one the reader may still hold, ends
        // here: a ring frozen under it can go.
        if (pin_) [[unlikely]]
            pin_.reset();
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

    /** Instructions read so far. */
    Count pos() const { return pos_; }

    /**
     * A split moved the reader's window, or froze its ring: go on in
     * @p window, and keep the ring the last view points into until the
     * next read(). That is @p frozen, unless the reader has not read
     * since an earlier split froze the ring it pins.
     */
    void
    rebind(const Window &window, const std::shared_ptr<const Ring> &frozen)
    {
        window_ = &window;
        if (!pin_)
            pin_ = frozen;
    }

    /** Drop the pin of a reader that will not read again. */
    void release() { pin_.reset(); }

  private:
    const Window *window_;
    Count pos_ = 0;
    Count held_ = 0;
    std::shared_ptr<const Ring> pin_;
};

/** One machine of a unit; a split moves it whole. */
struct LockstepUnit::Member
{
    Member(std::size_t index, const Window &window)
        : position(index), cursor(window)
    {}

    /** Index in the machine list of the unit it was built in. */
    std::size_t position;
    Cursor cursor;
    /** Holds a reference to cursor; empty once the machine ended. */
    std::optional<Processor> cpu;
    SharedMachineRun run;
};

LockstepUnit::LockstepUnit(std::span<const MachineConfig> machines,
                           const trace::WorkloadProfile &profile,
                           Count instructions,
                           const WatchdogConfig &watchdog,
                           std::span<PipelineObserver *const> observers)
{
    AURORA_ASSERT(observers.empty() || observers.size() == machines.size(),
                  "a lockstep unit needs one observer slot per machine");
    WallTimer timer;
    window_ = std::make_unique<Window>(profile, instructions);
    window_->refill(0);
    const double synth_seconds = timer.seconds();

    members_.reserve(machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i) {
        Member &m = *members_.emplace_back(
            std::make_unique<Member>(i, *window_));
        timer.reset();
        try {
            m.cpu.emplace(machines[i], m.cursor, watchdog);
            if (!observers.empty())
                m.cpu->setObserver(observers[i]);
            ++live_;
        } catch (...) {
            m.run.error = std::current_exception();
        }
        m.run.seconds += timer.seconds() +
                         synth_seconds / static_cast<double>(machines.size());
    }
}

LockstepUnit::LockstepUnit(const Window &window)
    : window_(std::make_unique<Window>(window)), start_(window.filled())
{}

LockstepUnit::~LockstepUnit() = default;

void
LockstepUnit::share(double seconds)
{
    for (const auto &m : members_)
        if (m->cpu)
            m->run.seconds += seconds / static_cast<double>(live_);
}

void
LockstepUnit::retire(Member &m, std::exception_ptr error)
{
    m.run.error = std::move(error);
    m.run.seconds += m.cpu->advanceSeconds();
    m.cpu.reset();
    m.cursor.release();
    --live_;
}

bool
LockstepUnit::step()
{
    Count slowest = NEVER;
    for (const auto &m : members_)
        if (m->cpu)
            slowest = std::min(slowest, m->cursor.held());
    if (slowest == NEVER)
        return false;
    WallTimer timer;
    try {
        window_->refill(slowest);
    } catch (...) {
        const std::exception_ptr error = std::current_exception();
        for (const auto &m : members_)
            if (m->cpu)
                retire(*m, error);
        return false;
    }
    share(timer.seconds());

    const Count available = window_->available();
    for (const auto &m : members_) {
        if (!m->cpu)
            continue;
        try {
            if (!m->cpu->advance(available))
                continue;
            timer.reset();
            m->run.result = m->cpu->finish();
            m->run.result.benchmark = window_->benchmark();
            m->run.seconds += timer.seconds();
            retire(*m, nullptr);
        } catch (...) {
            retire(*m, std::current_exception());
        }
    }
    return live_ > 0;
}

Count
LockstepUnit::remaining() const
{
    Count left = 0;
    for (const auto &m : members_)
        if (m->cpu)
            left += window_->length() - m->cursor.pos();
    return left;
}

std::unique_ptr<LockstepUnit>
LockstepUnit::split()
{
    AURORA_ASSERT(live_ >= 2, "a lockstep unit splits only with two "
                              "live machines");
    const WallTimer timer;
    // Every live machine's last view points into the current ring, so
    // neither half may write it again.
    const std::shared_ptr<const Ring> frozen = window_->freeze();
    std::unique_ptr<LockstepUnit> other(new LockstepUnit(*window_));
    share(timer.seconds());

    std::size_t moving = live_ / 2;
    std::vector<std::unique_ptr<Member>> kept;
    for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
        Member &m = **it;
        if (m.cpu && moving > 0) {
            m.cursor.rebind(*other->window_, frozen);
            other->members_.push_back(std::move(*it));
            --moving;
        } else {
            if (m.cpu)
                m.cursor.rebind(*window_, frozen);
            kept.push_back(std::move(*it));
        }
    }
    std::reverse(kept.begin(), kept.end());
    std::reverse(other->members_.begin(), other->members_.end());
    members_ = std::move(kept);
    other->live_ = other->members_.size();
    live_ -= other->live_;
    return other;
}

Count
LockstepUnit::synthesized() const
{
    return window_->filled() - start_;
}

std::vector<std::pair<std::size_t, SharedMachineRun>>
LockstepUnit::take()
{
    AURORA_ASSERT(live_ == 0, "take() before the unit ended");
    std::vector<std::pair<std::size_t, SharedMachineRun>> runs;
    runs.reserve(members_.size());
    for (const auto &m : members_)
        runs.emplace_back(m->position, std::move(m->run));
    return runs;
}

std::size_t
LockstepUnit::frozenRings()
{
    return frozen_rings.load();
}

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
    SharedRun run;
    run.machines.resize(machines.size());
    if (machines.empty())
        return run;
    LockstepUnit unit(machines, profile, instructions, watchdog, observers);
    while (unit.step()) {
    }
    for (auto &[position, machine] : unit.take())
        run.machines[position] = std::move(machine);
    run.synthesized = unit.synthesized();
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
