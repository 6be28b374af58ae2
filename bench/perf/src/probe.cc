/**
 * @file
 * The host-speed probe: a fixed, small cycle-level pipeline model timed
 * on every CPU a workload uses (README.md, "Host speed").
 *
 * Other tenants of a shared host slow it in phases that last seconds to
 * minutes and move every workload together. The probe runs the same
 * kind of work as the simulator (per-instruction table walks through a
 * modelled cache hierarchy, a branch predictor, a register scoreboard
 * and a reorder ring), so a phase slows it the way it slows the
 * simulator. Its code lives here, outside the simulator, and is built
 * with fixed flags (targets.cmake), so no change to the simulator or to
 * the repository's build flags changes it.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>

#include "perf.hh"

namespace aurora::perf
{

/** The reference model. Its inputs come from a fixed generator. */
class ReferenceModel
{
  public:
    /** Model @p insts instructions. */
    void
    run(unsigned insts)
    {
        for (unsigned i = 0; i < insts; ++i) {
            const std::uint64_t r = next();
            const unsigned dst = r & 31, src = (r >> 5) & 31;
            const unsigned kind = (r >> 10) & 7;
            const std::uint64_t start = std::max(cycle_, ready_[src]);
            std::uint64_t latency = 1;
            if (kind < 3) {
                const std::uint64_t addr = (r >> 16) & 1
                                               ? (stream_ += 8)
                                               : (r >> 20) % FOOTPRINT;
                latency = memory(addr);
            } else if (kind == 3) {
                branch(r);
            }
            ready_[dst] = start + latency;
            if (count_ == rob_.size()) {
                cycle_ = std::max(cycle_, rob_[head_]);
                pop();
            }
            rob_[(head_ + count_) % rob_.size()] = ready_[dst];
            ++count_;
            while (count_ > 0 && rob_[head_] <= cycle_)
                pop();
            ++cycle_;
        }
    }

    std::uint64_t cycles() const { return cycle_; }

  private:
    struct Way
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint64_t used = 0;
    };

    static constexpr std::uint64_t FOOTPRINT = 4u << 20;
    static constexpr unsigned L1_SETS = 256, L1_WAYS = 2;
    static constexpr unsigned L2_SETS = 4096, L2_WAYS = 8;

    std::uint64_t
    next()
    {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        return x_;
    }

    /** Look @p line up in an LRU cache; fill it on a miss. */
    bool
    hit(std::vector<Way> &cache, unsigned sets, unsigned ways,
        std::uint64_t line)
    {
        Way *set = &cache[(line % sets) * ways];
        ++stamp_;
        for (unsigned w = 0; w < ways; ++w)
            if (set[w].tag == line) {
                set[w].used = stamp_;
                return true;
            }
        unsigned victim = 0;
        for (unsigned w = 1; w < ways; ++w)
            if (set[w].used < set[victim].used)
                victim = w;
        set[victim] = {line, stamp_};
        return false;
    }

    unsigned
    memory(std::uint64_t addr)
    {
        const std::uint64_t line = addr >> 6;
        if (hit(l1_, L1_SETS, L1_WAYS, line))
            return 2;
        if (hit(l2_, L2_SETS, L2_WAYS, line))
            return 12;
        return 80;
    }

    void
    branch(std::uint64_t r)
    {
        std::uint8_t &counter = predictor_[(pc_ ^ (r >> 24)) & 4095];
        const bool taken = (r >> 40) % 3 != 0;
        if ((counter >= 2) != taken)
            cycle_ += 8;
        if (taken && counter < 3)
            ++counter;
        if (!taken && counter > 0)
            --counter;
        pc_ = taken ? r >> 44 : pc_ + 4;
    }

    void
    pop()
    {
        head_ = (head_ + 1) % rob_.size();
        --count_;
    }

    std::vector<Way> l1_ = std::vector<Way>(L1_SETS * L1_WAYS);
    std::vector<Way> l2_ = std::vector<Way>(L2_SETS * L2_WAYS);
    std::vector<std::uint8_t> predictor_ = std::vector<std::uint8_t>(4096, 1);
    std::array<std::uint64_t, 32> ready_{};
    std::array<std::uint64_t, 64> rob_{};
    std::uint64_t x_ = 0x243F6A8885A308D3ull;
    std::uint64_t cycle_ = 0, stamp_ = 0, pc_ = 0, stream_ = 0;
    std::size_t head_ = 0, count_ = 0;
};

namespace
{

/** Instructions per timed round: a few milliseconds. */
constexpr unsigned ROUND_INSTS = 300'000;

/** Keeps the model's work observable to the compiler. */
volatile std::uint64_t sink;

} // namespace

HostProbe::HostProbe() : model_(std::make_unique<ReferenceModel>())
{
    model_->run(ROUND_INSTS); // fills the modelled caches
}

HostProbe::~HostProbe()
{
    sink = sink + model_->cycles();
}

double
HostProbe::sample(int rounds)
{
    std::vector<double> ns_per_inst;
    for (int r = 0; r < rounds; ++r) {
        const double t0 = nowUs();
        model_->run(ROUND_INSTS);
        ns_per_inst.push_back((nowUs() - t0) * 1e3 / ROUND_INSTS);
    }
    return median(ns_per_inst);
}

double
probeHost(const std::vector<int> &cpus, int rounds)
{
    std::vector<double> ns_per_inst(cpus.size());
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < cpus.size(); ++k)
        threads.emplace_back([&, k] {
            if (cpus[k] >= 0)
                pinToCpu(cpus[k]);
            ns_per_inst[k] = HostProbe().sample(rounds);
        });
    for (std::thread &t : threads)
        t.join();
    return median(ns_per_inst);
}

} // namespace aurora::perf
