/**
 * @file
 * Execution-based synthetic workload generator.
 *
 * Rather than sampling instructions independently (which would destroy
 * the locality every Aurora III mechanism depends on), the generator
 * builds a static program image — a set of hot loop bodies plus a cold
 * code region — and then *executes* it: loops run for sampled trip
 * counts, cold code is walked in sequential runs broken by control
 * transfers, memory slots carry persistent cursors (sequential streams,
 * strided walks, pointer chases, hot stack words). The resulting
 * dynamic stream has genuine loop reuse, sequential I-miss patterns,
 * coalescible store bursts and realistic dependency chains.
 *
 * MIPS branch-delay-slot semantics are modelled: every control transfer
 * is followed by its architectural delay slot instruction before the
 * target executes, as on the real R3000.
 */

#ifndef AURORA_TRACE_SYNTHETIC_WORKLOAD_HH
#define AURORA_TRACE_SYNTHETIC_WORKLOAD_HH

#include <array>
#include <vector>

#include "trace_source.hh"
#include "util/rng.hh"
#include "workload_profile.hh"

namespace aurora::trace
{

/** Infinite TraceSource driven by a WorkloadProfile. */
class SyntheticWorkload final : public TraceSource
{
  public:
    /** Simulated virtual address map (MIPS-like layout). */
    static constexpr Addr CODE_BASE = 0x00400000;
    static constexpr Addr HEAP_BASE = 0x20000000;
    static constexpr Addr STACK_TOP = 0x7fff0000;

    /** Build the static program image for @p profile. */
    explicit SyntheticWorkload(WorkloadProfile profile);

    /** Always produces an instruction (the stream is unbounded). */
    bool next(Inst &out) override;

    /**
     * Produce out.size() instructions into @p out: the stream of
     * next(), without a call per instruction.
     */
    void fill(std::span<Inst> out);

    const WorkloadProfile &profile() const { return profile_; }

    /** Instructions produced so far. */
    Count produced() const { return produced_; }

  private:
    /** Persistent address-generation behaviour of one memory slot. */
    enum class MemPattern : std::uint8_t { Stream, Stride, Chase, Hot };

    struct MemSlot
    {
        MemPattern pattern = MemPattern::Hot;
        Addr base = 0;      ///< current window/region base
        Addr cursor = 0;    ///< next address for stream/stride
        Addr region = 0;    ///< region size for stride wrap
        std::uint32_t stride = 0;
    };

    /** One static instruction of a hot loop body. */
    struct StaticOp
    {
        OpClass op = OpClass::IntAlu;
        int mem_slot = -1;        ///< index into memSlots_, -1 if none
        bool second_half = false; ///< second 32-bit half of an FP pair
        bool inline_branch = false; ///< not-taken test branch
    };

    struct Loop
    {
        Addr base = 0;
        std::vector<StaticOp> body; ///< ends with branch + delay slot
        double weight = 1.0;
        double mean_trips = 16.0;
    };

    /** Produce the next instruction without next_pc patched. */
    void produceRaw(Inst &out);
    /** Emit one hot-loop instruction and advance loop state. */
    void stepHot(Inst &inst);
    /** Emit one cold-code instruction and advance walk state. */
    void stepCold(Inst &inst);

    /** Sample an operation class from the dynamic mix. */
    OpClass sampleOpClass();
    /** Sample one FP arithmetic class from the unit weights. */
    OpClass sampleFpArith();
    /** Create a memory slot with a sampled pattern. */
    MemSlot makeMemSlot(bool for_store);
    /** Pick a pooled slot index for a static op of class @p op. */
    int pickSlot(OpClass op);
    /** The zipf() domain of a Hot or Chase-hot draw (see zipf_). */
    const Rng::ZipfShape &zipfShape(bool chase, unsigned size,
                                    bool is_store) const;
    /** Next effective address for @p slot with access @p size. */
    Addr nextAddr(MemSlot &slot, unsigned size, bool is_store);
    /** Fill register operands and memory address for @p inst. */
    void assignOperands(Inst &inst, int mem_slot);

    void enterHotEpisode();
    void enterColdEpisode();
    Addr pickColdTarget();

    WorkloadProfile profile_;
    Rng rng_;

    std::vector<Loop> loops_;
    std::vector<double> loopWeights_;
    std::vector<MemSlot> memSlots_;
    std::vector<int> loadSlotPool_;  ///< slots shared by loads
    std::vector<int> storeSlotPool_; ///< stack-biased store slots
    std::vector<Addr> stridePool_;   ///< shared strided-array bases
    Addr coldBase_ = 0;
    std::uint32_t coldBytes_ = 0;
    double meanHotEpisodeLen_ = 1.0;
    /** zipf() shapes by (Chase, 8-byte, store) bits, fixed per profile. */
    std::array<Rng::ZipfShape, 8> zipf_{};

    // --- dynamic state ---
    bool inHot_ = true;
    std::size_t curLoop_ = 0;
    std::size_t bodyPos_ = 0;
    std::uint64_t tripsLeft_ = 0;
    Addr coldPc_ = 0;
    std::uint64_t runLeft_ = 0;
    std::uint64_t coldLeft_ = 0;
    Addr coldBranchTarget_ = 0;
    std::array<Addr, 16> recentTargets_{};
    std::size_t targetRing_ = 0;
    bool targetsSeeded_ = false;

    // register-dependency state
    RegIndex prevDst_ = NO_REG;
    RegIndex lastLoadDst_ = NO_REG;
    int sinceLoad_ = 1000;
    RegIndex prevFdst_ = NO_REG;
    RegIndex lastFpLoadDst_ = NO_REG;
    int sinceFpLoad_ = 1000;
    std::uint64_t fpRunLeft_ = 0;
    OpClass lastFpArith_ = OpClass::Nop;
    int dstCursor_ = 0;
    int fdstCursor_ = 0;

    // FP pair state: address of the first 32-bit half
    Addr lastFpPairAddr_ = 0;

    // store-locality state
    std::array<Addr, 8> recentStores_{};
    std::size_t storeRing_ = 0;
    std::size_t storesSeen_ = 0;
    Addr lastStoreAddr_ = 0;

    // streaming state
    bool havePending_ = false;
    Inst pending_{};
    Count produced_ = 0;
};

} // namespace aurora::trace

#endif // AURORA_TRACE_SYNTHETIC_WORKLOAD_HH
