#include "synthetic_workload.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace aurora::trace
{

namespace
{

/** Integer destination registers cycle through r8..r23. */
constexpr RegIndex INT_DST_BASE = 8;
constexpr int INT_DST_COUNT = 16;
/** FP destinations cycle through even registers f0..f30. */
constexpr int FP_DST_COUNT = 16;

} // namespace

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile)
    : profile_(std::move(profile)), rng_(profile_.seed)
{
    AURORA_ASSERT(profile_.num_hot_loops >= 1,
                  "workload needs at least one hot loop");
    AURORA_ASSERT(profile_.hot_code_bytes >=
                      static_cast<std::uint32_t>(
                          profile_.num_hot_loops * 8 * 4),
                  "hot code region too small for ",
                  profile_.num_hot_loops, " loops");
    AURORA_ASSERT(profile_.seq_fraction + profile_.chase_fraction <=
                      1.0 + 1e-9,
                  "heap pattern fractions exceed 1");
    AURORA_ASSERT(profile_.hot_data_bytes >= 64,
                  "hot data region must hold at least 8 doubles");

    // zipf() domains of the Hot and Chase-hot address draws. Stores
    // draw from a narrower range than loads: program outputs are more
    // concentrated than inputs, which makes the write cache effective.
    for (std::size_t i = 0; i < zipf_.size(); ++i) {
        const std::uint64_t bytes =
            i & 4 ? std::min(profile_.chase_hot_bytes,
                             profile_.total_data_bytes)
                  : profile_.hot_data_bytes;
        const std::uint64_t size = i & 2 ? 8 : 4;
        const std::uint64_t conc =
            i & 1 ? std::max(1u, profile_.store_concentration) : 1;
        zipf_[i] = Rng::zipfShape(
            std::max<std::uint64_t>(8, bytes / size / conc),
            profile_.zipf_s);
    }

    // ---- build the shared memory slot pools ----
    // Loop bodies reference a bounded set of arrays/structures, not a
    // fresh one per instruction: pooling keeps the active data
    // working set realistic and bounded.
    const unsigned pool_size = std::max<unsigned>(
        8, 3 * static_cast<unsigned>(profile_.num_hot_loops));
    for (unsigned i = 0; i < pool_size; ++i) {
        loadSlotPool_.push_back(static_cast<int>(memSlots_.size()));
        memSlots_.push_back(makeMemSlot(/*for_store=*/false));
    }
    for (unsigned i = 0; i < pool_size / 2 + 1; ++i) {
        storeSlotPool_.push_back(static_cast<int>(memSlots_.size()));
        memSlots_.push_back(makeMemSlot(/*for_store=*/true));
    }

    // ---- carve the code region: hot loop bodies then cold code ----
    const std::uint32_t hot_insts = profile_.hot_code_bytes / 4;
    const auto num_loops =
        static_cast<std::uint32_t>(profile_.num_hot_loops);
    const std::uint32_t per_loop = hot_insts / num_loops;
    Addr next_base = CODE_BASE;
    double mean_body = 0.0;
    for (std::uint32_t i = 0; i < num_loops; ++i) {
        Loop loop;
        loop.base = next_base;
        // Vary body sizes around the mean so loops are distinct.
        const std::uint64_t lo = std::max<std::uint64_t>(6, per_loop / 2);
        const std::uint64_t hi = std::max<std::uint64_t>(lo, per_loop * 3 / 2);
        const auto payload =
            static_cast<std::size_t>(rng_.range(lo, hi)) - 2;

        // Each loop works on a small set of arrays/structures; this
        // bounds the number of concurrent reference streams per
        // episode, which is what lets a handful of stream buffers
        // track them.
        std::vector<int> loop_loads, loop_stores;
        for (int k = 0; k < 3; ++k)
            loop_loads.push_back(
                loadSlotPool_[rng_.uniform(loadSlotPool_.size())]);
        for (int k = 0; k < 2; ++k)
            loop_stores.push_back(
                storeSlotPool_[rng_.uniform(storeSlotPool_.size())]);

        // Count-based body composition: every loop body carries the
        // profile's instruction mix (per-op sampling would leave the
        // dominant loops with wildly skewed mixes).
        auto count_for = [&](double frac) {
            const double x = frac * static_cast<double>(payload);
            auto n = static_cast<std::uint64_t>(x);
            if (rng_.chance(x - static_cast<double>(n)))
                ++n;
            return n;
        };
        std::vector<OpClass> classes;
        for (std::uint64_t k = count_for(profile_.frac_load); k; --k)
            classes.push_back(OpClass::Load);
        for (std::uint64_t k = count_for(profile_.frac_store); k; --k)
            classes.push_back(OpClass::Store);
        std::uint64_t fp_arith = 0;
        if (profile_.floating_point) {
            for (std::uint64_t k = count_for(profile_.frac_fp_load);
                 k; --k)
                classes.push_back(OpClass::FpLoad);
            for (std::uint64_t k = count_for(profile_.frac_fp_store);
                 k; --k)
                classes.push_back(OpClass::FpStore);
            fp_arith = count_for(profile_.frac_fp_arith);
        }
        while (classes.size() + fp_arith < payload)
            classes.push_back(rng_.chance(profile_.inline_branch_frac)
                                  ? OpClass::Branch
                                  : OpClass::IntAlu);
        // Fisher-Yates shuffle of the non-FP-arith ops.
        for (std::size_t k = classes.size(); k > 1; --k) {
            const std::size_t j = rng_.uniform(k);
            std::swap(classes[k - 1], classes[j]);
        }
        // FP arithmetic goes in as dense runs (unrolled kernels).
        while (fp_arith > 0) {
            const double run_mean = std::max(1.0, profile_.fp_run_len);
            std::uint64_t run = std::min<std::uint64_t>(
                fp_arith, rng_.geometric(1.0 / run_mean));
            const std::size_t pos = rng_.uniform(classes.size() + 1);
            classes.insert(classes.begin() +
                               static_cast<std::ptrdiff_t>(pos),
                           run, OpClass::FpAdd);
            for (std::uint64_t k = 0; k < run; ++k)
                classes[pos + k] = sampleFpArith();
            fp_arith -= run;
        }

        for (OpClass cls : classes) {
            StaticOp sop;
            sop.op = cls;
            if (cls == OpClass::Branch)
                sop.inline_branch = true;
            if (isMem(cls)) {
                const auto &subset =
                    isStore(cls) ? loop_stores : loop_loads;
                sop.mem_slot = subset[rng_.uniform(subset.size())];
            }
            loop.body.push_back(sop);
            // FP accesses are split into two 32-bit halves unless the
            // double-word extension is enabled (§5.9).
            if (!profile_.double_word_mem &&
                (cls == OpClass::FpLoad || cls == OpClass::FpStore)) {
                StaticOp half = sop;
                half.second_half = true;
                loop.body.push_back(half);
            }
        }
        // Loop-back branch and its architectural delay slot.
        loop.body.push_back({OpClass::Branch, -1, false, false});
        loop.body.push_back(
            {rng_.chance(profile_.delay_nop_frac) ? OpClass::Nop
                                                  : OpClass::IntAlu,
             -1, false, false});

        // Zipf-like weights: earlier loops dominate execution time.
        loop.weight = 1.0 / std::pow(static_cast<double>(i + 1), 0.8);
        loop.mean_trips =
            profile_.mean_trips * (0.5 + rng_.uniformReal());
        mean_body += static_cast<double>(loop.body.size());

        // Footprint includes the exit stub (jump + delay slot).
        next_base +=
            static_cast<Addr>((loop.body.size() + 2) * 4);
        loops_.push_back(std::move(loop));
    }
    mean_body /= static_cast<double>(num_loops);
    for (const Loop &loop : loops_)
        loopWeights_.push_back(loop.weight);

    coldBase_ = (next_base + 63u) & ~Addr{63};
    coldBytes_ = std::max<std::uint32_t>(profile_.cold_code_bytes, 256);

    meanHotEpisodeLen_ =
        std::max(1.0, mean_body * profile_.mean_trips);

    enterHotEpisode();
}

OpClass
SyntheticWorkload::sampleOpClass()
{
    if (fpRunLeft_ > 0) {
        --fpRunLeft_;
        return sampleFpArith();
    }
    const double p = rng_.uniformReal();
    double acc = profile_.frac_load;
    if (p < acc)
        return OpClass::Load;
    acc += profile_.frac_store;
    if (p < acc)
        return OpClass::Store;
    if (profile_.floating_point) {
        acc += profile_.frac_fp_load;
        if (p < acc)
            return OpClass::FpLoad;
        acc += profile_.frac_fp_store;
        if (p < acc)
            return OpClass::FpStore;
        // FP arithmetic arrives in runs of mean fp_run_len; the
        // trigger probability is scaled down so the overall mix
        // fraction is preserved.
        const double run = std::max(1.0, profile_.fp_run_len);
        acc += profile_.frac_fp_arith / run;
        if (p < acc) {
            fpRunLeft_ = rng_.geometric(1.0 / run) - 1;
            return sampleFpArith();
        }
    }
    return OpClass::IntAlu;
}

OpClass
SyntheticWorkload::sampleFpArith()
{
    const std::size_t pick = rng_.weighted(
        {profile_.fp_add_w, profile_.fp_mul_w, profile_.fp_div_w,
         profile_.fp_cvt_w});
    OpClass op;
    switch (pick) {
      case 0: op = OpClass::FpAdd; break;
      case 1: op = OpClass::FpMul; break;
      case 2: op = OpClass::FpDiv; break;
      default: op = OpClass::FpCvt; break;
    }
    // Vector kernels interleave multiplies and adds (a*x + y): avoid
    // long same-unit runs, which neither real code nor the iterative
    // multiplier of §5.10 would tolerate.
    if (op == lastFpArith_ &&
        (op == OpClass::FpAdd || op == OpClass::FpMul) &&
        rng_.chance(0.7)) {
        op = op == OpClass::FpAdd ? OpClass::FpMul : OpClass::FpAdd;
    }
    lastFpArith_ = op;
    return op;
}

int
SyntheticWorkload::pickSlot(OpClass op)
{
    const auto &pool = isStore(op) ? storeSlotPool_ : loadSlotPool_;
    return pool[rng_.uniform(pool.size())];
}

SyntheticWorkload::MemSlot
SyntheticWorkload::makeMemSlot(bool for_store)
{
    MemSlot slot;
    const double stack_p = for_store ? profile_.store_stack_frac
                                     : profile_.stack_fraction;
    if (rng_.chance(stack_p)) {
        slot.pattern = MemPattern::Hot;
        return slot;
    }
    const double seq = profile_.seq_fraction;
    const double chase = profile_.chase_fraction;
    const double stride = std::max(0.0, 1.0 - seq - chase);
    switch (rng_.weighted({seq, chase, stride})) {
      case 0: {
        slot.pattern = MemPattern::Stream;
        const std::uint32_t window = std::min(
            profile_.stream_window_bytes, profile_.total_data_bytes);
        const std::uint64_t span =
            profile_.total_data_bytes - window + 1;
        slot.base = HEAP_BASE +
                    (static_cast<Addr>(rng_.uniform(span)) & ~Addr{7});
        slot.cursor = slot.base;
        slot.region = window;
        break;
      }
      case 1:
        slot.pattern = MemPattern::Chase;
        break;
      default: {
        slot.pattern = MemPattern::Stride;
        const std::uint32_t region =
            std::min<std::uint32_t>(profile_.stride_region_bytes,
                                    profile_.total_data_bytes);
        // Strided walks share a small pool of arrays (programs sweep
        // the same few structures), keeping the strided working set
        // bounded instead of growing with the static slot count.
        if (stridePool_.size() < 4) {
            const std::uint64_t span =
                profile_.total_data_bytes - region + 1;
            stridePool_.push_back(
                HEAP_BASE +
                (static_cast<Addr>(rng_.uniform(span)) & ~Addr{7}));
        }
        slot.base = stridePool_[rng_.uniform(stridePool_.size())];
        slot.cursor = slot.base;
        slot.region = region;
        slot.stride = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(
                8, rng_.range(
                       static_cast<std::uint64_t>(
                           profile_.stride_bytes / 2),
                       static_cast<std::uint64_t>(
                           profile_.stride_bytes * 3 / 2)))) &
            ~0x7u;
        if (slot.stride == 0)
            slot.stride = 8;
        break;
      }
    }
    return slot;
}

const Rng::ZipfShape &
SyntheticWorkload::zipfShape(bool chase, unsigned size,
                             bool is_store) const
{
    AURORA_ASSERT(size == 4 || size == 8, "access size ", size,
                  " is neither 4 nor 8");
    return zipf_[(chase ? 4 : 0) + (size == 8 ? 2 : 0) + (is_store ? 1 : 0)];
}

Addr
SyntheticWorkload::nextAddr(MemSlot &slot, unsigned size, bool is_store)
{
    switch (slot.pattern) {
      case MemPattern::Hot: {
        const std::uint64_t idx =
            rng_.zipf(zipfShape(/*chase=*/false, size, is_store));
        return STACK_TOP - profile_.hot_data_bytes +
               static_cast<Addr>(idx * size);
      }
      case MemPattern::Stream: {
        const Addr a = slot.cursor;
        slot.cursor += size;
        if (slot.cursor >= slot.base + slot.region) {
            const std::uint64_t span =
                profile_.total_data_bytes - slot.region + 1;
            slot.base =
                HEAP_BASE +
                (static_cast<Addr>(rng_.uniform(span)) & ~Addr{7});
            slot.cursor = slot.base;
        }
        return a;
      }
      case MemPattern::Stride: {
        const Addr a = slot.cursor;
        slot.cursor += slot.stride;
        if (slot.cursor >= slot.base + slot.region)
            slot.cursor = slot.base;
        return a;
      }
      case MemPattern::Chase:
      default: {
        // Two-level chase: mostly the hot node set at the front of
        // the heap, occasionally a uniform strike across the region.
        if (rng_.chance(profile_.chase_hot_frac)) {
            const std::uint64_t idx =
                rng_.zipf(zipfShape(/*chase=*/true, size, is_store));
            return HEAP_BASE + static_cast<Addr>(idx * size);
        }
        const std::uint64_t units =
            std::max<std::uint64_t>(8,
                                    profile_.total_data_bytes / size);
        return HEAP_BASE +
               static_cast<Addr>(rng_.uniform(units) * size);
      }
    }
}

void
SyntheticWorkload::assignOperands(Inst &inst, int mem_slot)
{
    auto random_int_src = [&]() -> RegIndex {
        return static_cast<RegIndex>(1 + rng_.uniform(25));
    };
    auto random_fp_src = [&]() -> RegIndex {
        return static_cast<RegIndex>(2 * rng_.uniform(FP_DST_COUNT));
    };
    auto next_int_dst = [&]() -> RegIndex {
        const auto r = static_cast<RegIndex>(
            INT_DST_BASE + dstCursor_);
        dstCursor_ = (dstCursor_ + 1) % INT_DST_COUNT;
        return r;
    };
    auto next_fp_dst = [&]() -> RegIndex {
        const auto r = static_cast<RegIndex>(2 * fdstCursor_);
        fdstCursor_ = (fdstCursor_ + 1) % FP_DST_COUNT;
        return r;
    };
    auto maybe_load_use = [&]() -> RegIndex {
        if (sinceLoad_ <= 2 && lastLoadDst_ != NO_REG &&
            rng_.chance(profile_.load_use_frac)) {
            const RegIndex r = lastLoadDst_;
            // Real code usually consumes a load value once soon
            // after the load; avoid repeated phantom uses.
            lastLoadDst_ = NO_REG;
            return r;
        }
        return NO_REG;
    };
    auto dep_src = [&]() -> RegIndex {
        if (prevDst_ != NO_REG && rng_.chance(profile_.imm_dep_frac))
            return prevDst_;
        return random_int_src();
    };

    switch (inst.op) {
      case OpClass::IntAlu:
        inst.src_a = dep_src();
        inst.src_b = maybe_load_use();
        if (inst.src_b == NO_REG && rng_.chance(0.6))
            inst.src_b = random_int_src();
        inst.dst = next_int_dst();
        prevDst_ = inst.dst;
        break;
      case OpClass::Load:
        inst.src_a = random_int_src();
        inst.dst = next_int_dst();
        prevDst_ = inst.dst;
        lastLoadDst_ = inst.dst;
        sinceLoad_ = 0;
        inst.size = 4;
        break;
      case OpClass::Store:
        inst.src_a = random_int_src();
        inst.src_b = maybe_load_use();
        if (inst.src_b == NO_REG)
            inst.src_b =
                prevDst_ != NO_REG && rng_.chance(profile_.imm_dep_frac)
                    ? prevDst_
                    : random_int_src();
        inst.size = 4;
        break;
      case OpClass::Branch:
        inst.src_a = dep_src();
        inst.src_b = maybe_load_use();
        break;
      case OpClass::Jump:
        break;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
      case OpClass::FpCvt:
        inst.fsrc_a =
            prevFdst_ != NO_REG && rng_.chance(profile_.fp_chain_frac)
                ? prevFdst_
                : random_fp_src();
        if (sinceFpLoad_ <= 4 && lastFpLoadDst_ != NO_REG &&
            rng_.chance(profile_.fp_load_use_frac)) {
            inst.fsrc_b = lastFpLoadDst_;
            lastFpLoadDst_ = NO_REG;
        } else {
            inst.fsrc_b = random_fp_src();
        }
        inst.fdst = next_fp_dst();
        prevFdst_ = inst.fdst;
        break;
      case OpClass::FpLoad:
        inst.src_a = random_int_src();
        inst.fdst = next_fp_dst();
        lastFpLoadDst_ = inst.fdst;
        sinceFpLoad_ = 0;
        inst.size = profile_.double_word_mem ? 8 : 4;
        break;
      case OpClass::FpStore:
        inst.src_a = random_int_src();
        inst.fsrc_a =
            prevFdst_ != NO_REG && rng_.chance(profile_.fp_chain_frac)
                ? prevFdst_
                : random_fp_src();
        inst.size = profile_.double_word_mem ? 8 : 4;
        break;
      case OpClass::FpMove:
      case OpClass::Nop:
      default:
        break;
    }

    if (isMem(inst.op)) {
        AURORA_ASSERT(mem_slot >= 0, "memory op without a slot");
        Addr addr = nextAddr(memSlots_[static_cast<std::size_t>(
                                 mem_slot)],
                             inst.size, isStore(inst.op));
        if (isStore(inst.op) && storesSeen_ > 0) {
            if (rng_.chance(profile_.store_burst_frac)) {
                // Continue filling the current structure/buffer.
                addr = lastStoreAddr_ + inst.size;
            } else if (rng_.chance(profile_.store_rewrite_frac)) {
                const std::size_t n = std::min<std::size_t>(
                    storesSeen_, recentStores_.size());
                addr = recentStores_[rng_.uniform(n)];
            }
        } else if (isLoad(inst.op) && storesSeen_ > 0 &&
                   rng_.chance(profile_.load_raw_frac)) {
            // Spill/reload: re-read a recently written word.
            const std::size_t n = std::min<std::size_t>(
                storesSeen_, recentStores_.size());
            addr = recentStores_[rng_.uniform(n)];
        }
        inst.eff_addr = addr & ~Addr{inst.size - 1u};
        if (isStore(inst.op)) {
            recentStores_[storeRing_] = inst.eff_addr;
            storeRing_ = (storeRing_ + 1) % recentStores_.size();
            lastStoreAddr_ = inst.eff_addr;
            ++storesSeen_;
        }
    }
}

void
SyntheticWorkload::enterHotEpisode()
{
    inHot_ = true;
    curLoop_ = rng_.weighted(loopWeights_);
    const Loop &loop = loops_[curLoop_];
    tripsLeft_ =
        std::max<std::uint64_t>(1, rng_.geometric(1.0 / loop.mean_trips));
    bodyPos_ = 0;
}

void
SyntheticWorkload::enterColdEpisode()
{
    if (profile_.hot_fraction >= 0.999) {
        enterHotEpisode();
        return;
    }
    inHot_ = false;
    // With probability 1/4 after each hot episode we take a cold
    // excursion, so size it to hold the hot/cold instruction ratio.
    const double mean_cold = meanHotEpisodeLen_ *
                             (1.0 - profile_.hot_fraction) /
                             profile_.hot_fraction / 0.25;
    coldLeft_ = std::max<std::uint64_t>(
        8, rng_.geometric(1.0 / std::max(8.0, mean_cold)));
    coldPc_ = pickColdTarget();
    runLeft_ = std::max<std::uint64_t>(
        3, rng_.geometric(1.0 / profile_.cold_run_len) + 2);
}

Addr
SyntheticWorkload::pickColdTarget()
{
    if (targetsSeeded_ && rng_.chance(profile_.cold_target_reuse))
        return recentTargets_[rng_.uniform(recentTargets_.size())];
    const Addr target =
        coldBase_ +
        static_cast<Addr>(rng_.uniform(coldBytes_ / 4) * 4);
    recentTargets_[targetRing_] = target;
    targetRing_ = (targetRing_ + 1) % recentTargets_.size();
    if (targetRing_ == 0)
        targetsSeeded_ = true;
    if (!targetsSeeded_) {
        // Until the ring fills, reuse may pick a zero slot; seed all.
        for (Addr &slot : recentTargets_)
            if (slot == 0)
                slot = target;
        targetsSeeded_ = true;
    }
    return target;
}

void
SyntheticWorkload::stepHot(Inst &inst)
{
    Loop &loop = loops_[curLoop_];
    const std::size_t n = loop.body.size();
    inst = Inst{};

    // Exit stub: jump + delay slot placed right after the body.
    if (bodyPos_ == n) {
        inst.pc = loop.base + static_cast<Addr>(4 * n);
        inst.op = OpClass::Jump;
        inst.taken = true;
        ++bodyPos_;
        return;
    }
    if (bodyPos_ == n + 1) {
        inst.pc = loop.base + static_cast<Addr>(4 * (n + 1));
        inst.op = rng_.chance(profile_.delay_nop_frac)
                      ? OpClass::Nop
                      : OpClass::IntAlu;
        if (inst.op == OpClass::IntAlu)
            assignOperands(inst, -1);
        // Episode boundary: choose the next episode.
        if (rng_.chance(0.25))
            enterColdEpisode();
        else
            enterHotEpisode();
        return;
    }

    const StaticOp &sop = loop.body[bodyPos_];
    inst.pc = loop.base + static_cast<Addr>(4 * bodyPos_);
    inst.op = sop.op;

    if (bodyPos_ == n - 2) {
        // Loop-back conditional branch.
        AURORA_ASSERT(inst.op == OpClass::Branch,
                      "loop body must end with branch + delay slot");
        inst.taken = tripsLeft_ > 1;
        assignOperands(inst, -1);
        ++bodyPos_;
        return;
    }
    if (bodyPos_ == n - 1) {
        // Loop-back delay slot.
        if (inst.op == OpClass::IntAlu)
            assignOperands(inst, -1);
        if (tripsLeft_ > 1) {
            --tripsLeft_;
            bodyPos_ = 0;
        } else {
            tripsLeft_ = 0;
            ++bodyPos_; // fall into the exit stub
        }
        return;
    }

    if (sop.inline_branch) {
        inst.taken = false;
        assignOperands(inst, -1);
    } else if (sop.second_half) {
        // Second 32-bit half of an FP load/store pair: the address is
        // the odd word of the same double.
        assignOperands(inst, sop.mem_slot);
        inst.eff_addr = lastFpPairAddr_ + 4;
    } else {
        assignOperands(inst, sop.mem_slot);
        if (!profile_.double_word_mem &&
            (inst.op == OpClass::FpLoad || inst.op == OpClass::FpStore))
            lastFpPairAddr_ = inst.eff_addr;
    }
    ++bodyPos_;
}

void
SyntheticWorkload::stepCold(Inst &inst)
{
    inst = Inst{};
    inst.pc = coldPc_;

    if (runLeft_ == 2) {
        inst.op = OpClass::Branch;
        inst.taken = true;
        assignOperands(inst, -1);
        coldBranchTarget_ = pickColdTarget();
    } else if (runLeft_ == 1) {
        inst.op = rng_.chance(profile_.delay_nop_frac)
                      ? OpClass::Nop
                      : OpClass::IntAlu;
        if (inst.op == OpClass::IntAlu)
            assignOperands(inst, -1);
    } else {
        inst.op = sampleOpClass();
        // Cold FP pairs are not expanded; keep cold code simple.
        int slot = -1;
        if (isMem(inst.op))
            slot = pickSlot(inst.op);
        assignOperands(inst, slot);
    }

    // Advance the walk. Episode transitions happen only at run
    // boundaries so a branch/delay-slot pair is never split.
    bool run_ended = false;
    if (runLeft_ == 1) {
        coldPc_ = coldBranchTarget_;
        runLeft_ = std::max<std::uint64_t>(
            3, rng_.geometric(1.0 / profile_.cold_run_len) + 2);
        run_ended = true;
    } else {
        --runLeft_;
        coldPc_ = coldBase_ +
                  ((coldPc_ + 4 - coldBase_) % coldBytes_);
    }

    if (coldLeft_ > 0)
        --coldLeft_;
    if (coldLeft_ == 0 && run_ended)
        enterHotEpisode();
}

void
SyntheticWorkload::produceRaw(Inst &out)
{
    ++sinceLoad_;
    ++sinceFpLoad_;
    if (inHot_)
        stepHot(out);
    else
        stepCold(out);
}

bool
SyntheticWorkload::next(Inst &out)
{
    fill(std::span(&out, 1));
    return true;
}

void
SyntheticWorkload::fill(std::span<Inst> out)
{
    if (out.empty())
        return;
    // One instruction of lookahead patches each record's next_pc.
    // Records are produced in place: a produced copy, read back at
    // once, would stall on store forwarding.
    if (!havePending_) {
        produceRaw(pending_);
        havePending_ = true;
    }
    out[0] = pending_;
    for (std::size_t i = 1; i < out.size(); ++i) {
        produceRaw(out[i]);
        out[i - 1].next_pc = out[i].pc;
    }
    produceRaw(pending_);
    out.back().next_pc = pending_.pc;
    produced_ += out.size();
}

} // namespace aurora::trace
