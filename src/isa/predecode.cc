#include "predecode.hh"

#include <array>

namespace aurora::isa
{

using trace::Inst;
using trace::OpClass;

bool
trueDependency(const Inst &first, const Inst &second)
{
    // Integer result feeding an integer source. Register 0 is
    // hardwired zero on MIPS and never a real dependency.
    if (first.dst != NO_REG && first.dst != 0 &&
        (second.src_a == first.dst || second.src_b == first.dst))
        return true;
    // FP result feeding an FP source.
    if (first.fdst != NO_REG &&
        (second.fsrc_a == first.fdst || second.fsrc_b == first.fdst))
        return true;
    return false;
}

bool
isAlignedPair(const Inst &even, const Inst &odd)
{
    return (even.pc & 0x4u) == 0 && odd.pc == even.pc + 4;
}

bool
dualIssueAllowed(const Inst &first, const Inst &second)
{
    if (!isAlignedPair(first, second))
        return false;
    if (trueDependency(first, second))
        return false;
    if (trace::isMem(first.op) && trace::isMem(second.op))
        return false;
    return true;
}

namespace
{

/**
 * The flags a record's op class alone decides, indexed by the raw
 * op byte (an out-of-range op gets PD_VALID only; the issue stage
 * rejects it). PD_REDIRECT marks the control ops: predecode() keeps
 * it only for a taken one.
 */
constexpr std::array<std::uint8_t, 256> CLASS_FLAGS = [] {
    std::array<std::uint8_t, 256> table{};
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto op = static_cast<OpClass>(i);
        unsigned flags = PD_VALID;
        if (i < trace::NUM_OP_CLASSES) {
            if (trace::isMem(op))
                flags |= PD_MEM;
            if (op == OpClass::FpLoad)
                flags |= PD_FP_LOAD;
            if (op == OpClass::FpStore)
                flags |= PD_FP_STORE;
            if (trace::isFpArith(op))
                flags |= PD_FP_ARITH;
            if (trace::isControl(op))
                flags |= PD_REDIRECT;
        }
        table[i] = static_cast<std::uint8_t>(flags);
    }
    return table;
}();

[[gnu::always_inline]] inline std::uint8_t
classFlags(OpClass op)
{
    return CLASS_FLAGS[static_cast<std::uint8_t>(op)];
}

/**
 * The pair bits of @p cur against @p prev: the same rules as the
 * out-of-line definitions above, combined with bitwise operators so
 * a record costs no data-dependent branch.
 */
[[gnu::always_inline]] inline unsigned
pairFlags(const Inst &prev, const Inst &cur)
{
    const bool same_pair = (cur.pc >> 3) == (prev.pc >> 3);
    const bool odd = (cur.pc & 0x4u) != 0;
    const bool aligned = ((prev.pc & 0x4u) == 0) & (cur.pc == prev.pc + 4);
    const bool int_dep = (prev.dst != NO_REG) & (prev.dst != 0) &
                         ((cur.src_a == prev.dst) | (cur.src_b == prev.dst));
    const bool fp_dep = (prev.fdst != NO_REG) &
                        ((cur.fsrc_a == prev.fdst) |
                         (cur.fsrc_b == prev.fdst));
    const bool two_mem =
        (classFlags(prev.op) & classFlags(cur.op) & PD_MEM) != 0;
    const bool dual = aligned & !int_dep & !fp_dep & !two_mem;
    return (static_cast<unsigned>(same_pair & odd) * PD_ODD_MATE) |
           (static_cast<unsigned>(dual) * PD_DUAL);
}

/** Every bit but the pair bits. */
[[gnu::always_inline]] inline unsigned
ownFlags(const Inst &inst)
{
    return classFlags(inst.op) &
           ~(static_cast<unsigned>(!inst.taken) * PD_REDIRECT);
}

} // namespace

void
predecode(std::span<Inst> block, const Inst *prev)
{
    if (block.empty())
        return;
    block[0].predecoded = static_cast<std::uint8_t>(
        ownFlags(block[0]) | (prev ? pairFlags(*prev, block[0]) : 0u));
    for (std::size_t i = 1; i < block.size(); ++i)
        block[i].predecoded = static_cast<std::uint8_t>(
            ownFlags(block[i]) | pairFlags(block[i - 1], block[i]));
}

} // namespace aurora::isa
