#include "predecode.hh"

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

void
predecode(std::span<Inst> block, const Inst *prev)
{
    for (Inst &inst : block) {
        std::uint8_t flags = PD_VALID;
        if (trace::isMem(inst.op))
            flags |= PD_MEM;
        if (inst.op == OpClass::FpLoad)
            flags |= PD_FP_LOAD;
        if (inst.op == OpClass::FpStore)
            flags |= PD_FP_STORE;
        if (trace::isFpArith(inst.op))
            flags |= PD_FP_ARITH;
        if (inst.redirectsFetch())
            flags |= PD_REDIRECT;
        if (prev) {
            // The fetch-group rule: the second instruction of a group
            // must sit in the ODD slot of the first one's 8-byte pair.
            if ((inst.pc >> 3) == (prev->pc >> 3) && (inst.pc & 0x4u))
                flags |= PD_ODD_MATE;
            if (dualIssueAllowed(*prev, inst))
                flags |= PD_DUAL;
        }
        inst.predecoded = flags;
        prev = &inst;
    }
}

} // namespace aurora::isa
