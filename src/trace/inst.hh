/**
 * @file
 * The dynamic instruction record consumed by the cycle simulator.
 *
 * A trace is an in-order stream of Inst records, exactly what the
 * original study drove its simulator with. Branch outcomes are part of
 * the record (trace-driven machines never mispredict), so the pipeline
 * model charges only structural fetch effects: I-cache misses and, when
 * branch folding is disabled, the taken-branch bubble.
 */

#ifndef AURORA_TRACE_INST_HH
#define AURORA_TRACE_INST_HH

#include "op_class.hh"
#include "util/types.hh"

namespace aurora::trace
{

/** One dynamic instruction. */
struct Inst
{
    /** Program counter of this instruction. */
    Addr pc = 0;
    /** PC of the dynamically following instruction. */
    Addr next_pc = 0;
    /** Effective byte address for memory operations, else 0. */
    Addr eff_addr = 0;
    /** Operation class. */
    OpClass op = OpClass::Nop;
    /** Integer source registers; NO_REG when absent. */
    RegIndex src_a = NO_REG;
    RegIndex src_b = NO_REG;
    /** Integer destination register; NO_REG when absent. */
    RegIndex dst = NO_REG;
    /** FP source registers; NO_REG when absent. */
    RegIndex fsrc_a = NO_REG;
    RegIndex fsrc_b = NO_REG;
    /** FP destination register; NO_REG when absent. */
    RegIndex fdst = NO_REG;
    /** Access size in bytes for memory operations (4 or 8). */
    std::uint8_t size = 0;
    /** Taken flag for control-flow instructions. */
    bool taken = false;
    /**
     * Figure 3 predecode flags (isa::Predecoded bits), written by
     * isa::predecode() once per trace block; 0 until then. They live
     * in what would otherwise be padding.
     */
    std::uint8_t predecoded = 0;

    /** True when control flow leaves the fall-through path. */
    bool
    redirectsFetch() const
    {
        return isControl(op) && taken;
    }
};

static_assert(sizeof(Inst) == 24,
              "predecode flags must fit in Inst's padding");

} // namespace aurora::trace

#endif // AURORA_TRACE_INST_HH
