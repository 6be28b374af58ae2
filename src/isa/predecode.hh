/**
 * @file
 * The Figure 3 predecode unit.
 *
 * The Aurora III pre-decodes instructions before they enter the
 * instruction cache, so fetch and issue read a few bits instead of
 * decoding on every attempt: instructions are grouped into aligned
 * EVEN/ODD pairs, and the DI bit records whether an intra-pair true
 * dependency prohibits dual issue. The simulator does the same once
 * per trace block: predecode() writes one flags byte into every
 * record, and the IFU and the issue stage test those bits. Every
 * machine replaying a shared trace window reads the one result. This
 * module is the single source of truth for the pairing rules.
 */

#ifndef AURORA_ISA_PREDECODE_HH
#define AURORA_ISA_PREDECODE_HH

#include <cstdint>
#include <span>

#include "trace/inst.hh"

namespace aurora::isa
{

/** Bits of trace::Inst::predecoded, written by predecode(). */
enum Predecoded : std::uint8_t
{
    /** The record went through predecode() (the IFU checks it). */
    PD_VALID = 1u << 0,
    /** References data memory (trace::isMem). */
    PD_MEM = 1u << 1,
    /** Loads into the FP register file. */
    PD_FP_LOAD = 1u << 2,
    /** Stores from the FP register file. */
    PD_FP_STORE = 1u << 3,
    /** Runs on an FPU functional unit (trace::isFpArith). */
    PD_FP_ARITH = 1u << 4,
    /** Taken control flow (Inst::redirectsFetch). */
    PD_REDIRECT = 1u << 5,
    /** The ODD slot of the previous instruction's 8-byte pair. */
    PD_ODD_MATE = 1u << 6,
    /** May issue in the same cycle as the previous instruction. */
    PD_DUAL = 1u << 7,
};

/** Does @p second read a register written by @p first? */
bool trueDependency(const trace::Inst &first,
                    const trace::Inst &second);

/** Is @p even the EVEN slot of an aligned pair completed by @p odd? */
bool isAlignedPair(const trace::Inst &even, const trace::Inst &odd);

/**
 * May @p second issue in the same cycle as @p first?
 *
 * Encodes the §2 issue constraints: the two instructions must form an
 * aligned EVEN/ODD pair, must not carry a true dependency (the DI
 * bit), and only a single memory access instruction can execute per
 * cycle.
 */
bool dualIssueAllowed(const trace::Inst &first,
                      const trace::Inst &second);

/**
 * Write the predecoded flags of every record of @p block, a run of
 * consecutive dynamic instructions. @p prev is the instruction just
 * before the block in the stream, or nullptr at the trace's start;
 * the pair bits of block[0] are computed against it.
 */
void predecode(std::span<trace::Inst> block, const trace::Inst *prev);

} // namespace aurora::isa

#endif // AURORA_ISA_PREDECODE_HH
