/**
 * @file
 * Dataflow framework over straight-line translation blocks.
 *
 * Everything the optimization passes (passes.hh) and the verifier
 * need to reason about a TB is derived from one table, effectsOf():
 * which temp operands a micro-op reads, whether it defines a temp,
 * which condition flag it reads or writes, and whether it has an
 * observable effect beyond temps and flags. On top of that sit three
 * reusable analyses:
 *
 *   - computeDefUse():    def-use chains for every temp;
 *   - computeLiveness():  backward liveness of temps *and* flags
 *                         (flags are live-out of every block — the
 *                         next block, an interrupt entry or an iret
 *                         may read them);
 *   - computeConstants(): forward constant propagation through temps
 *                         plus in-block register/flag values, with
 *                         folding of pure ops over constant inputs.
 *
 * All analyses are purely functional over the TB; none mutates it.
 */

#ifndef S2E_ANALYSIS_DATAFLOW_HH
#define S2E_ANALYSIS_DATAFLOW_HH

#include <optional>
#include <vector>

#include "dbt/ir.hh"

namespace s2e::analysis {

/** Number of condition flags (Z N C V). */
constexpr unsigned kNumFlags = 4;

/** Static read/write description of one micro-op. */
struct OpEffects {
    bool usesA = false;      ///< reads t[a]
    bool usesB = false;      ///< reads t[b]
    bool defsTemp = false;   ///< writes t[dst]
    int readsFlag = -1;      ///< flag id read, or -1
    int writesFlag = -1;     ///< flag id written, or -1
    /** Observable beyond temps/flags: registers, memory, I/O, path
     *  state, control flow. Ops without it are removable when their
     *  results are dead. Loads count as side-effecting: they can
     *  fault, fork on symbolic pointers and fire analyzer events. */
    bool sideEffect = false;
    bool terminator = false;
};

/** The effects table entry for `op`. */
OpEffects effectsOf(const dbt::MicroOp &op);

/** True for the eight block-ending micro-ops. */
bool isTerminator(dbt::UOp op);

// --- Def-use chains ------------------------------------------------------

struct DefUse {
    struct TempInfo {
        /** Op index of the (last) definition, -1 if never defined. */
        int def = -1;
        /** Op indexes reading the temp, in order. */
        std::vector<uint32_t> uses;
    };
    /** Indexed by temp id (size = tb.numTemps). */
    std::vector<TempInfo> temps;
};

DefUse computeDefUse(const dbt::TranslationBlock &tb);

// --- Liveness ------------------------------------------------------------

struct Liveness {
    /** Per-op: observable result or effect (dead ops are removable). */
    std::vector<bool> liveOps;
    /** SetFlag ops overwritten before any in-block read and before
     *  the terminator (the QEMU lazy-cc win). */
    size_t deadFlagWrites = 0;
    /** Pure ops whose destination temp is never needed. */
    size_t deadTempOps = 0;
};

Liveness computeLiveness(const dbt::TranslationBlock &tb);

// --- Constant propagation ------------------------------------------------

struct Constants {
    /** Per-op: constant the op provably leaves in its dst (set for
     *  already-Const ops too; passes skip those when rewriting). */
    std::vector<std::optional<uint32_t>> result;
    /** Terminator folding: a Branch whose condition is a known
     *  constant, resolved to its sole target. */
    std::optional<uint32_t> branchTarget;
};

Constants computeConstants(const dbt::TranslationBlock &tb);

} // namespace s2e::analysis

#endif // S2E_ANALYSIS_DATAFLOW_HH
