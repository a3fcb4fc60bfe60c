/**
 * @file
 * Bitvector-to-CNF lowering (Tseitin encoding with structural gate
 * hashing). One BitBlaster wraps one SatSolver instance; constraints
 * are asserted with assertTrue() and, after a Sat result, models are
 * read back per symbolic variable with modelValue().
 */

#ifndef S2E_SOLVER_BITBLAST_HH
#define S2E_SOLVER_BITBLAST_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "expr/expr.hh"
#include "expr/nodetable.hh"
#include "solver/sat.hh"

namespace s2e::solver {

using expr::ExprRef;
using sat::Lit;
using sat::SatSolver;

/** Lowers expression DAGs into a SatSolver's clause database. */
class BitBlaster
{
  public:
    explicit BitBlaster(SatSolver &sat);

    /** Single literal for a width-1 expression. */
    Lit blastBool(ExprRef e);

    /** Assert a width-1 expression to be true. */
    void assertTrue(ExprRef e);

    /**
     * Assert `guard -> e` (clause ¬guard ∨ lit(e)). With `guard` free
     * the constraint is inert; passing `guard` as a solve() assumption
     * activates it. This is the activation-literal primitive behind
     * the incremental solver context: constraints asserted this way
     * can be selectively enabled per query while their Tseitin gates
     * stay in the clause database for reuse.
     */
    void assertImplies(Lit guard, ExprRef e);

    /** Has the Variable expression `var` been blasted here? */
    bool hasVar(ExprRef var) const { return spans_.find(var) != nullptr; }

    /** After SatResult::Sat: concrete value of a Variable expression
     *  (0 for a variable this blaster never saw). */
    uint64_t modelValue(ExprRef var) const;

    /** After SatResult::Sat: f(variable id, value) for every variable
     *  blasted here, in the order they were first blasted. */
    template <typename F>
    void
    forEachModelValue(F &&f) const
    {
        for (const auto &[id, bits] : vars_)
            f(id, valueOf(bits));
    }

    uint64_t numGates() const { return gates_; }

  private:
    /**
     * A node's bits, LSB first: `width` literals of the arena from
     * `offset` on. Spans are offsets, not pointers, so they survive
     * arena growth; read them through bit() after any call that may
     * blast or allocate.
     */
    struct Bits {
        uint32_t offset;
        uint32_t width;
    };

    Lit constLit(bool b) const { return b ? litTrue_ : sat::litNot(litTrue_); }
    bool isConstLit(Lit l) const
    {
        return sat::litVar(l) == sat::litVar(litTrue_);
    }
    bool constLitValue(Lit l) const { return l == litTrue_; }

    /** Bit i of span b. */
    Lit bit(Bits b, uint32_t i) const { return arena_[b.offset + i]; }
    Lit &bitRef(Bits b, uint32_t i) { return arena_[b.offset + i]; }
    /** A fresh span of `width` unset literals at the arena's end. */
    Bits alloc(uint32_t width);
    /** `width` copies of a constant literal, shared, never written. */
    Bits constBits(bool b, uint32_t width) const;
    uint64_t valueOf(Bits bits) const;

    Lit freshLit();
    Lit mkAnd(Lit a, Lit b);
    Lit mkOr(Lit a, Lit b);
    Lit mkXor(Lit a, Lit b);
    Lit mkMux(Lit c, Lit t, Lit f);
    Lit mkMaj(Lit a, Lit b, Lit c); ///< carry function

    Bits addBits(Bits a, Bits b, Lit carry_in);
    Bits notBits(Bits a);
    Bits negBits(Bits a);
    Bits mulBits(Bits a, Bits b);
    /** Restoring division; quotient and remainder outputs. */
    void divremBits(Bits a, Bits b, Bits &quot, Bits &rem);
    Bits shiftBits(Bits a, Bits amount, expr::Kind kind);
    Lit ultBits(Bits a, Bits b);
    Lit eqBits(Bits a, Bits b);
    Bits muxBits(Lit c, Bits t, Bits f);

    Bits blastRec(ExprRef e);
    Bits blastNode(ExprRef e);

    SatSolver &sat_;
    Lit litTrue_;
    /** Every span's literals, back to back. Starts with the two
     *  shared constant spans (see constBits). */
    std::vector<Lit> arena_;
    /** Node -> its bits. A Variable's entry is the variable's bits. */
    expr::NodeTable<Bits> spans_;
    /** (variable id, bits) in the order the variables were blasted. */
    std::vector<std::pair<uint64_t, Bits>> vars_;
    uint64_t gates_ = 0;

    /**
     * Structural gate hash: the output literal of each AND, XOR and MUX
     * gate built so far, keyed by its inputs. Linear probing over a
     * power-of-two array of 16-byte slots, grown fourfold above 3/4
     * load; slots are never removed.
     */
    class GateTable
    {
      public:
        /** Gate kinds in the key. */
        enum Op : uint32_t { kAnd = 0, kXor = 1, kMux = 2 };

        GateTable();

        /**
         * The output literal cached for the gate `op(a, b, c)` (c is
         * 0 unless op is kMux), or, if there is none, a newly claimed
         * slot holding -1 that the caller must fill in before the next
         * call. The reference stays valid until the next call.
         */
        Lit &findOrClaim(Op op, Lit a, Lit b, Lit c);

      private:
        /** `out` == -1 marks a free slot, so an all-ones fill clears
         *  the table. `opc` packs c above the two op bits. */
        struct Slot {
            Lit a, b;
            uint32_t opc;
            Lit out;
        };
        static_assert(sizeof(Slot) == 16);

        size_t slotFor(Lit a, Lit b, uint32_t opc) const;
        void allocate(size_t slots);
        void grow();

        std::unique_ptr<Slot[]> slots_;
        size_t size_ = 0; ///< power of two
        unsigned shift_ = 0; ///< 64 - log2(size_)
        size_t used_ = 0;
    };
    GateTable gateCache_;
};

} // namespace s2e::solver

#endif // S2E_SOLVER_BITBLAST_HH
