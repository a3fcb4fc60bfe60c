/**
 * @file
 * Bitvector-to-CNF lowering (Tseitin encoding with structural gate
 * hashing). One BitBlaster wraps one SatSolver instance; constraints
 * are asserted with assertTrue() and, after a Sat result, models are
 * read back per symbolic variable with modelValue().
 */

#ifndef S2E_SOLVER_BITBLAST_HH
#define S2E_SOLVER_BITBLAST_HH

#include <unordered_map>
#include <vector>

#include "expr/expr.hh"
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

    /** Bits of e, LSB first; cached per expression node. */
    const std::vector<Lit> &blast(ExprRef e);

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

    /** After SatResult::Sat: concrete value of a Variable expression. */
    uint64_t modelValue(ExprRef var) const;

    /** All symbolic variables seen while blasting (id -> SAT bits). */
    const std::unordered_map<uint64_t, std::vector<Lit>> &varBits() const
    {
        return varBits_;
    }

    uint64_t numGates() const { return gates_; }

  private:
    Lit constLit(bool b) { return b ? litTrue_ : sat::litNot(litTrue_); }
    bool isConstLit(Lit l) const
    {
        return sat::litVar(l) == sat::litVar(litTrue_);
    }
    bool constLitValue(Lit l) const { return l == litTrue_; }

    Lit freshLit();
    Lit mkAnd(Lit a, Lit b);
    Lit mkOr(Lit a, Lit b);
    Lit mkXor(Lit a, Lit b);
    Lit mkMux(Lit c, Lit t, Lit f);
    Lit mkMaj(Lit a, Lit b, Lit c); ///< carry function

    std::vector<Lit> addBits(const std::vector<Lit> &a,
                             const std::vector<Lit> &b, Lit carry_in);
    std::vector<Lit> negBits(const std::vector<Lit> &a);
    std::vector<Lit> mulBits(const std::vector<Lit> &a,
                             const std::vector<Lit> &b);
    /** Restoring division; quotient and remainder outputs. */
    void divremBits(const std::vector<Lit> &a, const std::vector<Lit> &b,
                    std::vector<Lit> &quot, std::vector<Lit> &rem);
    std::vector<Lit> shiftBits(const std::vector<Lit> &a,
                               const std::vector<Lit> &amount,
                               expr::Kind kind);
    Lit ultBits(const std::vector<Lit> &a, const std::vector<Lit> &b);
    Lit eqBits(const std::vector<Lit> &a, const std::vector<Lit> &b);
    std::vector<Lit> muxBits(Lit c, const std::vector<Lit> &t,
                             const std::vector<Lit> &f);

    const std::vector<Lit> &blastRec(ExprRef e);

    SatSolver &sat_;
    Lit litTrue_;
    std::unordered_map<ExprRef, std::vector<Lit>> cache_;
    std::unordered_map<uint64_t, std::vector<Lit>> varBits_;
    uint64_t gates_ = 0;

    struct GateKey {
        int op; ///< kEmptyOp marks a free GateTable slot
        Lit a, b, c;
        bool operator==(const GateKey &o) const = default;
    };

    /**
     * Structural gate hash: linear probing over a power-of-two array
     * of {key, output} slots, doubled above 3/4 load. Slots are never
     * removed.
     */
    class GateTable
    {
      public:
        /**
         * The output literal cached for `key`, or, if there is none, a
         * newly claimed slot holding -1 for the caller to fill in. The
         * reference stays valid until the next call.
         */
        Lit &findOrClaim(const GateKey &key);

      private:
        static constexpr int kEmptyOp = -1;
        struct Slot {
            GateKey key{kEmptyOp, 0, 0, 0};
            Lit out = -1;
        };

        static uint64_t hash(const GateKey &k);
        void grow();

        std::vector<Slot> slots_;
        size_t used_ = 0;
    };
    GateTable gateCache_;
};

} // namespace s2e::solver

#endif // S2E_SOLVER_BITBLAST_HH
