/**
 * @file
 * CDCL SAT solver: two-watched-literal propagation, VSIDS decision
 * heuristic with an indexed binary heap, first-UIP clause learning,
 * phase saving, Luby restarts and learnt-clause reduction.
 *
 * This is the decision procedure underneath the bitvector bit-blaster
 * (bitblast.hh); together they replace the STP solver the original
 * S2E inherited from KLEE.
 */

#ifndef S2E_SOLVER_SAT_HH
#define S2E_SOLVER_SAT_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "support/stats.hh"

namespace s2e::sat {

using Var = int32_t;
using Lit = int32_t; ///< 2*var + (negated ? 1 : 0)

inline Lit
mkLit(Var v, bool neg = false)
{
    return v * 2 + (neg ? 1 : 0);
}
inline Var
litVar(Lit l)
{
    return l >> 1;
}
inline bool
litNeg(Lit l)
{
    return l & 1;
}
inline Lit
litNot(Lit l)
{
    return l ^ 1;
}

/** Three-valued assignment. */
enum class LBool : int8_t { False = 0, True = 1, Undef = 2 };

inline LBool
lboolFrom(bool b)
{
    return b ? LBool::True : LBool::False;
}
inline LBool
lboolNot(LBool v)
{
    switch (v) {
      case LBool::False: return LBool::True;
      case LBool::True: return LBool::False;
      default: return LBool::Undef;
    }
}

/** Result of a solve() call. */
enum class SatResult { Sat, Unsat, Unknown };

/**
 * Per-call resource budget. Negative fields mean unlimited. The
 * wall-clock deadline is checked inside the CDCL loop every few
 * conflicts (and periodically between decisions), so a runaway query
 * returns Unknown within microseconds of the deadline instead of
 * blocking the whole-system run.
 */
struct QueryBudget {
    int64_t maxConflicts = -1; ///< conflicts allowed in this call
    int64_t maxMicros = -1;    ///< wall-clock budget in microseconds

    bool unlimited() const { return maxConflicts < 0 && maxMicros < 0; }

    /**
     * Budget for a retry pass: every finite limit is multiplied,
     * saturating at INT64_MAX. Saturation matters: a wrapped negative
     * limit would read as "unlimited", silently discarding the budget
     * exactly on the escalation path that exists to bound retries.
     */
    QueryBudget
    escalated(double multiplier) const
    {
        QueryBudget b;
        if (maxConflicts >= 0)
            b.maxConflicts = scaleSaturating(maxConflicts, multiplier);
        if (maxMicros >= 0)
            b.maxMicros = scaleSaturating(maxMicros, multiplier);
        return b;
    }

    static int64_t
    scaleSaturating(int64_t limit, double multiplier)
    {
        constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
        double scaled = static_cast<double>(limit) * multiplier;
        // Casting a double >= 2^63 to int64_t is UB; 2^63 is exactly
        // representable, so `scaled < 2^63` is the safe-cast test (it
        // also rejects NaN, which must saturate rather than wrap).
        if (!(scaled < static_cast<double>(kMax)))
            return kMax;
        int64_t s = static_cast<int64_t>(scaled);
        return s < kMax ? s + 1 : kMax;
    }
};

/**
 * The solver. Variables are created with newVar(); clauses reference
 * them by literal. A solved instance exposes the model via value().
 */
class SatSolver
{
  public:
    SatSolver();
    ~SatSolver();
    SatSolver(const SatSolver &) = delete;
    SatSolver &operator=(const SatSolver &) = delete;

    /** Allocate a fresh variable; returns its index. */
    Var newVar();

    int numVars() const { return static_cast<int>(assigns_.size()); }

    /**
     * Add a clause (disjunction of literals). Returns false if the
     * formula is already trivially unsatisfiable. The short overloads
     * normalize their literals in a stack buffer, the vector overload
     * in a reused scratch vector; all four build the same clause.
     */
    bool addClause(const std::vector<Lit> &lits);
    bool
    addClause(Lit a)
    {
        Lit lits[] = {a};
        return addClauseInPlace(lits, 1);
    }
    bool
    addClause(Lit a, Lit b)
    {
        Lit lits[] = {a, b};
        return addClauseInPlace(lits, 2);
    }
    bool
    addClause(Lit a, Lit b, Lit c)
    {
        Lit lits[] = {a, b, c};
        return addClauseInPlace(lits, 3);
    }

    /**
     * Solve under the given assumptions and budget. On budget
     * exhaustion returns Unknown; the solver keeps its learnt clauses,
     * so calling solve() again with a larger budget resumes the proof
     * rather than restarting it (retry-with-escalated-budget).
     */
    SatResult solve(const std::vector<Lit> &assumptions,
                    const QueryBudget &budget);

    /** Convenience overload: conflict budget only (<0 = unlimited). */
    SatResult
    solve(const std::vector<Lit> &assumptions = {},
          int64_t maxConflicts = -1)
    {
        return solve(assumptions, QueryBudget{maxConflicts, -1});
    }

    /** Did the last solve() stop on the wall-clock deadline (as
     *  opposed to the conflict budget)? Valid after an Unknown. */
    bool lastStopWasDeadline() const { return lastStopDeadline_; }

    /** Model value of a variable after a Sat result. */
    LBool value(Var v) const { return model_[v]; }
    bool modelTrue(Lit l) const
    {
        LBool v = model_[litVar(l)];
        return litNeg(l) ? v == LBool::False : v == LBool::True;
    }

    /** True once the clause database is known unsatisfiable. */
    bool inConflict() const { return !ok_; }

    /** Invariant check: does the last model satisfy every original
     *  clause? (Debug aid; O(clauses).) */
    bool verifyModel() const;

    uint64_t numConflicts() const { return conflicts_; }
    uint64_t numDecisions() const { return decisions_; }
    uint64_t numPropagations() const { return propagations_; }
    size_t numClauses() const { return clauses_.size(); }
    size_t numLearnts() const { return learnts_.size(); }

  private:
    /**
     * A clause is one block: this header, then `size` literals. The
     * first two literals are the watched ones.
     */
    struct Clause {
        float activity;
        uint32_t learnt : 1;
        uint32_t size : 31;

        Lit *begin() { return reinterpret_cast<Lit *>(this + 1); }
        Lit *end() { return begin() + size; }
        const Lit *begin() const
        {
            return reinterpret_cast<const Lit *>(this + 1);
        }
        const Lit *end() const { return begin() + size; }
        Lit &operator[](size_t i) { return begin()[i]; }

        static size_t
        bytes(size_t n)
        {
            return sizeof(Clause) + n * sizeof(Lit);
        }
    };

    /**
     * Bump allocator for blocks that live as long as the solver:
     * problem clauses, and the arrays watch lists outgrow. Chunks grow
     * from 4 KiB to 64 KiB and are freed together. Chunks start
     * max-aligned and a caller asks only for multiples of the
     * alignment it needs, so one arena serves one kind of block.
     */
    class Arena
    {
      public:
        void *allocate(size_t bytes);

      private:
        std::vector<std::unique_ptr<std::byte[]>> chunks_;
        std::byte *next_ = nullptr;
        size_t left_ = 0;
    };

    struct Watcher {
        Clause *clause;
        Lit blocker;
    };

    /**
     * One literal's watch list: the first kInline watchers are stored
     * in place, beyond that the list moves to an array from the
     * WatchTable's arena that doubles (the outgrown array stays in
     * the arena until the solver goes). Watcher order follows from the
     * operations alone, never from the capacity, so kInline cannot
     * change the search.
     *
     * The list is trivially copyable and owns nothing, so the
     * WatchTable relocates it as bytes.
     */
    class WatchList
    {
      public:
        static constexpr uint32_t kInline = 4;

        /** An empty list. The inline watchers stay unwritten. */
        void
        init()
        {
            size_ = 0;
            cap_ = kInline;
        }
        size_t size() const { return size_; }
        Watcher *data() { return cap_ > kInline ? heap_ : inline_; }
        Watcher &operator[](size_t i) { return data()[i]; }
        Watcher &back() { return data()[size_ - 1]; }
        void
        push_back(const Watcher &w, Arena &spill)
        {
            if (size_ == cap_)
                grow(spill);
            data()[size_++] = w;
        }
        void pop_back() { size_--; }
        /** Drop every watcher from index n on (n <= size()). */
        void truncate(size_t n) { size_ = static_cast<uint32_t>(n); }

      private:
        void grow(Arena &spill);

        uint32_t size_;
        uint32_t cap_;
        union {
            Watcher inline_[kInline];
            Watcher *heap_;
        };
    };
    static_assert(std::is_trivially_copyable_v<WatchList>,
                  "WatchTable relocates lists as bytes");

    /**
     * The watch lists, indexed by literal, in one block that grows by
     * doubling, and the arena their outgrown arrays come from. Growing
     * moves the lists as bytes (one realloc), not one by one.
     */
    class WatchTable
    {
      public:
        WatchTable() = default;
        WatchTable(const WatchTable &) = delete;
        WatchTable &operator=(const WatchTable &) = delete;
        ~WatchTable();

        WatchList &operator[](Lit l) { return lists_[l]; }
        void push(Lit l, const Watcher &w) { lists_[l].push_back(w, spill_); }
        /** Append two empty lists: a new variable's two literals. */
        void addVar();

      private:
        Arena spill_;
        WatchList *lists_ = nullptr;
        size_t size_ = 0;
        size_t cap_ = 0;
    };

    LBool litValue(Lit l) const
    {
        LBool v = assigns_[litVar(l)];
        return litNeg(l) ? lboolNot(v) : v;
    }

    int decisionLevel() const { return static_cast<int>(trailLim_.size()); }

    bool addClauseInPlace(Lit *lits, size_t n);
    /** Construct a clause over lits[0, n) in the block at mem, which
     *  holds Clause::bytes(n). */
    static Clause *newClause(void *mem, const Lit *lits, size_t n,
                             bool learnt);
    void attachClause(Clause *c);
    void enqueue(Lit l, Clause *reason);
    Clause *propagate();
    void analyze(Clause *conflict, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    void cancelUntil(int level);
    Lit pickBranchLit();
    void bumpVarActivity(Var v);
    void bumpClauseActivity(Clause *c);
    void decayActivities();
    void reduceDB();
    static int64_t lubyWindow(uint64_t restarts);

    // Indexed max-heap over variable activity.
    void heapInsert(Var v);
    void heapUpdate(Var v);
    Var heapPopMax();
    bool heapEmpty() const { return heap_.empty(); }
    void heapSiftUp(int i);
    void heapSiftDown(int i);

    bool ok_ = true;
    Arena arena_;                     ///< storage of clauses_
    std::vector<Clause *> clauses_;   ///< problem clauses
    std::vector<Clause *> learnts_;   ///< one operator new block each
    WatchTable watches_;              ///< indexed by Lit
    std::vector<LBool> assigns_;
    std::vector<LBool> model_; ///< snapshot of assigns_ at last Sat
    std::vector<bool> phase_;  ///< saved phases
    std::vector<Clause *> reason_;
    std::vector<int> level_;
    std::vector<Lit> trail_;
    std::vector<int> trailLim_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    double varInc_ = 1.0;
    double claInc_ = 1.0;
    std::vector<int> heap_;    ///< heap of vars
    std::vector<int> heapPos_; ///< var -> heap index, -1 if absent

    std::vector<uint8_t> seen_; ///< scratch for analyze()
    std::vector<Var> marked_;   ///< scratch for analyze()
    std::vector<Lit> learnt_;   ///< scratch: the clause analyze() learns
    std::vector<Lit> addTmp_;   ///< scratch for addClause(vector)

    uint64_t conflicts_ = 0;
    uint64_t decisions_ = 0;
    uint64_t propagations_ = 0;
    bool lastStopDeadline_ = false;
};

} // namespace s2e::sat

#endif // S2E_SOLVER_SAT_HH
