/**
 * @file
 * Symbolic bitvector expression DAG.
 *
 * Expressions are immutable, hash-consed nodes owned by an ExprBuilder
 * arena; user code passes ExprRef (a plain pointer) around. Widths are
 * 1..64 bits. Boolean expressions are width-1 bitvectors.
 *
 * This replaces the KLEE expression library in the original S2E. The
 * x86-to-LLVM translation in S2E produced flag-extraction heavy
 * expressions (masks, shifts, bitfield tests); our DBT produces the
 * same shapes from gisa condition flags, which is what the §5 bitfield
 * simplifier targets.
 */

#ifndef S2E_EXPR_EXPR_HH
#define S2E_EXPR_EXPR_HH

#include <cstdint>
#include <iterator>
#include <string>

#include "support/logging.hh"

namespace s2e::expr {

/** Expression node kinds. */
enum class Kind : uint8_t {
    // Leaves
    Constant,
    Variable,

    // Arithmetic (operands and result share width)
    Add,
    Sub,
    Mul,
    UDiv,
    SDiv,
    URem,
    SRem,

    // Bitwise
    And,
    Or,
    Xor,
    Not,
    Neg,

    // Shifts (shift amount has the same width as the value)
    Shl,
    LShr,
    AShr,

    // Width changers
    Concat,  ///< kid0 = high bits, kid1 = low bits
    Extract, ///< aux0 = bit offset; node width = extracted width
    ZExt,
    SExt,

    // Comparisons (result width 1)
    Eq,
    Ult,
    Ule,
    Slt,
    Sle,

    // Ternary select: kid0 (width 1) ? kid1 : kid2
    Ite,
};

/** Human-readable kind name. */
const char *kindName(Kind kind);

/** Child operand count per kind, indexed by Kind. */
inline constexpr uint8_t kKindArity[] = {
    0, 0,                // Constant, Variable
    2, 2, 2, 2, 2, 2, 2, // Add .. SRem
    2, 2, 2, 1, 1,       // And, Or, Xor, Not, Neg
    2, 2, 2,             // Shl, LShr, AShr
    2, 1, 1, 1,          // Concat, Extract, ZExt, SExt
    2, 2, 2, 2, 2,       // Eq .. Sle
    3,                   // Ite
};
static_assert(std::size(kKindArity) == static_cast<size_t>(Kind::Ite) + 1);

/** Number of child operands for a kind. */
inline unsigned
kindArity(Kind kind)
{
    return kKindArity[static_cast<size_t>(kind)];
}

class Expr;
using ExprRef = const Expr *;

/**
 * One immutable expression node. Construction goes through ExprBuilder
 * only, which guarantees structural uniqueness: two ExprRef compare
 * equal iff the expressions are structurally identical.
 */
class Expr
{
  public:
    Kind kind() const { return kind_; }
    unsigned width() const { return width_; }

    bool isConstant() const { return kind_ == Kind::Constant; }
    bool isVariable() const { return kind_ == Kind::Variable; }

    /** True if this is the width-1 constant 1 / 0. */
    bool
    isTrue() const
    {
        return isConstant() && width_ == 1 && leaf_.value == 1;
    }
    bool
    isFalse() const
    {
        return isConstant() && width_ == 1 && leaf_.value == 0;
    }

    /** Constant value (valid only for Constant nodes). */
    uint64_t
    value() const
    {
        S2E_ASSERT(isConstant(), "value() on non-constant");
        return leaf_.value;
    }

    /** Variable id / name (valid only for Variable nodes). */
    uint64_t
    varId() const
    {
        S2E_ASSERT(isVariable(), "varId() on non-variable");
        return leaf_.value;
    }
    const std::string &name() const;

    /** Extract offset, ZExt/SExt target width is width(). */
    unsigned
    aux() const
    {
        return aux_;
    }

    unsigned arity() const { return kindArity(kind_); }

    ExprRef
    kid(unsigned i) const
    {
        S2E_ASSERT(i < arity(), "kid index %u out of range", i);
        return kids_[i];
    }

    /** Stable hash computed at construction (the builder's 32-bit
     *  intern tag). */
    uint64_t hash() const { return hash_; }

    /** Total node count of the DAG rooted here (shared nodes counted once). */
    size_t nodeCount() const;

    /** Render as an s-expression, e.g. (add w32 x (const w32 4)). */
    std::string toString() const;

  private:
    friend class ExprBuilder;
    Expr() = default;

    /** Payload of a Constant or Variable node. */
    struct Leaf {
        uint64_t value;           ///< constant value, or variable id
        const std::string *name;  ///< variable name (interned), or null
    };

    // 32 bytes in all: the hash-consed store of a long symbolic run is
    // mostly nodes, so their size is the run's memory traffic.
    Kind kind_ = Kind::Constant;
    uint8_t width_ = 0; ///< 1..64
    uint8_t aux_ = 0;   ///< extract offset, 0..63
    uint32_t hash_ = 0;
    // Leaves have no kids and inner nodes no value, so the two share
    // storage; kind_ says which member is live.
    union {
        ExprRef kids_[3] = {nullptr, nullptr, nullptr}; ///< unused are null
        Leaf leaf_;
    };
};

static_assert(sizeof(Expr) == 32, "Expr nodes are 32 bytes");

} // namespace s2e::expr

#endif // S2E_EXPR_EXPR_HH
