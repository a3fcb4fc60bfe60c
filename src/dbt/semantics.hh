/**
 * @file
 * The 32-bit semantics of the pure ALU micro-ops, written once.
 *
 * The vanilla executor (fastRun), the engine's concrete path and the
 * optimizer's constant propagation all evaluate Add..Sar, Not/Neg and
 * CmpEq/CmpUlt/CmpSlt through evalBinary/evalUnary, so a guest program
 * means the same thing in each. The engine's symbolic lowering
 * (core::lowerAlu) maps the same ops onto ExprBuilder; tests check
 * that the builder's constant folding at width 32 agrees with this
 * table on edge and random operands.
 *
 * Every op is total, as gisa defines it:
 *  - x / 0 is all-ones (signed and unsigned) and x % 0 is x;
 *  - INT_MIN / -1 is INT_MIN and x srem -1 is 0;
 *  - a shift by 32 or more gives 0 (Shl, Shr) or the sign fill (Sar);
 *  - comparisons give 0 or 1.
 * No input reaches undefined behaviour in C++.
 */

#ifndef S2E_DBT_SEMANTICS_HH
#define S2E_DBT_SEMANTICS_HH

#include <cstdint>

#include "dbt/ir.hh"
#include "support/logging.hh"

namespace s2e::dbt {

/**
 * The ALU micro-ops as X-macro lists: the one place that names them.
 * An executor expands them into its own switch's case labels
 * (S2E_UOP_CASE), so an ALU op costs that switch's dispatch and no
 * second one; a case that passes its constant op to evalBinary /
 * evalUnary lets the compiler fold the table's switch away.
 */
#define S2E_ALU_BINARY_UOPS(X)                                           \
    X(Add) X(Sub) X(Mul) X(UDiv) X(SDiv) X(URem) X(SRem) X(And) X(Or)   \
    X(Xor) X(Shl) X(Shr) X(Sar) X(CmpEq) X(CmpUlt) X(CmpSlt)
#define S2E_ALU_UNARY_UOPS(X) X(Not) X(Neg)
#define S2E_UOP_CASE(name) case ::s2e::dbt::UOp::name:

/** t[dst] = f(t[a], t[b]) with no side effect: the 16 binary ALU ops. */
constexpr bool
isAluBinary(UOp op)
{
    switch (op) {
      S2E_ALU_BINARY_UOPS(S2E_UOP_CASE)
        return true;
      default:
        return false;
    }
}

/** t[dst] = f(t[a]) with no side effect: Not and Neg. */
constexpr bool
isAluUnary(UOp op)
{
    switch (op) {
      S2E_ALU_UNARY_UOPS(S2E_UOP_CASE)
        return true;
      default:
        return false;
    }
}

/**
 * Value of binary ALU op @p op; @p op must satisfy isAluBinary.
 * Forced inline: GCC leaves a plain inline function out of a caller as
 * large as Engine::executeBlock, and a call per micro-op is measurable.
 */
[[gnu::always_inline]] inline uint32_t
evalBinary(UOp op, uint32_t a, uint32_t b)
{
    auto sa = static_cast<int32_t>(a);
    auto sb = static_cast<int32_t>(b);
    switch (op) {
      case UOp::Add: return a + b;
      case UOp::Sub: return a - b;
      case UOp::Mul: return a * b;
      case UOp::UDiv: return b ? a / b : 0xFFFFFFFFu;
      case UOp::SDiv:
        if (sb == 0)
            return 0xFFFFFFFFu;
        if (sb == -1)
            return 0 - a; // INT_MIN / -1 wraps to INT_MIN
        return static_cast<uint32_t>(sa / sb);
      case UOp::URem: return b ? a % b : a;
      case UOp::SRem:
        if (sb == 0)
            return a;
        if (sb == -1)
            return 0;
        return static_cast<uint32_t>(sa % sb);
      case UOp::And: return a & b;
      case UOp::Or: return a | b;
      case UOp::Xor: return a ^ b;
      case UOp::Shl: return b >= 32 ? 0 : a << b;
      case UOp::Shr: return b >= 32 ? 0 : a >> b;
      case UOp::Sar:
        return static_cast<uint32_t>(sa >> (b >= 32 ? 31 : b));
      case UOp::CmpEq: return a == b;
      case UOp::CmpUlt: return a < b;
      case UOp::CmpSlt: return sa < sb;
      default: panic("evalBinary: uop %u is not a binary ALU op",
                     static_cast<unsigned>(op));
    }
}

/** Value of unary ALU op @p op; @p op must satisfy isAluUnary. */
[[gnu::always_inline]] inline uint32_t
evalUnary(UOp op, uint32_t a)
{
    switch (op) {
      case UOp::Not: return ~a;
      case UOp::Neg: return 0 - a;
      default: panic("evalUnary: uop %u is not a unary ALU op",
                     static_cast<unsigned>(op));
    }
}

} // namespace s2e::dbt

#endif // S2E_DBT_SEMANTICS_HH
