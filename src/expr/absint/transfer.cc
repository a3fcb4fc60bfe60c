#include "expr/absint/transfer.hh"

#include <algorithm>
#include <optional>

namespace s2e::expr::absint {

namespace {

using u128 = unsigned __int128;
using i128 = __int128;

/** Known-bits ripple-carry addition with an explicit carry-in; bits
 *  are known up to the first position where the carry is uncertain.
 *  Subtraction reuses this as a + ~b + 1. */
KnownBits
knownAddCarry(const KnownBits &a, const KnownBits &b, unsigned carry_in,
              unsigned width)
{
    KnownBits out;
    unsigned carry = carry_in;
    for (unsigned i = 0; i < width; ++i) {
        bool a_known = ((a.zeros | a.ones) >> i) & 1;
        bool b_known = ((b.zeros | b.ones) >> i) & 1;
        if (!a_known || !b_known)
            break;
        unsigned abit = (a.ones >> i) & 1;
        unsigned bbit = (b.ones >> i) & 1;
        unsigned sum = abit + bbit + carry;
        if (sum & 1)
            out.ones |= 1ULL << i;
        else
            out.zeros |= 1ULL << i;
        carry = sum >> 1;
    }
    return out;
}

KnownBits
knownNot(const KnownBits &a, unsigned width)
{
    return {a.ones & lowMask(width), a.zeros & lowMask(width)};
}

/** Number of low bits known to be zero (trailing-zero count of the
 *  abstract value; width-capped). */
unsigned
knownTrailingZeros(const AbsValue &a)
{
    uint64_t not_zero = ~a.kb.zeros & lowMask(a.width);
    if (not_zero == 0)
        return a.width;
    return std::min<unsigned>(a.width, __builtin_ctzll(not_zero));
}

AbsValue
transferAdd(const AbsValue &a, const AbsValue &b, unsigned w)
{
    AbsValue v = AbsValue::bits(knownAddCarry(a.kb, b.kb, 0, w), w);
    if (static_cast<u128>(a.umax) + b.umax <= lowMask(w)) {
        v.umin = std::max(v.umin, a.umin + b.umin);
        v.umax = std::min(v.umax, a.umax + b.umax);
    }
    i128 slo = static_cast<i128>(a.smin) + b.smin;
    i128 shi = static_cast<i128>(a.smax) + b.smax;
    if (slo >= -(static_cast<i128>(1) << (w - 1)) &&
        shi <= (static_cast<i128>(1) << (w - 1)) - 1) {
        v.smin = std::max<int64_t>(v.smin, static_cast<int64_t>(slo));
        v.smax = std::min<int64_t>(v.smax, static_cast<int64_t>(shi));
    }
    v.reduce();
    return v;
}

AbsValue
transferSub(const AbsValue &a, const AbsValue &b, unsigned w)
{
    AbsValue v =
        AbsValue::bits(knownAddCarry(a.kb, knownNot(b.kb, w), 1, w), w);
    if (a.umin >= b.umax) { // no pair wraps
        v.umin = std::max(v.umin, a.umin - b.umax);
        v.umax = std::min(v.umax, a.umax - b.umin);
    }
    i128 slo = static_cast<i128>(a.smin) - b.smax;
    i128 shi = static_cast<i128>(a.smax) - b.smin;
    if (slo >= -(static_cast<i128>(1) << (w - 1)) &&
        shi <= (static_cast<i128>(1) << (w - 1)) - 1) {
        v.smin = std::max<int64_t>(v.smin, static_cast<int64_t>(slo));
        v.smax = std::min<int64_t>(v.smax, static_cast<int64_t>(shi));
    }
    v.reduce();
    return v;
}

AbsValue
transferMul(const AbsValue &a, const AbsValue &b, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    unsigned tz = knownTrailingZeros(a) + knownTrailingZeros(b);
    v.kb.zeros = lowMask(std::min(tz, w));
    if (static_cast<u128>(a.umax) * b.umax <= lowMask(w)) {
        v.umin = a.umin * b.umin;
        v.umax = a.umax * b.umax;
    }
    v.reduce();
    return v;
}

AbsValue
transferUDiv(const AbsValue &a, const AbsValue &b, unsigned w)
{
    uint64_t mask = lowMask(w);
    if (b.umax == 0) // divisor is always zero: total semantics say ~0
        return AbsValue::constant(mask, w);
    uint64_t lo = a.umin / b.umax;
    uint64_t hi = b.umin == 0 ? mask : a.umax / b.umin;
    return AbsValue::range(lo, hi, w);
}

AbsValue
transferURem(const AbsValue &a, const AbsValue &b, unsigned w)
{
    if (b.umax == 0) // x % 0 == x
        return AbsValue::range(a.umin, a.umax, w);
    AbsValue v = AbsValue::range(0, std::min(a.umax, b.umax - 1), w);
    if (b.umin == 0) // divisor may be zero: join in x itself
        v = v.join(AbsValue::range(a.umin, a.umax, w));
    return v;
}

AbsValue
transferAnd(const AbsValue &a, const AbsValue &b, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    v.kb.ones = a.kb.ones & b.kb.ones;
    v.kb.zeros = (a.kb.zeros | b.kb.zeros) & lowMask(w);
    v.umax = std::min(a.umax, b.umax); // x & y <= min(x, y)
    v.reduce();
    return v;
}

AbsValue
transferOr(const AbsValue &a, const AbsValue &b, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    v.kb.ones = a.kb.ones | b.kb.ones;
    v.kb.zeros = a.kb.zeros & b.kb.zeros;
    v.umin = std::max(a.umin, b.umin); // x | y >= max(x, y)
    u128 hi = static_cast<u128>(a.umax) + b.umax; // x | y <= x + y
    v.umax = hi > lowMask(w) ? lowMask(w) : static_cast<uint64_t>(hi);
    v.reduce();
    return v;
}

AbsValue
transferXor(const AbsValue &a, const AbsValue &b, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    uint64_t both = (a.kb.zeros | a.kb.ones) & (b.kb.zeros | b.kb.ones);
    uint64_t x = a.kb.ones ^ b.kb.ones;
    v.kb.ones = x & both;
    v.kb.zeros = ~x & both & lowMask(w);
    u128 hi = static_cast<u128>(a.umax) + b.umax; // x ^ y <= x + y
    v.umax = hi > lowMask(w) ? lowMask(w) : static_cast<uint64_t>(hi);
    v.reduce();
    return v;
}

AbsValue
transferNot(const AbsValue &a, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    v.kb = knownNot(a.kb, w);
    v.umin = lowMask(w) - a.umax;
    v.umax = lowMask(w) - a.umin;
    v.reduce();
    return v;
}

AbsValue
transferNeg(const AbsValue &a, unsigned w)
{
    AbsValue v = AbsValue::bits(
        knownAddCarry(KnownBits::constant(0, w), knownNot(a.kb, w), 1, w),
        w);
    if (a.umin > 0) { // 0 excluded: -x == 2^w - x, monotone reversed
        uint64_t modulus_minus = lowMask(w); // 2^w - 1
        v.umin = std::max(v.umin, modulus_minus - a.umax + 1);
        v.umax = std::min(v.umax, modulus_minus - a.umin + 1);
    } else if (a.umax == 0) {
        v = AbsValue::constant(0, w);
    }
    v.reduce();
    return v;
}

AbsValue
transferShl(const AbsValue &a, const AbsValue &b, unsigned w)
{
    if (b.umin >= w)
        return AbsValue::constant(0, w);
    if (!b.isConstant())
        return AbsValue::top(w);
    unsigned s = static_cast<unsigned>(b.constantValue());
    AbsValue v = AbsValue::top(w);
    v.kb.ones = (a.kb.ones << s) & lowMask(w);
    v.kb.zeros = ((a.kb.zeros << s) | lowMask(s)) & lowMask(w);
    if ((static_cast<u128>(a.umax) << s) <= lowMask(w)) {
        v.umin = a.umin << s;
        v.umax = a.umax << s;
    }
    v.reduce();
    return v;
}

AbsValue
transferLShr(const AbsValue &a, const AbsValue &b, unsigned w)
{
    if (b.umin >= w)
        return AbsValue::constant(0, w);
    if (!b.isConstant())
        return AbsValue::top(w);
    unsigned s = static_cast<unsigned>(b.constantValue());
    AbsValue v = AbsValue::top(w);
    uint64_t mask = lowMask(w);
    v.kb.ones = a.kb.ones >> s;
    v.kb.zeros = ((a.kb.zeros >> s) | (~(mask >> s) & mask)) & mask;
    v.umin = a.umin >> s;
    v.umax = a.umax >> s;
    v.reduce();
    return v;
}

AbsValue
transferAShr(const AbsValue &a, const AbsValue &b, unsigned w)
{
    if (!b.isConstant())
        return AbsValue::top(w);
    unsigned s = static_cast<unsigned>(
        std::min<uint64_t>(b.constantValue(), w - 1));
    AbsValue v = AbsValue::top(w);
    uint64_t mask = lowMask(w);
    v.kb.ones = a.kb.ones >> s;
    v.kb.zeros = (a.kb.zeros >> s) & mask;
    uint64_t fill = ~(mask >> s) & mask;
    if ((a.kb.ones >> (w - 1)) & 1)
        v.kb.ones |= fill;
    else if ((a.kb.zeros >> (w - 1)) & 1)
        v.kb.zeros |= fill;
    v.smin = a.smin >> s; // C++20: arithmetic shift on signed
    v.smax = a.smax >> s;
    v.reduce();
    return v;
}

AbsValue
transferConcat(const AbsValue &hi, const AbsValue &lo, unsigned w)
{
    unsigned lw = lo.width;
    AbsValue v = AbsValue::top(w);
    v.kb.ones = (hi.kb.ones << lw) | lo.kb.ones;
    v.kb.zeros = (hi.kb.zeros << lw) | lo.kb.zeros;
    v.umin = (hi.umin << lw) + lo.umin;
    v.umax = (hi.umax << lw) + lo.umax;
    v.reduce();
    return v;
}

AbsValue
transferExtract(const AbsValue &a, unsigned off, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    uint64_t mask = lowMask(w);
    v.kb.ones = (a.kb.ones >> off) & mask;
    v.kb.zeros = (a.kb.zeros >> off) & mask;
    if (off == 0 && a.umax <= mask) {
        v.umin = a.umin;
        v.umax = a.umax;
    } else if (off + w == a.width) { // top slice: monotone in the value
        v.umin = a.umin >> off;
        v.umax = a.umax >> off;
    }
    v.reduce();
    return v;
}

AbsValue
transferZExt(const AbsValue &a, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    unsigned iw = a.width;
    v.kb.ones = a.kb.ones;
    v.kb.zeros = a.kb.zeros | (lowMask(w) & ~lowMask(iw));
    v.umin = a.umin;
    v.umax = a.umax;
    v.reduce();
    return v;
}

AbsValue
transferSExt(const AbsValue &a, unsigned w)
{
    AbsValue v = AbsValue::top(w);
    unsigned iw = a.width;
    v.kb.ones = a.kb.ones;
    v.kb.zeros = a.kb.zeros;
    uint64_t fill = lowMask(w) & ~lowMask(iw);
    if ((a.kb.ones >> (iw - 1)) & 1)
        v.kb.ones |= fill;
    else if ((a.kb.zeros >> (iw - 1)) & 1)
        v.kb.zeros |= fill;
    v.smin = a.smin; // sign-extension preserves the signed value
    v.smax = a.smax;
    v.reduce();
    return v;
}

/** Decide a comparison statically, if the domains are conclusive. */
std::optional<bool>
decideCompare(Kind kind, const AbsValue &a, const AbsValue &b)
{
    switch (kind) {
      case Kind::Eq:
        if (a.isConstant() && b.isConstant())
            return a.constantValue() == b.constantValue();
        if (a.umax < b.umin || b.umax < a.umin || a.smax < b.smin ||
            b.smax < a.smin)
            return false;
        if ((a.kb.ones & b.kb.zeros) || (a.kb.zeros & b.kb.ones))
            return false;
        return std::nullopt;
      case Kind::Ult:
        if (a.umax < b.umin)
            return true;
        if (a.umin >= b.umax)
            return false;
        return std::nullopt;
      case Kind::Ule:
        if (a.umax <= b.umin)
            return true;
        if (a.umin > b.umax)
            return false;
        return std::nullopt;
      case Kind::Slt:
        if (a.smax < b.smin)
            return true;
        if (a.smin >= b.smax)
            return false;
        return std::nullopt;
      case Kind::Sle:
        if (a.smax <= b.smin)
            return true;
        if (a.smin > b.smax)
            return false;
        return std::nullopt;
      default:
        return std::nullopt;
    }
}

AbsValue
transferNode(ExprRef e, const AbsValue &k0, const AbsValue &k1,
             const AbsValue &k2)
{
    unsigned w = e->width();
    switch (e->kind()) {
      case Kind::Constant:
        return AbsValue::constant(e->value(), w);
      case Kind::Variable:
        return AbsValue::top(w);
      case Kind::Add: return transferAdd(k0, k1, w);
      case Kind::Sub: return transferSub(k0, k1, w);
      case Kind::Mul: return transferMul(k0, k1, w);
      case Kind::UDiv: return transferUDiv(k0, k1, w);
      case Kind::URem: return transferURem(k0, k1, w);
      case Kind::SDiv:
      case Kind::SRem:
        // Rare in DBT-generated expressions; the sign/zero-dance of
        // foldBinary's total semantics is not worth modeling.
        return AbsValue::top(w);
      case Kind::And: return transferAnd(k0, k1, w);
      case Kind::Or: return transferOr(k0, k1, w);
      case Kind::Xor: return transferXor(k0, k1, w);
      case Kind::Not: return transferNot(k0, w);
      case Kind::Neg: return transferNeg(k0, w);
      case Kind::Shl: return transferShl(k0, k1, w);
      case Kind::LShr: return transferLShr(k0, k1, w);
      case Kind::AShr: return transferAShr(k0, k1, w);
      case Kind::Concat: return transferConcat(k0, k1, w);
      case Kind::Extract: return transferExtract(k0, e->aux(), w);
      case Kind::ZExt: return transferZExt(k0, w);
      case Kind::SExt: return transferSExt(k0, w);
      case Kind::Eq:
      case Kind::Ult:
      case Kind::Ule:
      case Kind::Slt:
      case Kind::Sle: {
        if (e->kid(0) == e->kid(1)) { // hash-consed identity
            bool refl = e->kind() == Kind::Eq || e->kind() == Kind::Ule ||
                        e->kind() == Kind::Sle;
            return AbsValue::constant(refl ? 1 : 0, 1);
        }
        if (auto r = decideCompare(e->kind(), k0, k1))
            return AbsValue::constant(*r ? 1 : 0, 1);
        return AbsValue::top(1);
      }
      case Kind::Ite: {
        if (k0.isConstant())
            return k0.constantValue() ? k1 : k2;
        return k1.join(k2);
      }
    }
    return AbsValue::top(w);
}

} // namespace

AbsValue
evalExpr(ExprRef e, const FactMap *refined, FactMap &memo)
{
    auto it = memo.find(e);
    if (it != memo.end())
        return it->second;

    static const AbsValue kNone; // width 0 placeholder for absent kids
    AbsValue kids[3] = {kNone, kNone, kNone};
    bool any_bottom = false;
    // std::min bounds the loop by the array for the compiler too (no
    // node has more than three kids).
    unsigned arity = std::min(e->arity(), 3u);
    for (unsigned i = 0; i < arity; ++i) {
        kids[i] = evalExpr(e->kid(i), refined, memo);
        any_bottom = any_bottom || kids[i].isBottom();
    }

    AbsValue v = any_bottom ? AbsValue::bottom(e->width())
                            : transferNode(e, kids[0], kids[1], kids[2]);
    if (refined) {
        auto f = refined->find(e);
        if (f != refined->end())
            v = v.meet(f->second);
    }
    memo.emplace(e, v);
    return v;
}

AbsValue
evalPure(ExprRef e)
{
    FactMap memo;
    return evalExpr(e, nullptr, memo);
}

} // namespace s2e::expr::absint
