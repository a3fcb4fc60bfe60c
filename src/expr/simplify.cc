#include "expr/simplify.hh"

#include <algorithm>

namespace s2e::expr {

namespace {

/** Highest set bit position + 1 (i.e., number of live low bits). */
unsigned
liveWidth(uint64_t demanded)
{
    return demanded == 0 ? 0 : 64 - __builtin_clzll(demanded);
}

} // namespace

KnownBits
knownBits(ExprRef e)
{
    absint::FactMap memo;
    return absint::evalExpr(e, nullptr, memo).kb;
}

ExprRef
Simplifier::simplify(ExprRef e)
{
    return simplifyDemandedBits(e, lowMask(e->width()));
}

ExprRef
Simplifier::simplifyDemandedBits(ExprRef e, uint64_t demanded)
{
    ExprRef out = simplifyDemanded(e, demanded);
    trimCaches();
    return out;
}

void
Simplifier::trimCaches()
{
    if (memo_.size() > kMaxMemoEntries)
        memo_.clear();
    if (pureAbs_.size() > kMaxFactEntries)
        pureAbs_.clear();
}

ExprRef
Simplifier::simplifyDemanded(ExprRef e, uint64_t demanded)
{
    demanded &= lowMask(e->width());
    if (e->isConstant())
        return e;
    if (demanded == 0)
        return builder_.constant(0, e->width());

    if (ExprRef hit = memo_.find(e, demanded))
        return hit;

    ExprBuilder &b = builder_;
    unsigned w = e->width();
    ExprRef out = e;

    switch (e->kind()) {
      case Kind::And: {
        ExprRef rhs = e->kid(1);
        if (rhs->isConstant()) {
            if ((rhs->value() & demanded) == demanded) {
                // Mask keeps every demanded bit: drop the And.
                stats_.opsDropped++;
                out = simplifyDemanded(e->kid(0), demanded);
                break;
            }
            ExprRef a =
                simplifyDemanded(e->kid(0), demanded & rhs->value());
            out = b.bAnd(a, rhs);
            break;
        }
        ExprRef a = simplifyDemanded(e->kid(0), demanded);
        ExprRef c = simplifyDemanded(e->kid(1), demanded);
        out = b.bAnd(a, c);
        break;
      }
      case Kind::Or: {
        ExprRef rhs = e->kid(1);
        if (rhs->isConstant()) {
            if ((rhs->value() & demanded) == 0) {
                stats_.opsDropped++;
                out = simplifyDemanded(e->kid(0), demanded);
                break;
            }
            ExprRef a =
                simplifyDemanded(e->kid(0), demanded & ~rhs->value());
            out = b.bOr(a, rhs);
            break;
        }
        ExprRef a = simplifyDemanded(e->kid(0), demanded);
        ExprRef c = simplifyDemanded(e->kid(1), demanded);
        out = b.bOr(a, c);
        break;
      }
      case Kind::Xor: {
        ExprRef rhs = e->kid(1);
        if (rhs->isConstant() && (rhs->value() & demanded) == 0) {
            stats_.opsDropped++;
            out = simplifyDemanded(e->kid(0), demanded);
            break;
        }
        ExprRef a = simplifyDemanded(e->kid(0), demanded);
        ExprRef c = simplifyDemanded(e->kid(1), demanded);
        out = b.bXor(a, c);
        break;
      }
      case Kind::Not:
        out = b.bNot(simplifyDemanded(e->kid(0), demanded));
        break;
      case Kind::Shl: {
        if (e->kid(1)->isConstant()) {
            uint64_t s = e->kid(1)->value();
            if (s < w) {
                ExprRef a = simplifyDemanded(e->kid(0), demanded >> s);
                out = b.shl(a, e->kid(1));
                break;
            }
        }
        goto generic;
      }
      case Kind::LShr: {
        if (e->kid(1)->isConstant()) {
            uint64_t s = e->kid(1)->value();
            if (s < w) {
                ExprRef a = simplifyDemanded(
                    e->kid(0), (demanded << s) & lowMask(w));
                out = b.lshr(a, e->kid(1));
                break;
            }
        }
        goto generic;
      }
      case Kind::Extract: {
        ExprRef a = simplifyDemanded(e->kid(0), demanded << e->aux());
        out = b.extract(a, e->aux(), w);
        break;
      }
      case Kind::ZExt: {
        unsigned iw = e->kid(0)->width();
        ExprRef a = simplifyDemanded(e->kid(0), demanded & lowMask(iw));
        out = b.zext(a, w);
        break;
      }
      case Kind::Concat: {
        unsigned lw = e->kid(1)->width();
        ExprRef lo = simplifyDemanded(e->kid(1), demanded & lowMask(lw));
        ExprRef hi = simplifyDemanded(e->kid(0), demanded >> lw);
        out = b.concat(hi, lo);
        break;
      }
      case Kind::Add:
      case Kind::Sub: {
        // Carries only propagate upward: bits above the highest
        // demanded bit are irrelevant in the operands.
        uint64_t need = lowMask(liveWidth(demanded));
        ExprRef a = simplifyDemanded(e->kid(0), need);
        ExprRef c = simplifyDemanded(e->kid(1), need);
        out = e->kind() == Kind::Add ? b.add(a, c) : b.sub(a, c);
        break;
      }
      case Kind::Ite: {
        ExprRef cond = simplifyDemanded(e->kid(0), 1);
        ExprRef t = simplifyDemanded(e->kid(1), demanded);
        ExprRef f = simplifyDemanded(e->kid(2), demanded);
        out = b.ite(cond, t, f);
        break;
      }
      case Kind::Eq:
      case Kind::Ult:
      case Kind::Ule:
      case Kind::Slt:
      case Kind::Sle: {
        // Comparisons demand every operand bit.
        uint64_t full = lowMask(e->kid(0)->width());
        ExprRef a = simplifyDemanded(e->kid(0), full);
        ExprRef c = simplifyDemanded(e->kid(1), full);
        switch (e->kind()) {
          case Kind::Eq: out = b.eq(a, c); break;
          case Kind::Ult: out = b.ult(a, c); break;
          case Kind::Ule: out = b.ule(a, c); break;
          case Kind::Slt: out = b.slt(a, c); break;
          default: out = b.sle(a, c); break;
        }
        break;
      }
      generic:
      default: {
        // Generic: simplify children with full demand.
        if (e->arity() == 2) {
            ExprRef a = simplifyDemanded(e->kid(0),
                                         lowMask(e->kid(0)->width()));
            ExprRef c = simplifyDemanded(e->kid(1),
                                         lowMask(e->kid(1)->width()));
            if (a != e->kid(0) || c != e->kid(1)) {
                switch (e->kind()) {
                  case Kind::Mul: out = b.mul(a, c); break;
                  case Kind::UDiv: out = b.udiv(a, c); break;
                  case Kind::SDiv: out = b.sdiv(a, c); break;
                  case Kind::URem: out = b.urem(a, c); break;
                  case Kind::SRem: out = b.srem(a, c); break;
                  case Kind::Shl: out = b.shl(a, c); break;
                  case Kind::LShr: out = b.lshr(a, c); break;
                  case Kind::AShr: out = b.ashr(a, c); break;
                  default: break;
                }
            }
        } else if (e->kind() == Kind::SExt) {
            ExprRef a = simplifyDemanded(e->kid(0),
                                         lowMask(e->kid(0)->width()));
            out = b.sext(a, w);
        } else if (e->kind() == Kind::Neg) {
            uint64_t need = lowMask(liveWidth(demanded));
            out = b.neg(simplifyDemanded(e->kid(0), need));
        }
        break;
      }
    }

    // Known-bits collapse: if every demanded bit of the result is
    // statically known, fold to a constant (undemanded bits become 0,
    // which the demanded-bits contract allows).
    if (!out->isConstant()) {
        const absint::AbsValue v = absint::evalExpr(out, nullptr, pureAbs_);
        if (!v.isBottom() &&
            (demanded & ~(v.kb.zeros | v.kb.ones)) == 0) {
            stats_.constantsFolded++;
            out = b.constant(v.kb.ones & demanded, out->width());
        }
    }

    memo_.insert(e, demanded, out);
    return out;
}

size_t
Simplifier::Memo::slotFor(ExprRef e, uint64_t demanded) const
{
    size_t mask = slots_.size() - 1;
    uint64_t h = (e->hash() ^ demanded * 0x9e3779b97f4a7c15ULL) *
                 0xbf58476d1ce4e5b9ULL;
    for (auto i = static_cast<size_t>(h >> 32);; ++i) {
        const Slot &s = slots_[i & mask];
        if (s.e == nullptr || (s.e == e && s.demanded == demanded))
            return i & mask;
    }
}

ExprRef
Simplifier::Memo::find(ExprRef e, uint64_t demanded) const
{
    if (slots_.empty())
        return nullptr;
    return slots_[slotFor(e, demanded)].out;
}

void
Simplifier::Memo::insert(ExprRef e, uint64_t demanded, ExprRef out)
{
    if (4 * (used_ + 1) > 3 * slots_.size())
        grow();
    Slot &s = slots_[slotFor(e, demanded)];
    if (s.e == nullptr)
        ++used_;
    s = Slot{e, demanded, out};
}

void
Simplifier::Memo::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
}

void
Simplifier::Memo::grow()
{
    std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot &s : old)
        if (s.e != nullptr)
            slots_[slotFor(s.e, s.demanded)] = s;
}

} // namespace s2e::expr
