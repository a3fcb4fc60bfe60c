#include "solver/bitblast.hh"

#include <bit>
#include <cstring>

#include "support/logging.hh"

namespace s2e::solver {

using expr::Kind;
using sat::litNot;
using sat::mkLit;

namespace {

/** Slots of a new gate table. It grows fourfold, so a witness
 *  component's few dozen gates fit in the first 4 KiB and a DDT+
 *  path's ~1,745 gates after two growths, moving each gate at most
 *  twice. */
constexpr size_t kInitialGateSlots = 256;

/** Length of each shared constant span: one more than the widest
 *  expression, since division widens the divisor by a bit. */
constexpr uint32_t kConstSpan = 65;

} // namespace

BitBlaster::GateTable::GateTable()
{
    allocate(kInitialGateSlots);
}

void
BitBlaster::GateTable::allocate(size_t slots)
{
    slots_ = std::make_unique_for_overwrite<Slot[]>(slots);
    std::memset(slots_.get(), 0xff, slots * sizeof(Slot));
    size_ = slots;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

size_t
BitBlaster::GateTable::slotFor(Lit a, Lit b, uint32_t opc) const
{
    // Multiplicative hashing: the top bits of the product depend on
    // every input bit, and the small, dense literal numbers need that.
    auto u = [](int32_t v) { return static_cast<uint64_t>(
                                 static_cast<uint32_t>(v)); };
    uint64_t h = (u(a) << 32 | u(b)) * 0x9e3779b97f4a7c15ULL +
                 opc * 0xc2b2ae3d27d4eb4fULL;
    return static_cast<size_t>(h >> shift_);
}

Lit &
BitBlaster::GateTable::findOrClaim(Op op, Lit a, Lit b, Lit c)
{
    S2E_ASSERT(c >= 0 && c < (1 << 29), "gate input %d out of range", c);
    uint32_t opc = static_cast<uint32_t>(c) << 2 | op;
    if ((used_ + 1) * 4 > size_ * 3)
        grow();
    size_t mask = size_ - 1;
    for (size_t i = slotFor(a, b, opc);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.out < 0) {
            used_++;
            s = Slot{a, b, opc, -1};
            return s.out;
        }
        if (s.a == a && s.b == b && s.opc == opc)
            return s.out;
    }
}

void
BitBlaster::GateTable::grow()
{
    std::unique_ptr<Slot[]> old = std::move(slots_);
    size_t old_size = size_;
    allocate(4 * old_size);
    size_t mask = size_ - 1;
    for (size_t k = 0; k < old_size; ++k) {
        const Slot &s = old[k];
        if (s.out < 0)
            continue;
        size_t j = slotFor(s.a, s.b, s.opc);
        while (slots_[j].out >= 0)
            j = (j + 1) & mask;
        slots_[j] = s;
    }
}

BitBlaster::BitBlaster(SatSolver &sat) : sat_(sat)
{
    litTrue_ = mkLit(sat_.newVar());
    sat_.addClause(litTrue_);
    arena_.reserve(1024);
    arena_.assign(kConstSpan, constLit(false));
    arena_.resize(2 * kConstSpan, constLit(true));
}

BitBlaster::Bits
BitBlaster::alloc(uint32_t width)
{
    auto offset = static_cast<uint32_t>(arena_.size());
    arena_.resize(offset + width);
    return {offset, width};
}

BitBlaster::Bits
BitBlaster::constBits(bool b, uint32_t width) const
{
    S2E_ASSERT(width <= kConstSpan, "constant span of width %u", width);
    return {b ? kConstSpan : 0, width};
}

uint64_t
BitBlaster::valueOf(Bits bits) const
{
    uint64_t v = 0;
    for (uint32_t i = 0; i < bits.width; ++i)
        if (sat_.modelTrue(bit(bits, i)))
            v |= 1ULL << i;
    return v;
}

Lit
BitBlaster::freshLit()
{
    return mkLit(sat_.newVar());
}

Lit
BitBlaster::mkAnd(Lit a, Lit b)
{
    if (isConstLit(a))
        return constLitValue(a) ? b : constLit(false);
    if (isConstLit(b))
        return constLitValue(b) ? a : constLit(false);
    if (a == b)
        return a;
    if (a == litNot(b))
        return constLit(false);
    if (b < a)
        std::swap(a, b);
    // Building the gate below never touches gateCache_, so `out`
    // stays a valid reference into it.
    Lit &out = gateCache_.findOrClaim(GateTable::kAnd, a, b, 0);
    if (out >= 0)
        return out;
    out = freshLit();
    gates_++;
    sat_.addClause(litNot(out), a);
    sat_.addClause(litNot(out), b);
    sat_.addClause(out, litNot(a), litNot(b));
    return out;
}

Lit
BitBlaster::mkOr(Lit a, Lit b)
{
    return litNot(mkAnd(litNot(a), litNot(b)));
}

Lit
BitBlaster::mkXor(Lit a, Lit b)
{
    if (isConstLit(a))
        return constLitValue(a) ? litNot(b) : b;
    if (isConstLit(b))
        return constLitValue(b) ? litNot(a) : a;
    if (a == b)
        return constLit(false);
    if (a == litNot(b))
        return constLit(true);
    // Normalize polarity: cache xor of positive lits.
    bool flip = false;
    if (sat::litNeg(a)) {
        a = litNot(a);
        flip = !flip;
    }
    if (sat::litNeg(b)) {
        b = litNot(b);
        flip = !flip;
    }
    if (b < a)
        std::swap(a, b);
    Lit &out = gateCache_.findOrClaim(GateTable::kXor, a, b, 0);
    if (out < 0) {
        out = freshLit();
        gates_++;
        sat_.addClause(litNot(out), a, b);
        sat_.addClause(litNot(out), litNot(a), litNot(b));
        sat_.addClause(out, litNot(a), b);
        sat_.addClause(out, a, litNot(b));
    }
    return flip ? litNot(out) : out;
}

Lit
BitBlaster::mkMux(Lit c, Lit t, Lit f)
{
    if (isConstLit(c))
        return constLitValue(c) ? t : f;
    if (t == f)
        return t;
    if (isConstLit(t) && isConstLit(f))
        return constLitValue(t) ? c : litNot(c);
    // c ? !f : f  ==  c XOR f
    if (t == litNot(f))
        return mkXor(c, f);
    Lit &out = gateCache_.findOrClaim(GateTable::kMux, c, t, f);
    if (out >= 0)
        return out;
    out = freshLit();
    gates_++;
    sat_.addClause(litNot(c), litNot(t), out);
    sat_.addClause(litNot(c), t, litNot(out));
    sat_.addClause(c, litNot(f), out);
    sat_.addClause(c, f, litNot(out));
    return out;
}

Lit
BitBlaster::mkMaj(Lit a, Lit b, Lit c)
{
    // majority(a,b,c) = ab | ac | bc, built as (ab) | ((ac) | (bc)).
    // The gate order is explicit (see blastNode): bc, ac, their OR,
    // ab, the outer OR.
    Lit bc = mkAnd(b, c);
    Lit ac = mkAnd(a, c);
    Lit ac_or_bc = mkOr(ac, bc);
    Lit ab = mkAnd(a, b);
    return mkOr(ab, ac_or_bc);
}

BitBlaster::Bits
BitBlaster::addBits(Bits a, Bits b, Lit carry_in)
{
    S2E_ASSERT(a.width == b.width, "adder width mismatch");
    Bits out = alloc(a.width);
    Lit carry = carry_in;
    for (uint32_t i = 0; i < a.width; ++i) {
        Lit ai = bit(a, i), bi = bit(b, i);
        Lit axb = mkXor(ai, bi);
        bitRef(out, i) = mkXor(axb, carry);
        if (i + 1 < a.width)
            carry = mkMaj(ai, bi, carry);
    }
    return out;
}

BitBlaster::Bits
BitBlaster::notBits(Bits a)
{
    Bits out = alloc(a.width);
    for (uint32_t i = 0; i < a.width; ++i)
        bitRef(out, i) = litNot(bit(a, i));
    return out;
}

BitBlaster::Bits
BitBlaster::negBits(Bits a)
{
    Bits na = notBits(a);
    return addBits(na, constBits(false, a.width), constLit(true));
}

BitBlaster::Bits
BitBlaster::mulBits(Bits a, Bits b)
{
    uint32_t w = a.width;
    Bits acc = constBits(false, w);
    Bits addend = alloc(w); // reused: addBits reads it before returning
    for (uint32_t i = 0; i < w; ++i) {
        // addend = (a << i) & b[i]
        bool all_false = true;
        for (uint32_t j = 0; j < i; ++j)
            bitRef(addend, j) = constLit(false);
        for (uint32_t j = i; j < w; ++j) {
            Lit l = mkAnd(bit(a, j - i), bit(b, i));
            bitRef(addend, j) = l;
            if (!(isConstLit(l) && !constLitValue(l)))
                all_false = false;
        }
        if (!all_false)
            acc = addBits(acc, addend, constLit(false));
    }
    return acc;
}

void
BitBlaster::divremBits(Bits a, Bits b, Bits &quot, Bits &rem)
{
    // Restoring long division with a (w+1)-bit partial remainder. `r`
    // is always a span this call allocated, so it is shifted in place.
    uint32_t w = a.width;
    Bits bx = alloc(w + 1); // divisor zero-extended to w+1 bits
    for (uint32_t i = 0; i < w; ++i)
        bitRef(bx, i) = bit(b, i);
    bitRef(bx, w) = constLit(false);
    Bits r = alloc(w + 1);
    for (uint32_t i = 0; i <= w; ++i)
        bitRef(r, i) = constLit(false);
    quot = alloc(w);
    Bits neg_bx{};
    for (uint32_t step = 0; step < w; ++step) {
        uint32_t at = w - 1 - step;
        // r = (r << 1) | a[at]
        for (uint32_t i = w; i > 0; --i)
            bitRef(r, i) = bit(r, i - 1);
        bitRef(r, 0) = bit(a, at);
        // ge = (r >= bx)  <=>  !(r < bx)
        Lit ge = litNot(ultBits(r, bx));
        // -bx is the same circuit every step: later steps would only
        // hit the gate table, so it is built once, where step 0 built
        // it.
        if (step == 0)
            neg_bx = negBits(bx);
        // r = ge ? r - bx : r
        Bits diff = addBits(r, neg_bx, constLit(false));
        r = muxBits(ge, diff, r);
        bitRef(quot, at) = ge;
    }
    rem = {r.offset, w};
}

BitBlaster::Bits
BitBlaster::muxBits(Lit c, Bits t, Bits f)
{
    S2E_ASSERT(t.width == f.width, "mux width mismatch");
    Bits out = alloc(t.width);
    for (uint32_t i = 0; i < t.width; ++i)
        bitRef(out, i) = mkMux(c, bit(t, i), bit(f, i));
    return out;
}

BitBlaster::Bits
BitBlaster::shiftBits(Bits a, Bits amount, expr::Kind kind)
{
    uint32_t w = a.width;
    Lit fill = kind == Kind::AShr ? bit(a, w - 1) : constLit(false);

    // Barrel shifter over the low log2 stages; any higher amount bit
    // set means full shift-out.
    Bits cur = a;
    uint32_t stages = 0;
    while ((1ULL << stages) < w)
        stages++;
    for (uint32_t s = 0; s < stages; ++s) {
        uint32_t k = 1u << s;
        Bits shifted = alloc(w);
        for (uint32_t i = 0; i < w; ++i) {
            Lit l = fill;
            if (kind == Kind::Shl) {
                if (i >= k)
                    l = bit(cur, i - k);
            } else if (i + k < w) {
                l = bit(cur, i + k);
            }
            bitRef(shifted, i) = l;
        }
        cur = muxBits(bit(amount, s), shifted, cur);
    }
    // Overflow: any amount bit >= stages set, or amount within the low
    // stage bits encoding a value >= w (only when w is not a power of
    // two; with power-of-two widths the stage bits cover exactly < w).
    Lit overflow = constLit(false);
    for (uint32_t i = stages; i < amount.width; ++i)
        overflow = mkOr(overflow, bit(amount, i));
    if ((1ULL << stages) != w) {
        // Compare low stage bits against w.
        Bits wconst = alloc(stages);
        for (uint32_t i = 0; i < stages; ++i)
            bitRef(wconst, i) = constLit((w >> i) & 1);
        Bits low{amount.offset, stages};
        overflow = mkOr(overflow, litNot(ultBits(low, wconst)));
    }
    Bits fullshift = constBits(false, w);
    if (kind == Kind::AShr) {
        fullshift = alloc(w);
        for (uint32_t i = 0; i < w; ++i)
            bitRef(fullshift, i) = fill;
    }
    return muxBits(overflow, fullshift, cur);
}

Lit
BitBlaster::ultBits(Bits a, Bits b)
{
    S2E_ASSERT(a.width == b.width, "ult width mismatch");
    Lit lt = constLit(false);
    for (uint32_t i = 0; i < a.width; ++i) {
        // Higher bits take priority; process LSB -> MSB so the last
        // (most significant) difference wins.
        Lit ai = bit(a, i), bi = bit(b, i);
        Lit diff = mkXor(ai, bi);
        Lit bi_gt = mkAnd(litNot(ai), bi);
        lt = mkMux(diff, bi_gt, lt);
    }
    return lt;
}

Lit
BitBlaster::eqBits(Bits a, Bits b)
{
    S2E_ASSERT(a.width == b.width, "eq width mismatch");
    Lit out = constLit(true);
    for (uint32_t i = 0; i < a.width; ++i)
        out = mkAnd(out, litNot(mkXor(bit(a, i), bit(b, i))));
    return out;
}

BitBlaster::Bits
BitBlaster::blastRec(ExprRef e)
{
    if (const Bits *cached = spans_.find(e))
        return *cached;
    Bits out = blastNode(e);
    S2E_ASSERT(out.width == e->width(), "blast width mismatch for %s",
               expr::kindName(e->kind()));
    spans_.insert(e, out);
    return out;
}

BitBlaster::Bits
BitBlaster::blastNode(ExprRef e)
{
    // Kid order is part of the CNF: each kid's first blast numbers its
    // variables and gates, so the order below fixes the literal
    // numbering and the clause order, and with them the SAT search.
    // It is written out statement by statement, never left to the
    // order in which a compiler evaluates call arguments. Where kid 1
    // (or kid 2 of an Ite) is blasted before kid 0, that is the order
    // GCC's right-to-left argument evaluation gave the nested calls
    // this code replaced; the pinned digests (Sat.SearchIsPinned, the
    // DDT+ witness digests) were recorded with it.
    uint32_t w = e->width();
    auto kid = [&](unsigned i) { return blastRec(e->kid(i)); };
    auto lit = [&](Lit l) {
        Bits out = alloc(1);
        bitRef(out, 0) = l;
        return out;
    };

    switch (e->kind()) {
      case Kind::Constant: {
        Bits out = alloc(w);
        for (uint32_t i = 0; i < w; ++i)
            bitRef(out, i) = constLit((e->value() >> i) & 1);
        return out;
      }
      case Kind::Variable: {
        Bits out = alloc(w);
        for (uint32_t i = 0; i < w; ++i)
            bitRef(out, i) = freshLit();
        vars_.emplace_back(e->varId(), out);
        return out;
      }
      case Kind::Add: {
        Bits b = kid(1);
        Bits a = kid(0);
        return addBits(a, b, constLit(false));
      }
      case Kind::Sub: {
        Bits nb = notBits(kid(1));
        Bits a = kid(0);
        return addBits(a, nb, constLit(true));
      }
      case Kind::Mul: {
        Bits b = kid(1);
        Bits a = kid(0);
        return mulBits(a, b);
      }
      case Kind::UDiv:
      case Kind::URem: {
        Bits b = kid(1);
        Bits a = kid(0);
        Bits q, r;
        divremBits(a, b, q, r);
        return e->kind() == Kind::UDiv ? q : r;
      }
      case Kind::SDiv:
      case Kind::SRem: {
        Bits a = kid(0);
        Bits b = kid(1);
        Lit sa = bit(a, w - 1), sb = bit(b, w - 1);
        Bits ua = muxBits(sa, negBits(a), a);
        Bits ub = muxBits(sb, negBits(b), b);
        Bits q, r;
        divremBits(ua, ub, q, r);
        if (e->kind() == Kind::SRem)
            return muxBits(sa, negBits(r), r);
        Lit flip = mkXor(sa, sb);
        Bits out = muxBits(flip, negBits(q), q);
        // Divide-by-zero is a total function yielding all-ones,
        // matching ExprBuilder::foldBinary semantics.
        Lit b_zero = eqBits(b, constBits(false, w));
        return muxBits(b_zero, constBits(true, w), out);
      }
      case Kind::And:
      case Kind::Or:
      case Kind::Xor: {
        Bits a = kid(0);
        Bits b = kid(1);
        Bits out = alloc(w);
        for (uint32_t i = 0; i < w; ++i) {
            Lit ai = bit(a, i), bi = bit(b, i);
            switch (e->kind()) {
              case Kind::And: bitRef(out, i) = mkAnd(ai, bi); break;
              case Kind::Or: bitRef(out, i) = mkOr(ai, bi); break;
              default: bitRef(out, i) = mkXor(ai, bi); break;
            }
        }
        return out;
      }
      case Kind::Not:
        return notBits(kid(0));
      case Kind::Neg:
        return negBits(kid(0));
      case Kind::Shl:
      case Kind::LShr:
      case Kind::AShr: {
        ExprRef amt = e->kid(1);
        Bits a = kid(0);
        if (!amt->isConstant())
            return shiftBits(a, blastRec(amt), e->kind());
        uint64_t s = amt->value();
        Lit fill = e->kind() == Kind::AShr ? bit(a, w - 1) : constLit(false);
        Bits out = alloc(w);
        for (uint32_t i = 0; i < w; ++i) {
            Lit l = fill;
            if (s < w) {
                if (e->kind() == Kind::Shl) {
                    if (i >= s)
                        l = bit(a, static_cast<uint32_t>(i - s));
                } else if (i + s < w) {
                    l = bit(a, static_cast<uint32_t>(i + s));
                }
            }
            bitRef(out, i) = l;
        }
        return out;
      }
      case Kind::Concat: {
        Bits hi = kid(0);
        Bits lo = kid(1);
        Bits out = alloc(w);
        for (uint32_t i = 0; i < lo.width; ++i)
            bitRef(out, i) = bit(lo, i);
        for (uint32_t i = 0; i < hi.width; ++i)
            bitRef(out, lo.width + i) = bit(hi, i);
        return out;
      }
      case Kind::Extract: {
        Bits a = kid(0);
        return {a.offset + e->aux(), w};
      }
      case Kind::ZExt:
      case Kind::SExt: {
        Bits a = kid(0);
        Lit fill = e->kind() == Kind::SExt ? bit(a, a.width - 1)
                                           : constLit(false);
        Bits out = alloc(w);
        for (uint32_t i = 0; i < w; ++i)
            bitRef(out, i) = i < a.width ? bit(a, i) : fill;
        return out;
      }
      case Kind::Eq: {
        Bits b = kid(1);
        Bits a = kid(0);
        return lit(eqBits(a, b));
      }
      case Kind::Ult: {
        Bits b = kid(1);
        Bits a = kid(0);
        return lit(ultBits(a, b));
      }
      case Kind::Ule: {
        Bits a = kid(0);
        Bits b = kid(1);
        return lit(litNot(ultBits(b, a)));
      }
      case Kind::Slt:
      case Kind::Sle: {
        // Signed compare == unsigned compare with inverted sign bits.
        Bits a = kid(0);
        Bits b = kid(1);
        Bits sa = alloc(a.width);
        Bits sb = alloc(b.width);
        for (uint32_t i = 0; i < a.width; ++i) {
            bitRef(sa, i) = bit(a, i);
            bitRef(sb, i) = bit(b, i);
        }
        bitRef(sa, a.width - 1) = litNot(bit(a, a.width - 1));
        bitRef(sb, b.width - 1) = litNot(bit(b, b.width - 1));
        if (e->kind() == Kind::Slt)
            return lit(ultBits(sa, sb));
        return lit(litNot(ultBits(sb, sa)));
      }
      case Kind::Ite: {
        Lit c = blastBool(e->kid(0));
        Bits f = kid(2);
        Bits t = kid(1);
        return muxBits(c, t, f);
      }
    }
    panic("blastNode: bad kind %s", expr::kindName(e->kind()));
}

Lit
BitBlaster::blastBool(ExprRef e)
{
    S2E_ASSERT(e->width() == 1, "blastBool on width-%u expr", e->width());
    return bit(blastRec(e), 0);
}

void
BitBlaster::assertTrue(ExprRef e)
{
    sat_.addClause(blastBool(e));
}

void
BitBlaster::assertImplies(Lit guard, ExprRef e)
{
    // Blast first: gate clauses must reference only unconditional
    // Tseitin definitions, never the guard. If e lowers to constant
    // true the clause is satisfied at the root and addClause drops it;
    // constant false leaves the unit ¬guard, permanently disabling
    // this activation literal (any query assuming it is Unsat).
    Lit lit = blastBool(e);
    sat_.addClause(sat::litNot(guard), lit);
}

uint64_t
BitBlaster::modelValue(ExprRef var) const
{
    S2E_ASSERT(var->isVariable(), "modelValue on non-variable");
    const Bits *bits = spans_.find(var);
    return bits ? valueOf(*bits) : 0; // 0: unconstrained by the query
}

} // namespace s2e::solver
