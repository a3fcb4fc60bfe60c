#include "solver/bitblast.hh"

#include "support/bitops.hh"
#include "support/logging.hh"

namespace s2e::solver {

using expr::Kind;
using sat::litNot;
using sat::mkLit;

uint64_t
BitBlaster::GateTable::hash(const GateKey &k)
{
    // Literals and ops are non-negative. The splitmix64 finalizer
    // spreads the small, dense literal numbers over the low bits the
    // table indexes by.
    auto u = [](int32_t v) { return static_cast<uint64_t>(v); };
    uint64_t h = (u(k.a) << 32 | u(k.b)) ^
                 (u(k.c) << 2 | u(k.op)) * 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
}

Lit &
BitBlaster::GateTable::findOrClaim(const GateKey &key)
{
    if ((used_ + 1) * 4 > slots_.size() * 3)
        grow();
    size_t mask = slots_.size() - 1;
    size_t i = hash(key) & mask;
    for (; slots_[i].key.op != kEmptyOp; i = (i + 1) & mask)
        if (slots_[i].key == key)
            return slots_[i].out;
    used_++;
    slots_[i].key = key;
    return slots_[i].out;
}

void
BitBlaster::GateTable::grow()
{
    std::vector<Slot> grown(slots_.empty() ? 256 : slots_.size() * 2);
    size_t mask = grown.size() - 1;
    for (const Slot &s : slots_) {
        if (s.key.op == kEmptyOp)
            continue;
        size_t j = hash(s.key) & mask;
        while (grown[j].key.op != kEmptyOp)
            j = (j + 1) & mask;
        grown[j] = s;
    }
    slots_.swap(grown);
}

BitBlaster::BitBlaster(SatSolver &sat) : sat_(sat)
{
    litTrue_ = mkLit(sat_.newVar());
    sat_.addClause(litTrue_);
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
    Lit &out = gateCache_.findOrClaim({0, a, b, 0});
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
    Lit &out = gateCache_.findOrClaim({1, a, b, 0});
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
    Lit &out = gateCache_.findOrClaim({2, c, t, f});
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
    // majority(a,b,c) = ab | ac | bc
    return mkOr(mkAnd(a, b), mkOr(mkAnd(a, c), mkAnd(b, c)));
}

std::vector<Lit>
BitBlaster::addBits(const std::vector<Lit> &a, const std::vector<Lit> &b,
                    Lit carry_in)
{
    S2E_ASSERT(a.size() == b.size(), "adder width mismatch");
    std::vector<Lit> out(a.size());
    Lit carry = carry_in;
    for (size_t i = 0; i < a.size(); ++i) {
        Lit axb = mkXor(a[i], b[i]);
        out[i] = mkXor(axb, carry);
        if (i + 1 < a.size())
            carry = mkMaj(a[i], b[i], carry);
    }
    return out;
}

std::vector<Lit>
BitBlaster::negBits(const std::vector<Lit> &a)
{
    std::vector<Lit> zeros(a.size(), constLit(false));
    std::vector<Lit> na(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        na[i] = litNot(a[i]);
    return addBits(na, zeros, constLit(true));
}

std::vector<Lit>
BitBlaster::mulBits(const std::vector<Lit> &a, const std::vector<Lit> &b)
{
    size_t w = a.size();
    std::vector<Lit> acc(w, constLit(false));
    for (size_t i = 0; i < w; ++i) {
        // addend = (a << i) & b[i]
        std::vector<Lit> addend(w, constLit(false));
        bool all_false = true;
        for (size_t j = i; j < w; ++j) {
            addend[j] = mkAnd(a[j - i], b[i]);
            if (!(isConstLit(addend[j]) && !constLitValue(addend[j])))
                all_false = false;
        }
        if (!all_false)
            acc = addBits(acc, addend, constLit(false));
    }
    return acc;
}

void
BitBlaster::divremBits(const std::vector<Lit> &a, const std::vector<Lit> &b,
                       std::vector<Lit> &quot, std::vector<Lit> &rem)
{
    // Restoring long division with a (w+1)-bit partial remainder.
    size_t w = a.size();
    std::vector<Lit> bx(b);
    bx.push_back(constLit(false)); // zext divisor to w+1
    std::vector<Lit> r(w + 1, constLit(false));
    quot.assign(w, constLit(false));
    for (size_t step = 0; step < w; ++step) {
        size_t bit = w - 1 - step;
        // r = (r << 1) | a[bit]
        for (size_t i = w; i > 0; --i)
            r[i] = r[i - 1];
        r[0] = a[bit];
        // ge = (r >= bx)  <=>  !(r < bx)
        Lit ge = litNot(ultBits(r, bx));
        // r = ge ? r - bx : r
        std::vector<Lit> diff = addBits(r, negBits(bx), constLit(false));
        r = muxBits(ge, diff, r);
        quot[bit] = ge;
    }
    rem.assign(r.begin(), r.begin() + w);
}

std::vector<Lit>
BitBlaster::muxBits(Lit c, const std::vector<Lit> &t,
                    const std::vector<Lit> &f)
{
    S2E_ASSERT(t.size() == f.size(), "mux width mismatch");
    std::vector<Lit> out(t.size());
    for (size_t i = 0; i < t.size(); ++i)
        out[i] = mkMux(c, t[i], f[i]);
    return out;
}

std::vector<Lit>
BitBlaster::shiftBits(const std::vector<Lit> &a,
                      const std::vector<Lit> &amount, expr::Kind kind)
{
    size_t w = a.size();
    Lit fill = constLit(false);
    if (kind == Kind::AShr)
        fill = a[w - 1];

    // Barrel shifter over the low log2 stages; any higher amount bit
    // set means full shift-out.
    std::vector<Lit> cur(a);
    size_t stages = 0;
    while ((1ULL << stages) < w)
        stages++;
    for (size_t s = 0; s < stages; ++s) {
        size_t k = 1ULL << s;
        std::vector<Lit> shifted(w, fill);
        for (size_t i = 0; i < w; ++i) {
            if (kind == Kind::Shl) {
                if (i >= k)
                    shifted[i] = cur[i - k];
            } else {
                if (i + k < w)
                    shifted[i] = cur[i + k];
            }
        }
        cur = muxBits(amount[s], shifted, cur);
    }
    // Overflow: any amount bit >= stages set, or amount within the low
    // stage bits encoding a value >= w (only when w is not a power of
    // two; with power-of-two widths the stage bits cover exactly < w).
    Lit overflow = constLit(false);
    for (size_t i = stages; i < amount.size(); ++i)
        overflow = mkOr(overflow, amount[i]);
    if ((1ULL << stages) != w) {
        // Compare low stage bits against w.
        std::vector<Lit> low(amount.begin(), amount.begin() + stages);
        std::vector<Lit> wconst(stages);
        for (size_t i = 0; i < stages; ++i)
            wconst[i] = constLit((w >> i) & 1);
        overflow = mkOr(overflow, litNot(ultBits(low, wconst)));
    }
    std::vector<Lit> fullshift(w, fill);
    return muxBits(overflow, fullshift, cur);
}

Lit
BitBlaster::ultBits(const std::vector<Lit> &a, const std::vector<Lit> &b)
{
    S2E_ASSERT(a.size() == b.size(), "ult width mismatch");
    Lit lt = constLit(false);
    for (size_t i = 0; i < a.size(); ++i) {
        // Higher bits take priority; process LSB -> MSB so the last
        // (most significant) difference wins.
        Lit diff = mkXor(a[i], b[i]);
        Lit bi_gt = mkAnd(litNot(a[i]), b[i]);
        lt = mkMux(diff, bi_gt, lt);
    }
    return lt;
}

Lit
BitBlaster::eqBits(const std::vector<Lit> &a, const std::vector<Lit> &b)
{
    S2E_ASSERT(a.size() == b.size(), "eq width mismatch");
    Lit out = constLit(true);
    for (size_t i = 0; i < a.size(); ++i)
        out = mkAnd(out, litNot(mkXor(a[i], b[i])));
    return out;
}

const std::vector<Lit> &
BitBlaster::blast(ExprRef e)
{
    return blastRec(e);
}

const std::vector<Lit> &
BitBlaster::blastRec(ExprRef e)
{
    auto it = cache_.find(e);
    if (it != cache_.end())
        return it->second;

    unsigned w = e->width();
    std::vector<Lit> out;

    switch (e->kind()) {
      case Kind::Constant: {
        out.resize(w);
        for (unsigned i = 0; i < w; ++i)
            out[i] = constLit((e->value() >> i) & 1);
        break;
      }
      case Kind::Variable: {
        auto vit = varBits_.find(e->varId());
        if (vit == varBits_.end()) {
            std::vector<Lit> bits(w);
            for (unsigned i = 0; i < w; ++i)
                bits[i] = freshLit();
            vit = varBits_.emplace(e->varId(), std::move(bits)).first;
        }
        out = vit->second;
        break;
      }
      case Kind::Add: {
        out = addBits(blastRec(e->kid(0)), blastRec(e->kid(1)),
                      constLit(false));
        break;
      }
      case Kind::Sub: {
        std::vector<Lit> nb;
        const auto &b = blastRec(e->kid(1));
        nb.resize(b.size());
        for (size_t i = 0; i < b.size(); ++i)
            nb[i] = litNot(b[i]);
        out = addBits(blastRec(e->kid(0)), nb, constLit(true));
        break;
      }
      case Kind::Mul:
        out = mulBits(blastRec(e->kid(0)), blastRec(e->kid(1)));
        break;
      case Kind::UDiv:
      case Kind::URem: {
        std::vector<Lit> q, r;
        divremBits(blastRec(e->kid(0)), blastRec(e->kid(1)), q, r);
        out = (e->kind() == Kind::UDiv) ? q : r;
        break;
      }
      case Kind::SDiv:
      case Kind::SRem: {
        const auto &a = blastRec(e->kid(0));
        const auto &b = blastRec(e->kid(1));
        Lit sa = a[w - 1], sb = b[w - 1];
        std::vector<Lit> ua = muxBits(sa, negBits(a), a);
        std::vector<Lit> ub = muxBits(sb, negBits(b), b);
        std::vector<Lit> q, r;
        divremBits(ua, ub, q, r);
        if (e->kind() == Kind::SDiv) {
            Lit flip = mkXor(sa, sb);
            out = muxBits(flip, negBits(q), q);
            // Divide-by-zero is a total function yielding all-ones,
            // matching ExprBuilder::foldBinary semantics.
            std::vector<Lit> zero(w, constLit(false));
            Lit b_zero = eqBits(b, zero);
            std::vector<Lit> ones(w, constLit(true));
            out = muxBits(b_zero, ones, out);
        } else {
            out = muxBits(sa, negBits(r), r);
        }
        break;
      }
      case Kind::And:
      case Kind::Or:
      case Kind::Xor: {
        const auto &a = blastRec(e->kid(0));
        const auto &b = blastRec(e->kid(1));
        out.resize(w);
        for (unsigned i = 0; i < w; ++i) {
            switch (e->kind()) {
              case Kind::And: out[i] = mkAnd(a[i], b[i]); break;
              case Kind::Or: out[i] = mkOr(a[i], b[i]); break;
              default: out[i] = mkXor(a[i], b[i]); break;
            }
        }
        break;
      }
      case Kind::Not: {
        const auto &a = blastRec(e->kid(0));
        out.resize(w);
        for (unsigned i = 0; i < w; ++i)
            out[i] = litNot(a[i]);
        break;
      }
      case Kind::Neg:
        out = negBits(blastRec(e->kid(0)));
        break;
      case Kind::Shl:
      case Kind::LShr:
      case Kind::AShr: {
        ExprRef amt = e->kid(1);
        const auto a = blastRec(e->kid(0));
        if (amt->isConstant()) {
            uint64_t s = amt->value();
            out.assign(w, e->kind() == Kind::AShr ? a[w - 1]
                                                  : constLit(false));
            if (s < w) {
                for (unsigned i = 0; i < w; ++i) {
                    if (e->kind() == Kind::Shl) {
                        if (i >= s)
                            out[i] = a[i - s];
                    } else {
                        if (i + s < w)
                            out[i] = a[i + s];
                    }
                }
            }
        } else {
            out = shiftBits(a, blastRec(amt), e->kind());
        }
        break;
      }
      case Kind::Concat: {
        const auto &hi = blastRec(e->kid(0));
        const auto &lo = blastRec(e->kid(1));
        out = lo;
        out.insert(out.end(), hi.begin(), hi.end());
        break;
      }
      case Kind::Extract: {
        const auto &a = blastRec(e->kid(0));
        out.assign(a.begin() + e->aux(), a.begin() + e->aux() + w);
        break;
      }
      case Kind::ZExt: {
        out = blastRec(e->kid(0));
        out.resize(w, constLit(false));
        break;
      }
      case Kind::SExt: {
        out = blastRec(e->kid(0));
        Lit sign = out.back();
        out.resize(w, sign);
        break;
      }
      case Kind::Eq:
        out = {eqBits(blastRec(e->kid(0)), blastRec(e->kid(1)))};
        break;
      case Kind::Ult:
        out = {ultBits(blastRec(e->kid(0)), blastRec(e->kid(1)))};
        break;
      case Kind::Ule:
        out = {litNot(ultBits(blastRec(e->kid(1)), blastRec(e->kid(0))))};
        break;
      case Kind::Slt:
      case Kind::Sle: {
        // Signed compare == unsigned compare with inverted sign bits.
        std::vector<Lit> a = blastRec(e->kid(0));
        std::vector<Lit> b = blastRec(e->kid(1));
        a.back() = litNot(a.back());
        b.back() = litNot(b.back());
        if (e->kind() == Kind::Slt)
            out = {ultBits(a, b)};
        else
            out = {litNot(ultBits(b, a))};
        break;
      }
      case Kind::Ite: {
        Lit c = blastBool(e->kid(0));
        out = muxBits(c, blastRec(e->kid(1)), blastRec(e->kid(2)));
        break;
      }
    }

    S2E_ASSERT(out.size() == w, "blast width mismatch for %s",
               expr::kindName(e->kind()));
    return cache_.emplace(e, std::move(out)).first->second;
}

Lit
BitBlaster::blastBool(ExprRef e)
{
    S2E_ASSERT(e->width() == 1, "blastBool on width-%u expr", e->width());
    return blastRec(e)[0];
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
    auto it = varBits_.find(var->varId());
    if (it == varBits_.end())
        return 0; // variable unconstrained by the query
    uint64_t v = 0;
    for (size_t i = 0; i < it->second.size(); ++i)
        if (sat_.modelTrue(it->second[i]))
            v |= 1ULL << i;
    return v;
}

} // namespace s2e::solver
