#include "expr/builder.hh"

#include "support/bitops.hh"
#include "support/logging.hh"

namespace s2e::expr {

namespace {

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

uint64_t
computeHash(Kind kind, unsigned width, unsigned aux, uint64_t value,
            ExprRef k0, ExprRef k1, ExprRef k2)
{
    uint64_t h = static_cast<uint64_t>(kind) * 0x100000001b3ULL;
    h = mix(h, width);
    h = mix(h, aux);
    h = mix(h, value);
    h = mix(h, reinterpret_cast<uintptr_t>(k0));
    h = mix(h, reinterpret_cast<uintptr_t>(k1));
    h = mix(h, reinterpret_cast<uintptr_t>(k2));
    return h;
}

} // namespace

ExprBuilder::ExprBuilder()
{
    false_ = constant(0, 1);
    true_ = constant(1, 1);
}

ExprRef
ExprBuilder::intern(Kind kind, unsigned width, unsigned aux, uint64_t value,
                    ExprRef k0, ExprRef k1, ExprRef k2,
                    const std::string *name)
{
    S2E_ASSERT(width <= 64 && aux <= 63, "node w%u aux %u does not fit",
               width, aux);
    uint64_t h = computeHash(kind, width, aux, value, k0, k1, k2);
    // Nodes and slots keep a 32-bit fold of the hash. A tag hit is only
    // a candidate: the fields below decide equality, so a tag collision
    // costs a comparison, never a wrong answer.
    auto tag = static_cast<uint32_t>(h ^ (h >> 32));
    // The tag's low bits pick the probe start, so the shard comes from
    // the high bits of a Fibonacci remix.
    Shard &shard = shards_[(tag * 0x9e3779b9U) >> (32 - kShardBits)];
    std::lock_guard<std::mutex> lock(shard.mu);

    std::vector<Slot> &slots = shard.slots;
    if (slots.empty())
        slots.resize(16);
    bool leaf = kind == Kind::Constant || kind == Kind::Variable;
    size_t mask = slots.size() - 1;
    size_t i = tag & mask;
    for (; slots[i].index; i = (i + 1) & mask) {
        if (slots[i].tag != tag)
            continue;
        const Expr &e = shard.node(slots[i].index - 1);
        if (e.kind_ != kind || e.width_ != width || e.aux_ != aux)
            continue;
        // Unused kids are null, so comparing all three is structural
        // equality; a leaf's name follows from its value.
        if (leaf ? e.leaf_.value == value
                 : e.kids_[0] == k0 && e.kids_[1] == k1 && e.kids_[2] == k2)
            return &e;
    }

    S2E_ASSERT(shard.size < UINT32_MAX, "expression shard is full");
    if (shard.size % kChunkNodes == 0)
        shard.chunks.push_back(std::unique_ptr<Expr[]>(new Expr[kChunkNodes]));
    Expr &node = shard.node(shard.size++);
    node.kind_ = kind;
    node.width_ = static_cast<uint8_t>(width);
    node.aux_ = static_cast<uint8_t>(aux);
    node.hash_ = tag;
    if (leaf) {
        node.leaf_ = Expr::Leaf{value, name};
    } else {
        node.kids_[0] = k0;
        node.kids_[1] = k1;
        node.kids_[2] = k2;
    }
    slots[i] = {tag, static_cast<uint32_t>(shard.size)};

    if (shard.size * 4 > slots.size() * 3) {
        std::vector<Slot> grown(slots.size() * 2);
        mask = grown.size() - 1;
        for (const Slot &s : slots) {
            if (!s.index)
                continue;
            size_t j = s.tag & mask;
            while (grown[j].index)
                j = (j + 1) & mask;
            grown[j] = s;
        }
        slots.swap(grown);
    }
    return &node;
}

size_t
ExprBuilder::numNodes() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        n += shard.size;
    }
    return n;
}

ExprRef
ExprBuilder::constant(uint64_t value, unsigned width)
{
    S2E_ASSERT(width >= 1 && width <= 64, "bad constant width %u", width);
    return intern(Kind::Constant, width, 0, truncate(value, width), nullptr,
                  nullptr, nullptr, nullptr);
}

ExprRef
ExprBuilder::freshVar(const std::string &base, unsigned width)
{
    S2E_ASSERT(width >= 1 && width <= 64, "bad variable width %u", width);
    std::lock_guard<std::mutex> lock(varMu_);
    uint64_t id = nextVarId_++;
    names_.push_back(strprintf("%s#%llu", base.c_str(),
                               static_cast<unsigned long long>(id)));
    ExprRef v = intern(Kind::Variable, width, 0, id, nullptr, nullptr,
                       nullptr, &names_.back());
    varsById_.push_back(v);
    return v;
}

ExprRef
ExprBuilder::var(const std::string &name, unsigned width)
{
    std::lock_guard<std::mutex> lock(varMu_);
    auto it = namedVars_.find(name);
    if (it != namedVars_.end()) {
        S2E_ASSERT(it->second->width() == width,
                   "variable %s redeclared with width %u (was %u)",
                   name.c_str(), width, it->second->width());
        return it->second;
    }
    S2E_ASSERT(width >= 1 && width <= 64, "bad variable width %u", width);
    uint64_t id = nextVarId_++;
    names_.push_back(name);
    ExprRef v = intern(Kind::Variable, width, 0, id, nullptr, nullptr,
                       nullptr, &names_.back());
    varsById_.push_back(v);
    namedVars_[name] = v;
    return v;
}

ExprRef
ExprBuilder::varById(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(varMu_);
    S2E_ASSERT(id < varsById_.size(), "unknown variable id %llu",
               static_cast<unsigned long long>(id));
    return varsById_[id];
}

bool
ExprBuilder::structLess(ExprRef a, ExprRef b)
{
    // Hash-consing guarantees structurally equal nodes share an
    // address, so equality short-circuits the recursion.
    if (a == b)
        return false;
    if (a->kind() != b->kind())
        return a->kind() < b->kind();
    if (a->width() != b->width())
        return a->width() < b->width();
    if (a->aux() != b->aux())
        return a->aux() < b->aux();
    if (a->kind() == Kind::Constant)
        return a->value() < b->value();
    if (a->kind() == Kind::Variable)
        return a->name() < b->name();
    for (unsigned i = 0; i < a->arity(); ++i) {
        if (a->kid(i) == b->kid(i))
            continue;
        return structLess(a->kid(i), b->kid(i));
    }
    return false;
}

uint64_t
ExprBuilder::foldBinary(Kind kind, uint64_t a, uint64_t b, unsigned width)
{
    uint64_t mask = lowMask(width);
    a &= mask;
    b &= mask;
    switch (kind) {
      case Kind::Add: return (a + b) & mask;
      case Kind::Sub: return (a - b) & mask;
      case Kind::Mul: return (a * b) & mask;
      case Kind::UDiv: return b == 0 ? mask : (a / b);
      case Kind::URem: return b == 0 ? a : (a % b);
      case Kind::SDiv: {
        // Division by zero yields all-ones, mirroring the solver's
        // total-function semantics.
        if (b == 0)
            return mask;
        int64_t sa = signExtend(a, width);
        int64_t sb = signExtend(b, width);
        if (sb == -1 && sa == signExtend(1ULL << (width - 1), width))
            return a; // INT_MIN / -1 overflows to INT_MIN
        return static_cast<uint64_t>(sa / sb) & mask;
      }
      case Kind::SRem: {
        if (b == 0)
            return a;
        int64_t sa = signExtend(a, width);
        int64_t sb = signExtend(b, width);
        if (sb == -1)
            return 0;
        return static_cast<uint64_t>(sa % sb) & mask;
      }
      case Kind::And: return a & b;
      case Kind::Or: return a | b;
      case Kind::Xor: return a ^ b;
      case Kind::Shl: return b >= width ? 0 : (a << b) & mask;
      case Kind::LShr: return b >= width ? 0 : (a >> b);
      case Kind::AShr: {
        uint64_t sign_fill = signBit(a, width) ? mask : 0;
        if (b >= width)
            return sign_fill;
        return ((a >> b) |
                (signBit(a, width) ? (mask << (width - b)) & mask : 0)) &
               mask;
      }
      case Kind::Eq: return a == b;
      case Kind::Ult: return a < b;
      case Kind::Ule: return a <= b;
      case Kind::Slt: return signExtend(a, width) < signExtend(b, width);
      case Kind::Sle: return signExtend(a, width) <= signExtend(b, width);
      default:
        panic("foldBinary: kind %s is not binary", kindName(kind));
    }
}

ExprRef
ExprBuilder::binary(Kind kind, ExprRef a, ExprRef b)
{
    S2E_ASSERT(a->width() == b->width(), "%s width mismatch %u vs %u",
               kindName(kind), a->width(), b->width());
    unsigned w = a->width();

    if (a->isConstant() && b->isConstant())
        return constant(foldBinary(kind, a->value(), b->value(), w), w);

    // Canonicalize commutative operand order for better hash-consing:
    // constants to the right, otherwise deterministic structural order
    // (address order would vary with worker scheduling).
    switch (kind) {
      case Kind::Add:
      case Kind::Mul:
      case Kind::And:
      case Kind::Or:
      case Kind::Xor:
        if (a->isConstant() || (!b->isConstant() && structLess(b, a)))
            std::swap(a, b);
        break;
      default:
        break;
    }

    uint64_t bval = b->isConstant() ? b->value() : 0;
    bool bconst = b->isConstant();
    uint64_t ones = lowMask(w);

    // Local algebraic identities.
    switch (kind) {
      case Kind::Add:
        if (bconst && bval == 0)
            return a;
        break;
      case Kind::Sub:
        if (bconst && bval == 0)
            return a;
        if (a == b)
            return constant(0, w);
        break;
      case Kind::Mul:
        if (bconst && bval == 0)
            return b;
        if (bconst && bval == 1)
            return a;
        break;
      case Kind::And:
        if (bconst && bval == 0)
            return b;
        if (bconst && bval == ones)
            return a;
        if (a == b)
            return a;
        break;
      case Kind::Or:
        if (bconst && bval == 0)
            return a;
        if (bconst && bval == ones)
            return b;
        if (a == b)
            return a;
        break;
      case Kind::Xor:
        if (bconst && bval == 0)
            return a;
        if (a == b)
            return constant(0, w);
        break;
      case Kind::Shl:
      case Kind::LShr:
      case Kind::AShr:
        if (bconst && bval == 0)
            return a;
        break;
      case Kind::UDiv:
        if (bconst && bval == 1)
            return a;
        break;
      default:
        break;
    }

    return intern(kind, w, 0, 0, a, b, nullptr, nullptr);
}

ExprRef
ExprBuilder::add(ExprRef a, ExprRef b)
{
    return binary(Kind::Add, a, b);
}
ExprRef
ExprBuilder::sub(ExprRef a, ExprRef b)
{
    return binary(Kind::Sub, a, b);
}
ExprRef
ExprBuilder::mul(ExprRef a, ExprRef b)
{
    return binary(Kind::Mul, a, b);
}
ExprRef
ExprBuilder::udiv(ExprRef a, ExprRef b)
{
    return binary(Kind::UDiv, a, b);
}
ExprRef
ExprBuilder::sdiv(ExprRef a, ExprRef b)
{
    return binary(Kind::SDiv, a, b);
}
ExprRef
ExprBuilder::urem(ExprRef a, ExprRef b)
{
    return binary(Kind::URem, a, b);
}
ExprRef
ExprBuilder::srem(ExprRef a, ExprRef b)
{
    return binary(Kind::SRem, a, b);
}
ExprRef
ExprBuilder::bAnd(ExprRef a, ExprRef b)
{
    return binary(Kind::And, a, b);
}
ExprRef
ExprBuilder::bOr(ExprRef a, ExprRef b)
{
    return binary(Kind::Or, a, b);
}
ExprRef
ExprBuilder::bXor(ExprRef a, ExprRef b)
{
    return binary(Kind::Xor, a, b);
}
ExprRef
ExprBuilder::shl(ExprRef a, ExprRef amount)
{
    return binary(Kind::Shl, a, amount);
}
ExprRef
ExprBuilder::lshr(ExprRef a, ExprRef amount)
{
    return binary(Kind::LShr, a, amount);
}
ExprRef
ExprBuilder::ashr(ExprRef a, ExprRef amount)
{
    return binary(Kind::AShr, a, amount);
}

ExprRef
ExprBuilder::bNot(ExprRef a)
{
    if (a->isConstant())
        return constant(~a->value(), a->width());
    if (a->kind() == Kind::Not)
        return a->kid(0);
    return intern(Kind::Not, a->width(), 0, 0, a, nullptr, nullptr, nullptr);
}

ExprRef
ExprBuilder::neg(ExprRef a)
{
    if (a->isConstant())
        return constant(0 - a->value(), a->width());
    if (a->kind() == Kind::Neg)
        return a->kid(0);
    return intern(Kind::Neg, a->width(), 0, 0, a, nullptr, nullptr, nullptr);
}

ExprRef
ExprBuilder::concat(ExprRef high, ExprRef low)
{
    unsigned w = high->width() + low->width();
    S2E_ASSERT(w <= 64, "concat width %u exceeds 64", w);
    if (high->isConstant() && low->isConstant())
        return constant((high->value() << low->width()) | low->value(), w);
    // concat(0, x) == zext(x)
    if (high->isConstant() && high->value() == 0)
        return zext(low, w);
    return intern(Kind::Concat, w, 0, 0, high, low, nullptr, nullptr);
}

ExprRef
ExprBuilder::extract(ExprRef a, unsigned offset, unsigned width)
{
    S2E_ASSERT(width >= 1 && offset + width <= a->width(),
               "extract [%u,+%u) out of w%u", offset, width, a->width());
    if (offset == 0 && width == a->width())
        return a;
    if (a->isConstant())
        return constant(a->value() >> offset, width);
    // Extract through Concat when fully contained in one side.
    if (a->kind() == Kind::Concat) {
        ExprRef high = a->kid(0);
        ExprRef low = a->kid(1);
        if (offset + width <= low->width())
            return extract(low, offset, width);
        if (offset >= low->width())
            return extract(high, offset - low->width(), width);
    }
    // Extract through ZExt/SExt when inside the original value.
    if (a->kind() == Kind::ZExt || a->kind() == Kind::SExt) {
        ExprRef inner = a->kid(0);
        if (offset + width <= inner->width())
            return extract(inner, offset, width);
        if (a->kind() == Kind::ZExt && offset >= inner->width())
            return constant(0, width);
    }
    // Extract of Extract composes.
    if (a->kind() == Kind::Extract)
        return extract(a->kid(0), a->aux() + offset, width);
    return intern(Kind::Extract, width, offset, 0, a, nullptr, nullptr,
                  nullptr);
}

ExprRef
ExprBuilder::zext(ExprRef a, unsigned width)
{
    S2E_ASSERT(width >= a->width() && width <= 64, "zext w%u -> w%u",
               a->width(), width);
    if (width == a->width())
        return a;
    if (a->isConstant())
        return constant(a->value(), width);
    if (a->kind() == Kind::ZExt)
        return zext(a->kid(0), width);
    return intern(Kind::ZExt, width, 0, 0, a, nullptr, nullptr, nullptr);
}

ExprRef
ExprBuilder::sext(ExprRef a, unsigned width)
{
    S2E_ASSERT(width >= a->width() && width <= 64, "sext w%u -> w%u",
               a->width(), width);
    if (width == a->width())
        return a;
    if (a->isConstant())
        return constant(
            static_cast<uint64_t>(signExtend(a->value(), a->width())),
            width);
    if (a->kind() == Kind::SExt)
        return sext(a->kid(0), width);
    return intern(Kind::SExt, width, 0, 0, a, nullptr, nullptr, nullptr);
}

ExprRef
ExprBuilder::compare(Kind kind, ExprRef a, ExprRef b)
{
    S2E_ASSERT(a->width() == b->width(), "%s width mismatch %u vs %u",
               kindName(kind), a->width(), b->width());
    if (a->isConstant() && b->isConstant())
        return boolean(
            foldBinary(kind, a->value(), b->value(), a->width()) != 0);
    if (a == b) {
        switch (kind) {
          case Kind::Eq:
          case Kind::Ule:
          case Kind::Sle:
            return true_;
          case Kind::Ult:
          case Kind::Slt:
            return false_;
          default:
            break;
        }
    }
    if (kind == Kind::Eq) {
        // Canonicalize constant to the right.
        if (a->isConstant())
            std::swap(a, b);
        // eq(x:w1, 1) == x ; eq(x:w1, 0) == not x
        if (a->width() == 1 && b->isConstant())
            return b->value() ? a : bNot(a);
        // eq(zext(x), c): compare at the narrow width (branch
        // conditions on widened flag bits fold back to the flag).
        if (a->kind() == Kind::ZExt && b->isConstant()) {
            unsigned iw = a->kid(0)->width();
            if (b->value() >> iw)
                return false_; // constant outside zext range
            return eq(a->kid(0), constant(b->value(), iw));
        }
        if (!a->isConstant() && !b->isConstant() && structLess(b, a))
            std::swap(a, b);
    }
    return intern(kind, 1, 0, 0, a, b, nullptr, nullptr);
}

ExprRef
ExprBuilder::eq(ExprRef a, ExprRef b)
{
    return compare(Kind::Eq, a, b);
}
ExprRef
ExprBuilder::ne(ExprRef a, ExprRef b)
{
    return bNot(eq(a, b));
}
ExprRef
ExprBuilder::ult(ExprRef a, ExprRef b)
{
    return compare(Kind::Ult, a, b);
}
ExprRef
ExprBuilder::ule(ExprRef a, ExprRef b)
{
    return compare(Kind::Ule, a, b);
}
ExprRef
ExprBuilder::slt(ExprRef a, ExprRef b)
{
    return compare(Kind::Slt, a, b);
}
ExprRef
ExprBuilder::sle(ExprRef a, ExprRef b)
{
    return compare(Kind::Sle, a, b);
}

ExprRef
ExprBuilder::ite(ExprRef cond, ExprRef thenE, ExprRef elseE)
{
    S2E_ASSERT(cond->width() == 1, "ite condition must be width 1");
    S2E_ASSERT(thenE->width() == elseE->width(), "ite arm width mismatch");
    if (cond->isConstant())
        return cond->value() ? thenE : elseE;
    if (thenE == elseE)
        return thenE;
    // ite(c, 1, 0) == c ; ite(c, 0, 1) == !c (width-1 arms)
    if (thenE->width() == 1 && thenE->isConstant() && elseE->isConstant()) {
        if (thenE->value() == 1 && elseE->value() == 0)
            return cond;
        if (thenE->value() == 0 && elseE->value() == 1)
            return bNot(cond);
    }
    return intern(Kind::Ite, thenE->width(), 0, 0, cond, thenE, elseE,
                  nullptr);
}

} // namespace s2e::expr
