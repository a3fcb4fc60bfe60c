#include "expr/expr.hh"

#include "expr/nodetable.hh"

#include "support/logging.hh"

namespace s2e::expr {

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Constant: return "const";
      case Kind::Variable: return "var";
      case Kind::Add: return "add";
      case Kind::Sub: return "sub";
      case Kind::Mul: return "mul";
      case Kind::UDiv: return "udiv";
      case Kind::SDiv: return "sdiv";
      case Kind::URem: return "urem";
      case Kind::SRem: return "srem";
      case Kind::And: return "and";
      case Kind::Or: return "or";
      case Kind::Xor: return "xor";
      case Kind::Not: return "not";
      case Kind::Neg: return "neg";
      case Kind::Shl: return "shl";
      case Kind::LShr: return "lshr";
      case Kind::AShr: return "ashr";
      case Kind::Concat: return "concat";
      case Kind::Extract: return "extract";
      case Kind::ZExt: return "zext";
      case Kind::SExt: return "sext";
      case Kind::Eq: return "eq";
      case Kind::Ult: return "ult";
      case Kind::Ule: return "ule";
      case Kind::Slt: return "slt";
      case Kind::Sle: return "sle";
      case Kind::Ite: return "ite";
    }
    panic("kindName: bad kind %d", static_cast<int>(kind));
}

const std::string &
Expr::name() const
{
    S2E_ASSERT(isVariable() && leaf_.name, "name() on non-variable");
    return *leaf_.name;
}

namespace {
void
countNodes(ExprRef e, NodeTable<bool> &seen)
{
    if (!seen.insert(e).second)
        return;
    for (unsigned i = 0; i < e->arity(); ++i)
        countNodes(e->kid(i), seen);
}
} // namespace

size_t
Expr::nodeCount() const
{
    // One table per thread, reused call after call: footprint
    // accounting counts every constraint of a state after each slice.
    thread_local NodeTable<bool> seen;
    seen.clear();
    countNodes(this, seen);
    return seen.size();
}

std::string
Expr::toString() const
{
    switch (kind_) {
      case Kind::Constant:
        return strprintf("(const w%u %llu)", width(),
                         static_cast<unsigned long long>(leaf_.value));
      case Kind::Variable:
        return strprintf("%s:w%u", leaf_.name->c_str(), width());
      case Kind::Extract:
        return strprintf("(extract w%u @%u %s)", width(), aux(),
                         kids_[0]->toString().c_str());
      case Kind::ZExt:
      case Kind::SExt:
        return strprintf("(%s w%u %s)", kindName(kind_), width(),
                         kids_[0]->toString().c_str());
      default: {
        std::string s = strprintf("(%s w%u", kindName(kind_), width());
        for (unsigned i = 0; i < arity(); ++i) {
            s += ' ';
            s += kids_[i]->toString();
        }
        return s + ")";
      }
    }
}

} // namespace s2e::expr
