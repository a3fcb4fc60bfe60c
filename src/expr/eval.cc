#include "expr/eval.hh"

#include "expr/builder.hh"
#include "support/bitops.hh"

namespace s2e::expr {

void
Evaluator::reset(const Assignment &a)
{
    assignment_ = &a;
    memo_.clear();
}

uint64_t
Evaluator::evaluate(ExprRef e)
{
    S2E_ASSERT(assignment_, "Evaluator::evaluate before reset");
    return evalNode(e);
}

uint64_t
Evaluator::evalNode(ExprRef e)
{
    // Leaves are cheaper to recompute than to memoize.
    if (e->isConstant())
        return e->value();
    if (e->isVariable())
        return truncate(assignment_->lookup(e->varId()), e->width());
    if (const uint64_t *memo = memo_.find(e))
        return *memo;

    uint64_t result = 0;
    switch (e->kind()) {
      case Kind::Not:
        result = truncate(~evalNode(e->kid(0)), e->width());
        break;
      case Kind::Neg:
        result = truncate(0 - evalNode(e->kid(0)), e->width());
        break;
      case Kind::Extract:
        result = truncate(evalNode(e->kid(0)) >> e->aux(), e->width());
        break;
      case Kind::ZExt:
        result = evalNode(e->kid(0));
        break;
      case Kind::SExt: {
        uint64_t v = evalNode(e->kid(0));
        result = truncate(
            static_cast<uint64_t>(signExtend(v, e->kid(0)->width())),
            e->width());
        break;
      }
      case Kind::Concat: {
        uint64_t hi = evalNode(e->kid(0));
        uint64_t lo = evalNode(e->kid(1));
        result = (hi << e->kid(1)->width()) | lo;
        break;
      }
      case Kind::Ite:
        result = evalNode(e->kid(0)) ? evalNode(e->kid(1))
                                     : evalNode(e->kid(2));
        break;
      default: {
        uint64_t x = evalNode(e->kid(0));
        uint64_t y = evalNode(e->kid(1));
        // Comparisons operate at the operand width, not the result width.
        unsigned w = (e->width() == 1 && e->kid(0)->width() != 1)
                         ? e->kid(0)->width()
                         : e->width();
        switch (e->kind()) {
          case Kind::Eq:
          case Kind::Ult:
          case Kind::Ule:
          case Kind::Slt:
          case Kind::Sle:
            w = e->kid(0)->width();
            break;
          default:
            break;
        }
        result = ExprBuilder::foldBinary(e->kind(), x, y, w);
        break;
      }
    }

    memo_.insert(e, result);
    return result;
}

} // namespace s2e::expr
