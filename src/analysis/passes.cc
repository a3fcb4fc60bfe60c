#include "analysis/passes.hh"

#include <vector>

#include "analysis/dataflow.hh"
#include "dbt/semantics.hh"

namespace s2e::analysis {

using dbt::MicroOp;
using dbt::TranslationBlock;
using dbt::UOp;

namespace {

/**
 * Drop the ops where keep[i] is false and shift instrOpIndex so each
 * instruction still points at its first surviving op.
 */
size_t
removeOps(TranslationBlock &tb, const std::vector<bool> &keep)
{
    // new_index_before[i] = surviving ops among ops[0..i).
    std::vector<uint32_t> new_index_before(tb.ops.size() + 1, 0);
    for (size_t i = 0; i < tb.ops.size(); ++i)
        new_index_before[i + 1] =
            new_index_before[i] + (keep[i] ? 1 : 0);

    size_t removed = tb.ops.size() - new_index_before[tb.ops.size()];
    if (removed == 0)
        return 0;

    std::vector<MicroOp> kept;
    kept.reserve(new_index_before[tb.ops.size()]);
    for (size_t i = 0; i < tb.ops.size(); ++i)
        if (keep[i])
            kept.push_back(tb.ops[i]);
    tb.ops = std::move(kept);

    for (auto &idx : tb.instrOpIndex)
        idx = new_index_before[idx];
    return removed;
}

} // namespace

size_t
constantFold(TranslationBlock &tb, PassStats *stats)
{
    Constants consts = computeConstants(tb);
    size_t folded = 0;
    for (size_t i = 0; i < tb.ops.size(); ++i) {
        MicroOp &op = tb.ops[i];
        if (op.op == UOp::Branch && consts.branchTarget) {
            MicroOp folded_goto;
            folded_goto.op = UOp::Goto;
            folded_goto.imm = *consts.branchTarget;
            op = folded_goto;
            if (stats)
                stats->branchesFolded++;
            continue;
        }
        if (!consts.result[i] || op.op == UOp::Const)
            continue;
        // Only pure producers may be replaced; Load/In keep their
        // side effects even when their result were predictable.
        if (op.op == UOp::GetReg || op.op == UOp::GetFlag ||
            dbt::isAluUnary(op.op) || dbt::isAluBinary(op.op)) {
            MicroOp c;
            c.op = UOp::Const;
            c.dst = op.dst;
            c.imm = *consts.result[i];
            op = c;
            folded++;
        }
    }
    if (stats)
        stats->constFolded += folded;
    return folded;
}

size_t
deadFlagElim(TranslationBlock &tb, PassStats *stats)
{
    // Forward scan: a SetFlag is dead when the same flag is written
    // again before any read. Reads are GetFlag and — conservatively —
    // any S2Op (execS2Op may fork/kill the path, making the packed
    // flags observable). The terminator keeps the final writers
    // alive: flags are architectural state across blocks.
    std::vector<bool> keep(tb.ops.size(), true);
    int last_set[kNumFlags] = {-1, -1, -1, -1};
    size_t removed = 0;

    for (size_t i = 0; i < tb.ops.size(); ++i) {
        const MicroOp &op = tb.ops[i];
        switch (op.op) {
          case UOp::GetFlag:
            if (op.reg < kNumFlags)
                last_set[op.reg] = -1;
            break;
          case UOp::SetFlag:
            if (op.reg < kNumFlags) {
                if (last_set[op.reg] >= 0) {
                    keep[last_set[op.reg]] = false;
                    removed++;
                }
                last_set[op.reg] = static_cast<int>(i);
            }
            break;
          case UOp::S2Op:
          case UOp::IntSw:
          case UOp::IretOp:
            for (auto &s : last_set)
                s = -1;
            break;
          default:
            break;
        }
    }
    removeOps(tb, keep);
    if (stats)
        stats->deadFlagOps += removed;
    return removed;
}

size_t
deadTempElim(TranslationBlock &tb, PassStats *stats)
{
    Liveness lv = computeLiveness(tb);
    size_t removed = removeOps(tb, lv.liveOps);
    if (stats) {
        // computeLiveness also classifies dead SetFlags; attribute
        // them separately so the stats stay meaningful when this pass
        // runs without deadFlagElim.
        stats->deadFlagOps += lv.deadFlagWrites;
        stats->deadTempOps += removed - lv.deadFlagWrites;
    }
    return removed;
}

void
compactTemps(TranslationBlock &tb)
{
    constexpr uint16_t kUnmapped = 0xFFFF;
    std::vector<uint16_t> remap(tb.numTemps, kUnmapped);
    uint16_t next = 0;
    for (auto &op : tb.ops) {
        OpEffects e = effectsOf(op);
        auto map = [&](uint16_t t) {
            if (t < remap.size() && remap[t] == kUnmapped)
                remap[t] = next++;
            return t < remap.size() ? remap[t] : t;
        };
        // Map in program order; defs first keeps ids roughly ordered.
        if (e.defsTemp)
            op.dst = map(op.dst);
        if (e.usesA)
            op.a = map(op.a);
        if (e.usesB)
            op.b = map(op.b);
    }
    tb.numTemps = next;
}

void
optimizeBlock(TranslationBlock &tb, PassStats *stats)
{
    if (tb.instrPcs.empty())
        return; // decode-fault block, nothing to do
    if (stats) {
        stats->opsBefore = tb.ops.size();
        stats->tempsBefore = tb.numTemps;
    }
    // Each pass can expose work for the others (a folded branch kills
    // its condition chain; removed SetFlags strand their temps), so
    // iterate to fixpoint. Two rounds settle almost every block.
    for (unsigned round = 0; round < 4; ++round) {
        size_t changed = 0;
        changed += constantFold(tb, stats);
        changed += deadFlagElim(tb, stats);
        changed += deadTempElim(tb, stats);
        if (stats)
            stats->iterations = round + 1;
        if (changed == 0)
            break;
    }
    compactTemps(tb);
    if (stats) {
        stats->opsAfter = tb.ops.size();
        stats->tempsAfter = tb.numTemps;
    }
}

} // namespace s2e::analysis
