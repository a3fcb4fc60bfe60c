/** @file Unit and property tests for the expression library. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "expr/builder.hh"
#include "expr/eval.hh"
#include "expr/nodetable.hh"
#include "expr/vars.hh"
#include "support/bitops.hh"
#include "support/rng.hh"

namespace s2e::expr {
namespace {

class ExprTest : public ::testing::Test
{
  protected:
    ExprBuilder b;
};

TEST_F(ExprTest, ConstantsAreInterned)
{
    EXPECT_EQ(b.constant(5, 32), b.constant(5, 32));
    EXPECT_NE(b.constant(5, 32), b.constant(5, 16));
    EXPECT_NE(b.constant(5, 32), b.constant(6, 32));
}

TEST_F(ExprTest, ConstantsTruncate)
{
    EXPECT_EQ(b.constant(0x1FF, 8)->value(), 0xFFu);
}

TEST_F(ExprTest, StructuralSharing)
{
    ExprRef x = b.var("x", 32);
    ExprRef e1 = b.add(x, b.constant(1, 32));
    ExprRef e2 = b.add(x, b.constant(1, 32));
    EXPECT_EQ(e1, e2);
}

TEST_F(ExprTest, NamedVarIsStable)
{
    EXPECT_EQ(b.var("x", 32), b.var("x", 32));
    EXPECT_NE(b.var("x", 32), b.var("y", 32));
}

TEST_F(ExprTest, FreshVarsDiffer)
{
    EXPECT_NE(b.freshVar("v", 8), b.freshVar("v", 8));
}

TEST_F(ExprTest, ConstantFolding)
{
    EXPECT_EQ(b.add(b.constant(3, 8), b.constant(4, 8)), b.constant(7, 8));
    EXPECT_EQ(b.mul(b.constant(16, 8), b.constant(16, 8)),
              b.constant(0, 8)); // wraps
    EXPECT_EQ(b.sub(b.constant(0, 8), b.constant(1, 8)),
              b.constant(0xFF, 8));
}

TEST_F(ExprTest, DivisionByZeroSemantics)
{
    // udiv by 0 yields all-ones; urem by 0 yields the dividend.
    EXPECT_EQ(b.udiv(b.constant(7, 8), b.constant(0, 8)),
              b.constant(0xFF, 8));
    EXPECT_EQ(b.urem(b.constant(7, 8), b.constant(0, 8)), b.constant(7, 8));
}

TEST_F(ExprTest, SignedDivisionEdgeCases)
{
    // INT_MIN / -1 == INT_MIN (wraps).
    EXPECT_EQ(b.sdiv(b.constant(0x80, 8), b.constant(0xFF, 8)),
              b.constant(0x80, 8));
    EXPECT_EQ(b.srem(b.constant(0x80, 8), b.constant(0xFF, 8)),
              b.constant(0, 8));
    EXPECT_EQ(b.sdiv(b.constant(0xF9, 8), b.constant(2, 8)),
              b.constant(0xFD, 8)); // -7 / 2 == -3
}

TEST_F(ExprTest, Identities)
{
    ExprRef x = b.var("x", 32);
    ExprRef zero = b.constant(0, 32);
    ExprRef ones = b.constant(~0u, 32);
    EXPECT_EQ(b.add(x, zero), x);
    EXPECT_EQ(b.sub(x, zero), x);
    EXPECT_EQ(b.sub(x, x), zero);
    EXPECT_EQ(b.mul(x, b.constant(1, 32)), x);
    EXPECT_EQ(b.mul(x, zero), zero);
    EXPECT_EQ(b.bAnd(x, zero), zero);
    EXPECT_EQ(b.bAnd(x, ones), x);
    EXPECT_EQ(b.bOr(x, zero), x);
    EXPECT_EQ(b.bOr(x, ones), ones);
    EXPECT_EQ(b.bXor(x, x), zero);
    EXPECT_EQ(b.bXor(x, zero), x);
    EXPECT_EQ(b.shl(x, zero), x);
    EXPECT_EQ(b.bNot(b.bNot(x)), x);
    EXPECT_EQ(b.neg(b.neg(x)), x);
}

TEST_F(ExprTest, CommutativeCanonicalization)
{
    ExprRef x = b.var("x", 32);
    ExprRef y = b.var("y", 32);
    EXPECT_EQ(b.add(x, y), b.add(y, x));
    EXPECT_EQ(b.mul(x, y), b.mul(y, x));
    EXPECT_EQ(b.bAnd(x, y), b.bAnd(y, x));
    EXPECT_EQ(b.eq(x, y), b.eq(y, x));
}

TEST_F(ExprTest, CompareFolding)
{
    ExprRef x = b.var("x", 32);
    EXPECT_TRUE(b.eq(x, x)->isTrue());
    EXPECT_TRUE(b.ule(x, x)->isTrue());
    EXPECT_TRUE(b.ult(x, x)->isFalse());
    EXPECT_TRUE(b.ult(b.constant(3, 8), b.constant(5, 8))->isTrue());
    EXPECT_TRUE(b.slt(b.constant(0xFF, 8), b.constant(0, 8))->isTrue());
}

TEST_F(ExprTest, BoolEqualitySimplifies)
{
    ExprRef c = b.eq(b.var("x", 32), b.constant(1, 32));
    EXPECT_EQ(b.eq(c, b.trueExpr()), c);
    EXPECT_EQ(b.eq(c, b.falseExpr()), b.lnot(c));
}

TEST_F(ExprTest, ExtractOfConcat)
{
    ExprRef hi = b.var("hi", 8);
    ExprRef lo = b.var("lo", 8);
    ExprRef cc = b.concat(hi, lo);
    EXPECT_EQ(cc->width(), 16u);
    EXPECT_EQ(b.extract(cc, 0, 8), lo);
    EXPECT_EQ(b.extract(cc, 8, 8), hi);
}

TEST_F(ExprTest, ExtractCompose)
{
    ExprRef x = b.var("x", 32);
    ExprRef e = b.extract(b.extract(x, 8, 16), 4, 8);
    EXPECT_EQ(e, b.extract(x, 12, 8));
}

TEST_F(ExprTest, ExtractOfZExtAboveOriginal)
{
    ExprRef x = b.var("x", 8);
    ExprRef e = b.extract(b.zext(x, 32), 16, 8);
    EXPECT_EQ(e, b.constant(0, 8));
    EXPECT_EQ(b.extract(b.zext(x, 32), 0, 8), x);
}

TEST_F(ExprTest, ZExtSExtChains)
{
    ExprRef x = b.var("x", 8);
    EXPECT_EQ(b.zext(b.zext(x, 16), 32), b.zext(x, 32));
    EXPECT_EQ(b.sext(b.sext(x, 16), 32), b.sext(x, 32));
    EXPECT_EQ(b.zext(x, 8), x);
}

TEST_F(ExprTest, ConcatZeroHighIsZExt)
{
    ExprRef x = b.var("x", 8);
    EXPECT_EQ(b.concat(b.constant(0, 8), x), b.zext(x, 16));
}

TEST_F(ExprTest, IteSimplifications)
{
    ExprRef c = b.eq(b.var("x", 32), b.constant(0, 32));
    ExprRef a = b.var("a", 8);
    EXPECT_EQ(b.ite(b.trueExpr(), a, b.constant(0, 8)), a);
    EXPECT_EQ(b.ite(b.falseExpr(), a, b.constant(0, 8)), b.constant(0, 8));
    EXPECT_EQ(b.ite(c, a, a), a);
    EXPECT_EQ(b.ite(c, b.trueExpr(), b.falseExpr()), c);
    EXPECT_EQ(b.ite(c, b.falseExpr(), b.trueExpr()), b.lnot(c));
}

TEST_F(ExprTest, EvaluateLeaves)
{
    ExprRef x = b.var("x", 32);
    Assignment a;
    a.set(x, 41);
    EXPECT_EQ(evaluate(x, a), 41u);
    EXPECT_EQ(evaluate(b.constant(7, 16), a), 7u);
}

TEST_F(ExprTest, EvaluateCompound)
{
    ExprRef x = b.var("x", 32);
    ExprRef y = b.var("y", 32);
    Assignment a;
    a.set(x, 10);
    a.set(y, 3);
    EXPECT_EQ(evaluate(b.add(x, y), a), 13u);
    EXPECT_EQ(evaluate(b.sub(x, y), a), 7u);
    EXPECT_EQ(evaluate(b.mul(x, y), a), 30u);
    EXPECT_EQ(evaluate(b.udiv(x, y), a), 3u);
    EXPECT_EQ(evaluate(b.urem(x, y), a), 1u);
    EXPECT_TRUE(evaluateBool(b.ult(y, x), a));
    EXPECT_FALSE(evaluateBool(b.eq(x, y), a));
}

TEST_F(ExprTest, EvaluateSignedOps)
{
    ExprRef x = b.var("x", 8);
    Assignment a;
    a.set(x, 0xF9); // -7
    EXPECT_EQ(evaluate(b.sdiv(x, b.constant(2, 8)), a), 0xFDu); // -3
    EXPECT_EQ(evaluate(b.ashr(x, b.constant(1, 8)), a), 0xFCu); // -4
    EXPECT_TRUE(evaluateBool(b.slt(x, b.constant(0, 8)), a));
    EXPECT_FALSE(evaluateBool(b.ult(x, b.constant(0x80, 8)), a));
}

TEST_F(ExprTest, EvaluateWidthChangers)
{
    ExprRef x = b.var("x", 8);
    Assignment a;
    a.set(x, 0x9A);
    EXPECT_EQ(evaluate(b.zext(x, 16), a), 0x9Au);
    EXPECT_EQ(evaluate(b.sext(x, 16), a), 0xFF9Au);
    EXPECT_EQ(evaluate(b.extract(x, 4, 4), a), 0x9u);
    EXPECT_EQ(evaluate(b.concat(x, x), a), 0x9A9Au);
}

TEST_F(ExprTest, NodeCountSharesSubtrees)
{
    ExprRef x = b.var("x", 32);
    ExprRef sum = b.add(x, x);
    EXPECT_EQ(sum->nodeCount(), 2u);
    // x, y, the sum, the difference and the product.
    ExprRef prod = b.mul(sum, b.sub(sum, b.var("y", 32)));
    EXPECT_EQ(prod->nodeCount(), 5u);
    // The walk's table is reused; each count forgets the last walk.
    EXPECT_EQ(sum->nodeCount(), 2u);
    EXPECT_EQ(x->nodeCount(), 1u);
}

TEST_F(ExprTest, ToStringRoundTripMentions)
{
    ExprRef x = b.var("x", 32);
    ExprRef e = b.add(x, b.constant(4, 32));
    std::string s = e->toString();
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("x"), std::string::npos);
}

/**
 * Property test: builder folding must agree with the evaluator on
 * random expressions. Builds random trees and checks that evaluating
 * the built (possibly folded) tree matches direct computation.
 */
TEST_F(ExprTest, PropertyFoldingMatchesEval)
{
    Rng rng(123);
    ExprRef x = b.var("x", 16);
    ExprRef y = b.var("y", 16);

    for (int iter = 0; iter < 500; ++iter) {
        uint64_t xv = rng.next() & 0xFFFF;
        uint64_t yv = rng.next() & 0xFFFF;
        Assignment a;
        a.set(x, xv);
        a.set(y, yv);

        // Build a random 2-level expression.
        auto operand = [&](int pick) -> ExprRef {
            switch (pick % 3) {
              case 0: return x;
              case 1: return y;
              default: return b.constant(rng.next(), 16);
            }
        };
        Kind kinds[] = {Kind::Add, Kind::Sub, Kind::Mul, Kind::UDiv,
                        Kind::URem, Kind::And, Kind::Or, Kind::Xor,
                        Kind::Shl, Kind::LShr, Kind::AShr, Kind::SDiv,
                        Kind::SRem};
        Kind k = kinds[rng.below(13)];
        ExprRef lhs = operand(static_cast<int>(rng.next()));
        ExprRef rhs = operand(static_cast<int>(rng.next()));

        ExprRef built;
        switch (k) {
          case Kind::Add: built = b.add(lhs, rhs); break;
          case Kind::Sub: built = b.sub(lhs, rhs); break;
          case Kind::Mul: built = b.mul(lhs, rhs); break;
          case Kind::UDiv: built = b.udiv(lhs, rhs); break;
          case Kind::URem: built = b.urem(lhs, rhs); break;
          case Kind::And: built = b.bAnd(lhs, rhs); break;
          case Kind::Or: built = b.bOr(lhs, rhs); break;
          case Kind::Xor: built = b.bXor(lhs, rhs); break;
          case Kind::Shl: built = b.shl(lhs, rhs); break;
          case Kind::LShr: built = b.lshr(lhs, rhs); break;
          case Kind::AShr: built = b.ashr(lhs, rhs); break;
          case Kind::SDiv: built = b.sdiv(lhs, rhs); break;
          default: built = b.srem(lhs, rhs); break;
        }

        uint64_t expect = ExprBuilder::foldBinary(k, evaluate(lhs, a),
                                                  evaluate(rhs, a), 16);
        EXPECT_EQ(evaluate(built, a), expect)
            << kindName(k) << " lhs=" << evaluate(lhs, a)
            << " rhs=" << evaluate(rhs, a);
    }
}

/**
 * Builds a seeded stream of 32-bit expressions (constants, the named
 * variable x, binary ops, compare-fed ites, extract+zext), each from
 * earlier results, and returns every node the stream produced. The
 * stream depends only on the seed, so any builder yields the same
 * structures in the same order.
 */
std::vector<ExprRef>
buildStream(ExprBuilder &b, uint64_t seed, int steps)
{
    Rng rng(seed);
    std::vector<ExprRef> pool = {b.var("x", 32), b.constant(7, 32)};
    std::vector<ExprRef> out;
    for (int i = 0; i < steps; ++i) {
        ExprRef l = pool[rng.below(pool.size())];
        ExprRef r = pool[rng.below(pool.size())];
        ExprRef e;
        switch (rng.below(6)) {
          case 0: e = b.constant(rng.next(), 32); break;
          case 1: e = b.var("x", 32); break;
          case 2: {
            ExprRef (ExprBuilder::*ops[])(ExprRef, ExprRef) = {
                &ExprBuilder::add, &ExprBuilder::sub, &ExprBuilder::mul,
                &ExprBuilder::bAnd, &ExprBuilder::bOr, &ExprBuilder::bXor,
                &ExprBuilder::shl, &ExprBuilder::lshr};
            e = (b.*ops[rng.below(8)])(l, r);
            break;
          }
          case 3: {
            ExprRef (ExprBuilder::*cmps[])(ExprRef, ExprRef) = {
                &ExprBuilder::eq, &ExprBuilder::ult, &ExprBuilder::slt};
            ExprRef cond = (b.*cmps[rng.below(3)])(l, r);
            out.push_back(cond);
            e = b.ite(cond, l, r);
            break;
          }
          case 4: {
            ExprRef byte = b.extract(l, 8 * rng.below(4), 8);
            out.push_back(byte);
            e = b.zext(byte, 32);
            break;
          }
          default: e = b.neg(l); break;
        }
        pool.push_back(e);
        out.push_back(e);
    }
    return out;
}

TEST(ExprBuilder, ConcurrentInternIsCanonical)
{
    constexpr int kThreads = 4;
    constexpr int kSteps = 4000;
    constexpr int kFresh = 200;
    ExprBuilder shared;
    std::vector<std::vector<ExprRef>> streams(kThreads);
    std::vector<std::vector<ExprRef>> fresh(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kFresh; ++i)
                fresh[t].push_back(shared.freshVar("t", 8));
            streams[t] = buildStream(shared, 99, kSteps);
        });
    }
    go.store(true);
    for (auto &th : threads)
        th.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(streams[t], streams[0]) << "thread " << t;

    ExprBuilder single;
    std::vector<ExprRef> reference = buildStream(single, 99, kSteps);
    ASSERT_EQ(reference.size(), streams[0].size());
    for (size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(reference[i]->toString(), streams[0][i]->toString());
    EXPECT_EQ(shared.numNodes(),
              single.numNodes() + size_t{kThreads} * kFresh);

    std::set<uint64_t> ids;
    for (const auto &vars : fresh) {
        for (ExprRef v : vars) {
            EXPECT_TRUE(ids.insert(v->varId()).second);
            EXPECT_EQ(shared.varById(v->varId()), v);
        }
    }
    EXPECT_EQ(shared.numVars(), 1 + uint64_t{kThreads} * kFresh);
}

TEST(ExprBuilder, GrowthKeepsIdentity)
{
    // 120k nodes over 16 shards is ~7.5k per shard: about nine table
    // doublings each from the initial 16 slots.
    ExprBuilder b;
    ExprRef x = b.var("x", 32);
    auto build = [&] {
        std::vector<ExprRef> nodes;
        for (uint64_t i = 1; i <= 60000; ++i) {
            nodes.push_back(b.constant(i << 8, 32));
            nodes.push_back(b.bXor(x, b.constant(i, 32)));
        }
        return nodes;
    };
    std::vector<ExprRef> first = build();
    size_t count = b.numNodes();
    EXPECT_GE(count, 120000u);
    EXPECT_EQ(build(), first);
    EXPECT_EQ(b.numNodes(), count);

    // Nodes that differ in one field over the same kids stay distinct.
    ExprRef y = b.var("y", 32);
    ExprRef x8 = b.extract(x, 0, 8);
    auto buildNear = [&] {
        return std::vector<ExprRef>{
            b.add(x, y), b.sub(x, y), b.mul(x, y), b.bAnd(x, y),
            b.bOr(x, y), b.bXor(x, y), b.udiv(x, y), b.urem(x, y),
            b.eq(x, y), b.ult(x, y), b.ule(x, y), b.slt(x, y),
            b.sle(x, y), b.zext(x8, 16), b.zext(x8, 32), b.sext(x8, 16),
            b.sext(x8, 32), x8, b.extract(x, 8, 8), b.extract(x, 16, 8),
            b.extract(x, 0, 16), b.constant(5, 32), b.constant(5, 16),
            b.constant(6, 32)};
    };
    std::vector<ExprRef> near = buildNear();
    EXPECT_EQ(std::set<ExprRef>(near.begin(), near.end()).size(),
              near.size());
    size_t withNear = b.numNodes();
    EXPECT_EQ(buildNear(), near);
    EXPECT_EQ(b.numNodes(), withNear);
}

TEST(ExprBuilder, FullHashCollisionStaysDistinct)
{
    // Solve for a 64-bit constant whose full 64-bit hash equals that
    // of (const w32 5), mirroring computeHash() in builder.cc for
    // constants (kind 0, aux 0, no kids): the two nodes then share a
    // tag, a shard and a probe sequence, and only the slot's
    // field-by-field comparison tells them apart.
    constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
    auto mix = [](uint64_t h, uint64_t v) {
        return h ^ (v + kGolden + (h << 6) + (h >> 2));
    };
    auto prefix = [&](unsigned width) { return mix(mix(0, width), 0); };
    uint64_t target = mix(prefix(32), 5);
    uint64_t h64 = prefix(64);
    uint64_t value = (target ^ h64) - (kGolden + (h64 << 6) + (h64 >> 2));

    ExprBuilder b;
    ExprRef narrow = b.constant(5, 32);
    ExprRef wide = b.constant(value, 64);
    ASSERT_EQ(narrow->hash(), wide->hash()) << "hash function changed";
    EXPECT_NE(narrow, wide);
    EXPECT_EQ(wide->width(), 64u);
    EXPECT_EQ(wide->value(), value);
    EXPECT_EQ(b.constant(value, 64), wide);
    EXPECT_EQ(b.constant(5, 32), narrow);
}

TEST(ExprBuilder, TagCollisionStaysDistinct)
{
    // Nodes and slots keep a 32-bit fold of the hash, which also picks
    // the shard and the probe start. Among up to 2^20 constants two
    // share that tag (birthday bound) though their full hashes differ.
    ExprBuilder b;
    std::unordered_map<uint64_t, ExprRef> byTag;
    ExprRef first = nullptr;
    ExprRef second = nullptr;
    for (uint64_t v = 0; v < (uint64_t{1} << 20) && !second; ++v) {
        ExprRef c = b.constant(v, 32);
        auto [it, inserted] = byTag.emplace(c->hash(), c);
        if (!inserted) {
            first = it->second;
            second = c;
        }
    }
    ASSERT_NE(second, nullptr) << "no tag collision among 2^20 constants";
    EXPECT_NE(first, second);
    EXPECT_NE(first->value(), second->value());
    EXPECT_EQ(b.constant(first->value(), 32), first);
    EXPECT_EQ(b.constant(second->value(), 32), second);
    ExprRef x = b.var("x", 32);
    EXPECT_NE(b.add(x, first), b.add(x, second));
}

TEST(ExprBuilder, LeavesAndInnerNodesDoNotAlias)
{
    // A leaf's {value, name} and an inner node's kids share storage.
    // A constant whose value is a kid's address and the inner nodes
    // over that kid stay distinct, and each reads back its own fields.
    ExprBuilder b;
    ExprRef x = b.var("x", 64);
    auto bits = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(x));
    ExprRef c = b.constant(bits, 64);
    ExprRef notX = b.bNot(x);
    ExprRef negX = b.neg(x);
    ExprRef cond = b.var("c", 1);
    ExprRef ite = b.ite(cond, x, c);
    EXPECT_EQ(std::set<ExprRef>({x, c, notX, negX, cond, ite}).size(), 6u);

    EXPECT_EQ(x->varId(), 0u);
    EXPECT_EQ(x->name(), "x");
    EXPECT_EQ(x->arity(), 0u);
    EXPECT_EQ(c->value(), bits);
    EXPECT_EQ(c->arity(), 0u);
    EXPECT_EQ(notX->kid(0), x);
    EXPECT_EQ(negX->kid(0), x);
    EXPECT_EQ(ite->kid(0), cond);
    EXPECT_EQ(ite->kid(1), x);
    EXPECT_EQ(ite->kid(2), c);
    EXPECT_EQ(b.constant(bits, 64), c);
    EXPECT_EQ(b.bNot(x), notX);
    EXPECT_EQ(b.ite(cond, x, c), ite);
    EXPECT_EQ(x->toString(), "x:w64");
}

TEST(ExprBuilder, WidestNodeAndLastOffsetRoundTrip)
{
    // Width and extract offset are one byte each in a node.
    ExprBuilder b;
    ExprRef x = b.var("x", 64);
    ExprRef top = b.extract(x, 63, 1);
    EXPECT_EQ(top->kind(), Kind::Extract);
    EXPECT_EQ(top->aux(), 63u);
    EXPECT_EQ(top->width(), 1u);
    EXPECT_EQ(top->kid(0), x);
    EXPECT_EQ(b.extract(x, 63, 1), top);
    EXPECT_NE(b.extract(x, 62, 1), top);

    ExprRef ones = b.constant(~uint64_t{0}, 64);
    EXPECT_EQ(ones->width(), 64u);
    EXPECT_EQ(ones->value(), ~uint64_t{0});
    ExprRef wide = b.sext(b.var("y", 8), 64);
    EXPECT_EQ(wide->width(), 64u);
    EXPECT_EQ(b.extract(wide, 32, 32)->aux(), 32u);

    Assignment a;
    a.set(x, uint64_t{1} << 63);
    EXPECT_EQ(evaluate(top, a), 1u);
    EXPECT_EQ(evaluate(b.bAnd(x, ones), a), uint64_t{1} << 63);
}

TEST(ExprBuilder, TwoMillionNodesKeepIdentityAcrossGrowth)
{
    // 2^21 nodes: about 131k per shard, so thirteen table doublings
    // each and arena indices well past 16 bits.
    ExprBuilder b;
    ExprRef x = b.var("x", 32);
    constexpr uint64_t kPairs = uint64_t{1} << 20;
    auto build = [&] {
        std::vector<ExprRef> nodes;
        nodes.reserve(2 * kPairs);
        for (uint64_t i = 0; i < kPairs; ++i) {
            nodes.push_back(b.constant(i + 2, 32));
            nodes.push_back(b.bXor(x, nodes.back()));
        }
        return nodes;
    };
    std::vector<ExprRef> first = build();
    size_t count = b.numNodes();
    EXPECT_GE(count, 2 * kPairs);
    for (uint64_t i = 0; i < kPairs; ++i) {
        ASSERT_EQ(first[2 * i]->value(), i + 2);
        ASSERT_EQ(first[2 * i + 1]->kid(0), x);
        ASSERT_EQ(first[2 * i + 1]->kid(1), first[2 * i]);
    }
    EXPECT_TRUE(build() == first);
    EXPECT_EQ(b.numNodes(), count);
}

/**
 * Seeded random DAG over 32-bit variables x, y, z: every expression
 * kind, each node built from earlier ones so subterms are shared, and
 * comparisons and narrow slices kept as roots of their own. Returns
 * every node built, in build order.
 */
std::vector<ExprRef>
randomDag(ExprBuilder &b, Rng &rng, int steps)
{
    std::vector<ExprRef> pool = {b.var("x", 32), b.var("y", 32),
                                 b.var("z", 32), b.constant(3, 32)};
    std::vector<ExprRef> out;
    auto pick = [&] { return pool[rng.below(pool.size())]; };
    for (int i = 0; i < steps; ++i) {
        ExprRef l = pick(), r = pick();
        ExprRef e;
        switch (rng.below(8)) {
          case 0: e = b.constant(rng.next(), 32); break;
          case 1: {
            ExprRef (ExprBuilder::*ops[])(ExprRef, ExprRef) = {
                &ExprBuilder::add,  &ExprBuilder::sub,  &ExprBuilder::mul,
                &ExprBuilder::udiv, &ExprBuilder::sdiv, &ExprBuilder::urem,
                &ExprBuilder::srem, &ExprBuilder::bAnd, &ExprBuilder::bOr,
                &ExprBuilder::bXor, &ExprBuilder::shl,  &ExprBuilder::lshr,
                &ExprBuilder::ashr};
            e = (b.*ops[rng.below(13)])(l, r);
            break;
          }
          case 2: {
            ExprRef (ExprBuilder::*cmps[])(ExprRef, ExprRef) = {
                &ExprBuilder::eq, &ExprBuilder::ult, &ExprBuilder::ule,
                &ExprBuilder::slt, &ExprBuilder::sle};
            ExprRef cond = (b.*cmps[rng.below(5)])(l, r);
            out.push_back(cond);
            e = b.ite(cond, l, pick());
            break;
          }
          case 3: {
            ExprRef byte = b.extract(l, 8 * rng.below(4), 8);
            out.push_back(byte);
            e = rng.below(2) ? b.zext(byte, 32) : b.sext(byte, 32);
            break;
          }
          case 4:
            e = b.concat(b.extract(l, 16, 16), b.extract(r, 0, 16));
            break;
          case 5: e = b.bNot(l); break;
          case 6: e = b.neg(l); break;
          default: e = b.zext(b.ult(l, r), 32); break;
        }
        pool.push_back(e);
        out.push_back(e);
    }
    return out;
}

TEST(Evaluator, MatchesEvaluateAcrossRootsAndResets)
{
    ExprBuilder b;
    Rng rng(17);
    ExprRef vars[] = {b.var("x", 32), b.var("y", 32), b.var("z", 32)};
    Evaluator ev; // one memo for the whole test
    for (int dag = 0; dag < 20; ++dag) {
        std::vector<ExprRef> roots = randomDag(b, rng, 60);
        std::vector<Assignment> assignments(4);
        for (Assignment &a : assignments)
            for (ExprRef v : vars)
                if (rng.below(4)) // sometimes absent: reads as 0
                    a.set(v, rng.next() & 0xffffffff);
        // Alternate assignments so a stale memo would show.
        for (int round = 0; round < 8; ++round) {
            const Assignment &a = assignments[round % assignments.size()];
            ev.reset(a);
            // Newest roots first: their kids are then memoized while
            // the older roots are still to be evaluated.
            for (size_t i = roots.size(); i-- > 0;)
                ASSERT_EQ(ev.evaluate(roots[i]), evaluate(roots[i], a))
                    << "dag " << dag << " round " << round << ": "
                    << roots[i]->toString();
            for (ExprRef r : roots) // memo hits agree too
                ASSERT_EQ(ev.evaluate(r), evaluate(r, a));
        }
    }
}

TEST(Evaluator, BooleanRootsShareOneMemo)
{
    ExprBuilder b;
    ExprRef x = b.var("x", 8);
    ExprRef sum = b.add(x, b.constant(1, 8));
    Assignment a;
    a.set(x, 255);
    Evaluator ev;
    ev.reset(a);
    EXPECT_TRUE(ev.evaluateBool(b.eq(sum, b.constant(0, 8))));
    EXPECT_FALSE(ev.evaluateBool(b.ult(b.constant(0, 8), sum)));
    Assignment other;
    other.set(x, 1);
    ev.reset(other);
    EXPECT_FALSE(ev.evaluateBool(b.eq(sum, b.constant(0, 8))));
    EXPECT_TRUE(ev.evaluateBool(b.ult(b.constant(0, 8), sum)));
}

TEST(NodeTable, ClearForgetsEntriesAndFreesLargeTables)
{
    ExprBuilder b;
    NodeTable<uint64_t> table;
    std::vector<ExprRef> nodes;
    for (uint64_t i = 0; i < 100; ++i)
        nodes.push_back(b.constant(i, 32));
    for (uint64_t i = 0; i < nodes.size(); ++i)
        EXPECT_TRUE(table.insert(nodes[i], i).second);
    for (uint64_t i = 0; i < nodes.size(); ++i) {
        ASSERT_NE(table.find(nodes[i]), nullptr);
        EXPECT_EQ(*table.find(nodes[i]), i);
        auto [value, inserted] = table.insert(nodes[i], 7);
        EXPECT_FALSE(inserted);
        EXPECT_EQ(*value, i);
    }
    size_t small = table.capacity();
    table.clear(); // forgets every entry, keeps the storage
    EXPECT_EQ(table.capacity(), small);
    for (ExprRef n : nodes)
        EXPECT_EQ(table.find(n), nullptr);

    // Grown past kKeptSlots, the storage is freed on clear.
    for (uint64_t i = 0; table.capacity() <= NodeTable<uint64_t>::kKeptSlots;
         ++i)
        table.insert(b.constant(i, 64), i);
    table.clear();
    EXPECT_EQ(table.capacity(), 0u);
    EXPECT_EQ(table.find(nodes[0]), nullptr);
    EXPECT_TRUE(table.insert(nodes[0], 3).second);
    EXPECT_EQ(*table.find(nodes[0]), 3u);
}

/** Ascending distinct variable ids of `e`, by a walk of its own. */
std::vector<uint64_t>
walkedVars(ExprRef e)
{
    std::unordered_set<ExprRef> seen;
    std::vector<uint64_t> ids;
    collectVars(e, seen, [&](ExprRef v) { ids.push_back(v->varId()); });
    std::sort(ids.begin(), ids.end());
    return ids;
}

TEST(VarSets, MatchesCollectVarsAcrossClear)
{
    ExprBuilder b;
    Rng rng(5);
    std::vector<ExprRef> roots = randomDag(b, rng, 300);
    auto check_all = [&](VarSets &memo) {
        for (ExprRef r : roots) {
            std::span<const uint64_t> got = memo.of(r);
            ASSERT_EQ(std::vector<uint64_t>(got.begin(), got.end()),
                      walkedVars(r))
                << r->toString();
        }
    };
    VarSets memo;
    check_all(memo);
    check_all(memo); // now every root is a hit
    size_t distinct = memo.size();
    EXPECT_LE(distinct, roots.size());

    // Fill to the cap with distinct roots; one more clears wholesale.
    ExprRef w = b.var("w", 32);
    uint64_t k = 0;
    while (memo.size() < VarSets::kMaxEntries)
        ASSERT_EQ(memo.of(b.eq(w, b.constant(k++, 32))).size(), 1u);
    std::span<const uint64_t> last = memo.of(b.eq(w, b.constant(k, 32)));
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0], w->varId());
    EXPECT_EQ(memo.size(), 1u);
    check_all(memo);
    EXPECT_EQ(memo.size(), distinct + 1);
}

} // namespace
} // namespace s2e::expr
