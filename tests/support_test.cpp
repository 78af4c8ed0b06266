//===--- support_test.cpp - Bitset and Relation tests ---------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"
#include "support/Relation.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include <atomic>
#include <random>

using namespace telechat;

TEST(BitsetTest, EmptyAndSize) {
  Bitset B(10);
  EXPECT_EQ(B.universeSize(), 10u);
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.count(), 0u);
}

TEST(BitsetTest, SetTestReset) {
  Bitset B(70); // spans two words
  B.set(0);
  B.set(69);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(69));
  EXPECT_FALSE(B.test(35));
  EXPECT_EQ(B.count(), 2u);
  B.reset(0);
  EXPECT_FALSE(B.test(0));
}

TEST(BitsetTest, AllAndComplement) {
  Bitset B = Bitset::all(65);
  EXPECT_EQ(B.count(), 65u);
  Bitset C = B.complement();
  EXPECT_TRUE(C.empty());
  Bitset D(65);
  D.set(3);
  EXPECT_EQ(D.complement().count(), 64u);
  EXPECT_FALSE(D.complement().test(3));
}

TEST(BitsetTest, SetAlgebra) {
  Bitset A(8), B(8);
  A.set(1);
  A.set(2);
  B.set(2);
  B.set(3);
  EXPECT_EQ((A | B).count(), 3u);
  EXPECT_EQ((A & B).count(), 1u);
  EXPECT_TRUE((A & B).test(2));
  EXPECT_EQ((A - B).count(), 1u);
  EXPECT_TRUE((A - B).test(1));
}

TEST(BitsetTest, ForEachInOrder) {
  Bitset B(100);
  B.set(5);
  B.set(64);
  B.set(99);
  std::vector<unsigned> Seen;
  B.forEach([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{5, 64, 99}));
  EXPECT_EQ(B.elements(), Seen);
}

TEST(RelationTest, Identity) {
  Relation R = Relation::identity(5);
  EXPECT_EQ(R.count(), 5u);
  EXPECT_TRUE(R.test(3, 3));
  EXPECT_FALSE(R.test(3, 4));
  EXPECT_FALSE(R.isIrreflexive());
}

TEST(RelationTest, FullHasAllPairs) {
  Relation R = Relation::full(7);
  EXPECT_EQ(R.count(), 49u);
}

TEST(RelationTest, Cross) {
  Bitset A(6), B(6);
  A.set(0);
  A.set(1);
  B.set(4);
  Relation R = Relation::cross(A, B);
  EXPECT_EQ(R.count(), 2u);
  EXPECT_TRUE(R.test(0, 4));
  EXPECT_TRUE(R.test(1, 4));
}

TEST(RelationTest, IdentityOn) {
  Bitset S(6);
  S.set(2);
  S.set(5);
  Relation R = Relation::identityOn(S);
  EXPECT_EQ(R.count(), 2u);
  EXPECT_TRUE(R.test(2, 2));
  EXPECT_TRUE(R.test(5, 5));
}

TEST(RelationTest, SeqComposition) {
  Relation A(4), B(4);
  A.set(0, 1);
  B.set(1, 2);
  B.set(1, 3);
  Relation C = A.seq(B);
  EXPECT_EQ(C.count(), 2u);
  EXPECT_TRUE(C.test(0, 2));
  EXPECT_TRUE(C.test(0, 3));
}

TEST(RelationTest, Inverse) {
  Relation A(3);
  A.set(0, 2);
  Relation Inv = A.inverse();
  EXPECT_TRUE(Inv.test(2, 0));
  EXPECT_EQ(Inv.count(), 1u);
}

TEST(RelationTest, TransitiveClosureChain) {
  Relation A(5);
  A.set(0, 1);
  A.set(1, 2);
  A.set(2, 3);
  Relation C = A.transitiveClosure();
  EXPECT_TRUE(C.test(0, 3));
  EXPECT_TRUE(C.test(1, 3));
  EXPECT_FALSE(C.test(3, 0));
  EXPECT_EQ(C.count(), 6u);
}

TEST(RelationTest, AcyclicityDetectsCycle) {
  Relation A(3);
  A.set(0, 1);
  A.set(1, 2);
  EXPECT_TRUE(A.isAcyclic());
  A.set(2, 0);
  EXPECT_FALSE(A.isAcyclic());
}

TEST(RelationTest, SelfLoopIsCyclic) {
  Relation A(2);
  A.set(1, 1);
  EXPECT_FALSE(A.isAcyclic());
  EXPECT_FALSE(A.isIrreflexive());
}

TEST(RelationTest, DomainRange) {
  Relation A(5);
  A.set(1, 3);
  A.set(1, 4);
  A.set(2, 3);
  EXPECT_EQ(A.domain().elements(), (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(A.range().elements(), (std::vector<unsigned>{3, 4}));
}

TEST(RelationTest, Restricted) {
  Relation A = Relation::full(4);
  Bitset D(4), R(4);
  D.set(0);
  R.set(1);
  R.set(2);
  Relation Out = A.restricted(D, R);
  EXPECT_EQ(Out.count(), 2u);
  EXPECT_TRUE(Out.test(0, 1));
}

TEST(RelationTest, OptionalAddsIdentity) {
  Relation A(3);
  A.set(0, 1);
  Relation O = A.optional();
  EXPECT_EQ(O.count(), 4u);
  EXPECT_TRUE(O.test(2, 2));
}

TEST(RelationTest, EmptyRelationIsAcyclic) {
  EXPECT_TRUE(Relation(6).isAcyclic());
  EXPECT_TRUE(Relation(0).isAcyclic());
}

namespace {

Relation randomRelation(std::mt19937_64 &Rng, unsigned N, double Density) {
  Relation R(N);
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (Dist(Rng) < Density)
        R.set(A, B);
  return R;
}

class RelationPropertyTest : public testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RelationPropertyTest, ClosureIsIdempotent) {
  std::mt19937_64 Rng(GetParam());
  Relation R = randomRelation(Rng, 24, 0.08);
  Relation C = R.transitiveClosure();
  EXPECT_EQ(C, C.transitiveClosure());
}

TEST_P(RelationPropertyTest, ClosureContainsOriginal) {
  std::mt19937_64 Rng(GetParam());
  Relation R = randomRelation(Rng, 24, 0.1);
  Relation C = R.transitiveClosure();
  EXPECT_EQ(C | R, C);
}

TEST_P(RelationPropertyTest, InverseOfSeq) {
  std::mt19937_64 Rng(GetParam());
  Relation A = randomRelation(Rng, 16, 0.2);
  Relation B = randomRelation(Rng, 16, 0.2);
  // (A;B)^-1 == B^-1 ; A^-1
  EXPECT_EQ(A.seq(B).inverse(), B.inverse().seq(A.inverse()));
}

TEST_P(RelationPropertyTest, DeMorganOnPairs) {
  std::mt19937_64 Rng(GetParam());
  Relation A = randomRelation(Rng, 16, 0.3);
  Relation B = randomRelation(Rng, 16, 0.3);
  // A - B == A & (full - B)
  EXPECT_EQ(A - B, A & (Relation::full(16) - B));
}

TEST_P(RelationPropertyTest, SubrelationOfAcyclicIsAcyclic) {
  std::mt19937_64 Rng(GetParam());
  // Build an acyclic relation (edges only increase), take a subrelation.
  Relation R(20);
  std::uniform_int_distribution<unsigned> Dist(0, 19);
  for (unsigned I = 0; I != 40; ++I) {
    unsigned A = Dist(Rng), B = Dist(Rng);
    if (A < B)
      R.set(A, B);
  }
  ASSERT_TRUE(R.isAcyclic());
  Relation Sub = R & randomRelation(Rng, 20, 0.5);
  EXPECT_TRUE(Sub.isAcyclic());
}

TEST_P(RelationPropertyTest, StarEqualsPlusUnionId) {
  std::mt19937_64 Rng(GetParam());
  Relation R = randomRelation(Rng, 18, 0.1);
  EXPECT_EQ(R.reflexiveTransitiveClosure(),
            R.transitiveClosure() | Relation::identity(18));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Differential test against a naive pair-set model. ---
//
// Relation and Bitset store universes of at most 64 events inline (one
// word per row) and spill larger ones to the heap. Every operator is
// checked against std::set models at sizes on both sides of that
// boundary, so the two representations and the single-word kernels
// cannot drift from the plain definitions.

namespace {

using PairSet = std::set<std::pair<unsigned, unsigned>>;
using IdSet = std::set<unsigned>;

PairSet pairsOf(const Relation &R) {
  PairSet Out;
  R.forEach([&](unsigned A, unsigned B) { Out.emplace(A, B); });
  return Out;
}

IdSet idsOf(const Bitset &S) {
  IdSet Out;
  S.forEach([&](unsigned I) { Out.insert(I); });
  return Out;
}

/// A random relation together with its model; density varies per call so
/// sparse, dense and empty rows all occur.
struct ModelRel {
  Relation R;
  PairSet M;
};

ModelRel randomModelRel(std::mt19937_64 &Rng, unsigned N) {
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  double Density = Dist(Rng) * (N > 8 ? 4.0 / N : 0.5);
  ModelRel Out{Relation(N), {}};
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      if (Dist(Rng) < Density) {
        Out.R.set(A, B);
        Out.M.emplace(A, B);
      }
  return Out;
}

Bitset randomSet(std::mt19937_64 &Rng, unsigned N, IdSet &Model) {
  std::bernoulli_distribution Coin(0.4);
  Bitset S(N);
  Model.clear();
  for (unsigned I = 0; I != N; ++I)
    if (Coin(Rng)) {
      S.set(I);
      Model.insert(I);
    }
  return S;
}

PairSet naiveSeq(const PairSet &L, const PairSet &R) {
  PairSet Out;
  for (auto [A, B] : L)
    for (auto [C, D] : R)
      if (B == C)
        Out.emplace(A, D);
  return Out;
}

/// r^+ by a graph search from every node: (a,b) iff b is reachable
/// from a in one or more steps.
PairSet naiveClosure(const PairSet &R) {
  std::map<unsigned, std::vector<unsigned>> Succ;
  for (auto [A, B] : R)
    Succ[A].push_back(B);
  PairSet Out;
  for (const auto &Entry : Succ) {
    unsigned From = Entry.first;
    std::vector<unsigned> Work = Entry.second;
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      if (!Out.emplace(From, B).second)
        continue;
      auto It = Succ.find(B);
      if (It != Succ.end())
        Work.insert(Work.end(), It->second.begin(), It->second.end());
    }
  }
  return Out;
}

PairSet withDiagonal(PairSet R, unsigned N) {
  for (unsigned I = 0; I != N; ++I)
    R.emplace(I, I);
  return R;
}

class RelationDifferentialTest : public testing::TestWithParam<unsigned> {};

constexpr unsigned kRounds = 6;

} // namespace

TEST_P(RelationDifferentialTest, SetAlgebra) {
  const unsigned N = GetParam();
  std::mt19937_64 Rng(N * 7919 + 1);
  for (unsigned Round = 0; Round != kRounds; ++Round) {
    ModelRel A = randomModelRel(Rng, N), B = randomModelRel(Rng, N);
    PairSet Union = A.M, Inter, Diff;
    Union.insert(B.M.begin(), B.M.end());
    for (auto P : A.M)
      (B.M.count(P) ? Inter : Diff).insert(P);
    EXPECT_EQ(pairsOf(A.R | B.R), Union);
    EXPECT_EQ(pairsOf(A.R & B.R), Inter);
    EXPECT_EQ(pairsOf(A.R - B.R), Diff);
    EXPECT_EQ(A.R.count(), A.M.size());
    EXPECT_EQ(A.R.empty(), A.M.empty());
    EXPECT_EQ(A.R == B.R, A.M == B.M);
    EXPECT_EQ(A.R == A.R, true);
    std::vector<std::pair<unsigned, unsigned>> Pairs(A.M.begin(), A.M.end());
    EXPECT_EQ(A.R.pairs(), Pairs);
    for (auto [X, Y] : A.M)
      EXPECT_TRUE(A.R.test(X, Y));
    Relation Cleared = A.R;
    Cleared.clear();
    EXPECT_TRUE(Cleared.empty());
    EXPECT_EQ(Cleared.universeSize(), N);
  }
}

TEST_P(RelationDifferentialTest, CompositionAndClosures) {
  const unsigned N = GetParam();
  std::mt19937_64 Rng(N * 104729 + 3);
  for (unsigned Round = 0; Round != kRounds; ++Round) {
    ModelRel A = randomModelRel(Rng, N), B = randomModelRel(Rng, N);
    EXPECT_EQ(pairsOf(A.R.seq(B.R)), naiveSeq(A.M, B.M));
    PairSet Inv;
    for (auto [X, Y] : A.M)
      Inv.emplace(Y, X);
    EXPECT_EQ(pairsOf(A.R.inverse()), Inv);
    PairSet Plus = naiveClosure(A.M);
    EXPECT_EQ(pairsOf(A.R.transitiveClosure()), Plus);
    EXPECT_EQ(pairsOf(A.R.reflexiveTransitiveClosure()), withDiagonal(Plus, N));
    EXPECT_EQ(pairsOf(A.R.optional()), withDiagonal(A.M, N));
    bool DiagonalEmpty = true, Irreflexive = true;
    for (unsigned I = 0; I != N; ++I) {
      DiagonalEmpty &= !Plus.count({I, I});
      Irreflexive &= !A.M.count({I, I});
    }
    EXPECT_EQ(A.R.isAcyclic(), DiagonalEmpty);
    EXPECT_EQ(A.R.isIrreflexive(), Irreflexive);
  }
}

TEST_P(RelationDifferentialTest, AcyclicityOnDagsAndCycles) {
  // Random relations at these densities are almost always cyclic; build
  // DAGs explicitly, then close a random back edge.
  const unsigned N = GetParam();
  if (N < 2)
    return;
  std::mt19937_64 Rng(N * 31 + 7);
  std::uniform_int_distribution<unsigned> Pick(0, N - 1);
  for (unsigned Round = 0; Round != kRounds; ++Round) {
    std::vector<unsigned> Order(N);
    for (unsigned I = 0; I != N; ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);
    Relation Dag(N);
    PairSet M;
    for (unsigned E = 0; E != 2 * N; ++E) {
      unsigned X = Pick(Rng), Y = Pick(Rng);
      if (X == Y)
        continue;
      if (X > Y)
        std::swap(X, Y);
      Dag.set(Order[X], Order[Y]);
      M.emplace(Order[X], Order[Y]);
    }
    EXPECT_TRUE(Dag.isAcyclic());
    // A path X ->+ Y plus the edge Y -> X is a cycle.
    PairSet Plus = naiveClosure(M);
    if (Plus.empty())
      continue;
    auto [X, Y] = *std::next(Plus.begin(), Pick(Rng) % Plus.size());
    Dag.set(Y, X);
    EXPECT_FALSE(Dag.isAcyclic());
  }
}

TEST_P(RelationDifferentialTest, SetsAndRestriction) {
  const unsigned N = GetParam();
  std::mt19937_64 Rng(N * 65537 + 11);
  for (unsigned Round = 0; Round != kRounds; ++Round) {
    ModelRel A = randomModelRel(Rng, N);
    IdSet DomM, RanM;
    Bitset Dom = randomSet(Rng, N, DomM), Ran = randomSet(Rng, N, RanM);
    PairSet Restricted, Cross, IdOn;
    for (auto [X, Y] : A.M)
      if (DomM.count(X) && RanM.count(Y))
        Restricted.emplace(X, Y);
    for (unsigned X : DomM) {
      IdOn.emplace(X, X);
      for (unsigned Y : RanM)
        Cross.emplace(X, Y);
    }
    EXPECT_EQ(pairsOf(A.R.restricted(Dom, Ran)), Restricted);
    EXPECT_EQ(pairsOf(Relation::cross(Dom, Ran)), Cross);
    EXPECT_EQ(pairsOf(Relation::identityOn(Dom)), IdOn);
    IdSet Domain, Range;
    for (auto [X, Y] : A.M) {
      Domain.insert(X);
      Range.insert(Y);
    }
    EXPECT_EQ(idsOf(A.R.domain()), Domain);
    EXPECT_EQ(idsOf(A.R.range()), Range);
    EXPECT_EQ(pairsOf(Relation::identity(N)), withDiagonal({}, N));
    EXPECT_EQ(Relation::full(N).count(), N * N);
    // Bitset algebra against the same models.
    IdSet U, I, D, C;
    for (unsigned X = 0; X != N; ++X) {
      bool InDom = DomM.count(X), InRan = RanM.count(X);
      if (InDom || InRan)
        U.insert(X);
      if (InDom && InRan)
        I.insert(X);
      if (InDom && !InRan)
        D.insert(X);
      if (!InDom)
        C.insert(X);
    }
    EXPECT_EQ(idsOf(Dom | Ran), U);
    EXPECT_EQ(idsOf(Dom & Ran), I);
    EXPECT_EQ(idsOf(Dom - Ran), D);
    EXPECT_EQ(idsOf(Dom.complement()), C);
    EXPECT_EQ(Dom.count(), DomM.size());
    EXPECT_EQ(Dom.empty(), DomM.empty());
    EXPECT_EQ(Bitset::all(N).count(), N);
    EXPECT_EQ(Dom == Ran, DomM == RanM);
    EXPECT_EQ(Dom.elements(), std::vector<unsigned>(DomM.begin(), DomM.end()));
  }
}

TEST_P(RelationDifferentialTest, CopyMoveAssignAcrossSizes) {
  // Every pair of sizes, so assignment crosses inline <-> spilled both
  // ways; moved-from values are the empty universe and stay usable.
  const unsigned N = GetParam();
  std::mt19937_64 Rng(N * 977 + 5);
  for (unsigned M : {0u, 1u, 2u, 63u, 64u, 65u, 130u}) {
    ModelRel Src = randomModelRel(Rng, N);
    ModelRel Dst = randomModelRel(Rng, M);
    Relation Copy(Src.R);
    EXPECT_EQ(pairsOf(Copy), Src.M);
    EXPECT_EQ(Copy.universeSize(), N);
    Dst.R = Src.R;
    EXPECT_EQ(pairsOf(Dst.R), Src.M);
    EXPECT_EQ(Dst.R, Src.R);
    EXPECT_EQ(pairsOf(Src.R), Src.M); // Source untouched.
    Relation Other = randomModelRel(Rng, M).R;
    Other = std::move(Copy);
    EXPECT_EQ(pairsOf(Other), Src.M);
    EXPECT_EQ(Other.universeSize(), N);
    EXPECT_EQ(Copy.universeSize(), 0u);
    EXPECT_TRUE(Copy.empty());
    Copy = Other; // A moved-from value accepts assignment.
    EXPECT_EQ(pairsOf(Copy), Src.M);
    Relation Moved(std::move(Other));
    EXPECT_EQ(pairsOf(Moved), Src.M);
    EXPECT_EQ(Other.universeSize(), 0u);
    const Relation &Self = Moved;
    Moved = Self;
    EXPECT_EQ(pairsOf(Moved), Src.M);
    // Mutating a copy leaves the original alone.
    if (N != 0) {
      Relation Mut = Src.R;
      Mut.set(0, N - 1);
      Mut.reset(N - 1, 0);
      EXPECT_EQ(pairsOf(Src.R), Src.M);
    }

    IdSet SM, DM;
    Bitset S = randomSet(Rng, N, SM), D = randomSet(Rng, M, DM);
    D = S;
    EXPECT_EQ(idsOf(D), SM);
    EXPECT_EQ(D.universeSize(), N);
    Bitset T = randomSet(Rng, M, DM);
    T = std::move(D);
    EXPECT_EQ(idsOf(T), SM);
    EXPECT_EQ(D.universeSize(), 0u);
    Bitset U(std::move(T));
    EXPECT_EQ(idsOf(U), SM);
    EXPECT_EQ(T.universeSize(), 0u);
    EXPECT_EQ(U, S);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelationDifferentialTest,
                         testing::Values(0u, 1u, 2u, 63u, 64u, 65u, 130u));

TEST(StringUtilsTest, Split) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("z"), "z");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StringUtilsTest, Format) {
  EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strFormat("%s", std::string(300, 'a').c_str()),
            std::string(300, 'a'));
}

TEST(StringUtilsTest, ParseNumberIsStrict) {
  uint64_t U = 7;
  EXPECT_TRUE(parseNumber("42", uint64_t(0), UINT64_MAX, U));
  EXPECT_EQ(U, 42u);
  EXPECT_TRUE(parseNumber("0x10", uint64_t(0), UINT64_MAX, U));
  EXPECT_EQ(U, 16u);
  EXPECT_TRUE(parseNumber("18446744073709551615", uint64_t(0), UINT64_MAX, U));
  EXPECT_EQ(U, UINT64_MAX);
  // Malformed, signed, padded, overflowing or out-of-range text is
  // refused and leaves the output alone.
  U = 7;
  for (const char *Bad : {"", "abc", "4x", "-3", "+3", " 5", "5 ", "0x",
                          "08", "1e3", "1.5", "18446744073709551616"})
    EXPECT_FALSE(parseNumber(Bad, uint64_t(0), UINT64_MAX, U)) << Bad;
  EXPECT_FALSE(parseNumber("0", uint64_t(1), UINT64_MAX, U));
  EXPECT_EQ(U, 7u);

  unsigned J = 0;
  EXPECT_FALSE(parseNumber("4097", 0u, 4096u, J));
  EXPECT_FALSE(parseNumber("4294967296", 0u, UINT32_MAX, J));
  EXPECT_TRUE(parseNumber("4096", 0u, 4096u, J));
  EXPECT_EQ(J, 4096u);

  int P = 0;
  EXPECT_TRUE(parseNumber("-1", -1, 65535, P));
  EXPECT_EQ(P, -1);
  EXPECT_FALSE(parseNumber("-2", -1, 65535, P));
  EXPECT_FALSE(parseNumber("65536", -1, 65535, P));

  double D = 0;
  EXPECT_TRUE(parseNumber("0.5", 0.001, 1e9, D));
  EXPECT_EQ(D, 0.5);
  EXPECT_TRUE(parseNumber("30", 0.001, 1e9, D));
  EXPECT_EQ(D, 30.0);
  for (const char *Bad : {"nan", "inf", "-inf", "-1", "0", "1e10", "x",
                          "1.5s", " 2", "+2"})
    EXPECT_FALSE(parseNumber(Bad, 0.001, 1e9, D)) << Bad;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndex) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(257);
  for (auto &H : Hits)
    H = 0;
  Pool.parallelFor(Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle) {
  ThreadPool Pool(2);
  unsigned Calls = 0;
  Pool.parallelFor(0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  Pool.parallelFor(1, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitDrains) {
  ThreadPool Pool(3);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum.fetch_add(I); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool Pool(2);
  Pool.wait(); // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ResolveJobsSemantics) {
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
  EXPECT_GE(resolveJobs(0), 1u); // hardware concurrency, at least one
}

TEST(InternerTest, SameContentsSameSymbol) {
  Symbol A = internSymbol("P0:r0");
  Symbol B = internSymbol(std::string("P0:") + "r0");
  EXPECT_EQ(A, B); // Pointer equality: one slot per distinct contents.
  EXPECT_EQ(A.str(), "P0:r0");
  EXPECT_NE(A, internSymbol("P0:r1"));
}

TEST(InternerTest, DefaultSymbolIsEmptyString) {
  Symbol S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S, internSymbol(""));
  EXPECT_EQ(S.str(), "");
}

TEST(InternerTest, OrderingFollowsContentsNotInsertionOrder) {
  // Interning in reverse alphabetical order must not affect ordering:
  // sorted symbol containers have to iterate identically in every
  // process, whatever each one interned first.
  Symbol Z = internSymbol("intern-z");
  Symbol M = internSymbol("intern-m");
  Symbol A = internSymbol("intern-a");
  EXPECT_TRUE(A < M);
  EXPECT_TRUE(M < Z);
  EXPECT_FALSE(Z < A);
  EXPECT_FALSE(A < A);
  std::set<Symbol> Sorted{Z, M, A};
  auto It = Sorted.begin();
  EXPECT_EQ((It++)->str(), "intern-a");
  EXPECT_EQ((It++)->str(), "intern-m");
  EXPECT_EQ((It++)->str(), "intern-z");
}

TEST(InternerTest, ConcurrentInterningAgrees) {
  // 4 threads intern overlapping vocabularies; every thread must get
  // the same symbol for the same string (and TSan must stay quiet).
  constexpr unsigned Threads = 4, Strings = 64;
  std::vector<std::vector<Symbol>> Got(Threads,
                                       std::vector<Symbol>(Strings));
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([T, &Got] {
      for (unsigned I = 0; I != Strings; ++I)
        Got[T][I] = internSymbol("conc-" + std::to_string(I));
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 1; T != Threads; ++T)
    for (unsigned I = 0; I != Strings; ++I)
      EXPECT_EQ(Got[0][I], Got[T][I]) << I;
}
