//===--- canon_test.cpp - Canonical-form identity battery -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the canonical form of litmus/Canon.h, the identity that corpus
/// dedupe keys on:
///
///   - idempotence: canonicalizing the canonical test reproduces the
///     exact Text and Key;
///   - invariance: random thread/location/register renamings (including
///     thread reorderings) canonicalize to the same Text and Key;
///   - separation: the classic families are pairwise distinct;
///   - outcome round-trip: the stored renaming maps a representative's
///     simulated outcome set byte-identically onto a renamed duplicate's.
///
//===----------------------------------------------------------------------===//

#include "diy/Classics.h"
#include "diy/Generator.h"
#include "litmus/Canon.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

using namespace telechat;

namespace {

// A random semantics-preserving renaming: fresh location names (keeping
// declaration order -- it fixes simulated addresses, so reordering is a
// different test), fresh thread and per-thread register names, and an
// optional thread reorder. Walks the AST independently of Canon.cpp so
// the test does not inherit the implementation's traversal bugs.

std::string mapped(const std::map<std::string, std::string> &M,
                   const std::string &Name) {
  auto It = M.find(Name);
  return It == M.end() ? Name : It->second;
}

void renameExpr(Expr &E, const std::map<std::string, std::string> &Regs) {
  if (E.K == Expr::Kind::Reg)
    E.RegName = mapped(Regs, E.RegName);
  for (Expr &Op : E.Ops)
    renameExpr(Op, Regs);
}

void renameBody(std::vector<Stmt> &Body,
                const std::map<std::string, std::string> &Locs,
                const std::map<std::string, std::string> &Regs) {
  for (Stmt &S : Body) {
    if (!S.Dst.empty())
      S.Dst = mapped(Regs, S.Dst);
    if (!S.Loc.empty())
      S.Loc = mapped(Locs, S.Loc);
    renameExpr(S.Val, Regs);
    renameExpr(S.Cond, Regs);
    renameBody(S.Then, Locs, Regs);
    renameBody(S.Else, Locs, Regs);
  }
}

void renamePredicate(
    Predicate &P, const std::map<std::string, std::string> &Threads,
    const std::map<std::string, std::string> &Locs,
    const std::map<std::string, std::map<std::string, std::string>> &Regs) {
  if (P.K == Predicate::Kind::Atom) {
    if (P.A.K == PredAtom::Kind::LocEq) {
      P.A.Name = mapped(Locs, P.A.Name);
    } else {
      auto It = Regs.find(P.A.Thread);
      if (It != Regs.end())
        P.A.Name = mapped(It->second, P.A.Name);
      P.A.Thread = mapped(Threads, P.A.Thread);
    }
  }
  for (Predicate &Op : P.Ops)
    renamePredicate(Op, Threads, Locs, Regs);
}

void collectBodyRegs(const std::vector<Stmt> &Body,
                     std::vector<std::string> &Out) {
  for (const Stmt &S : Body) {
    S.Val.collectRegs(Out);
    S.Cond.collectRegs(Out);
    if (!S.Dst.empty())
      Out.push_back(S.Dst);
    collectBodyRegs(S.Then, Out);
    collectBodyRegs(S.Else, Out);
  }
}

void collectFinalRegs(const Predicate &P, const std::string &Thread,
                      std::vector<std::string> &Out) {
  if (P.K == Predicate::Kind::Atom && P.A.K == PredAtom::Kind::RegEq &&
      P.A.Thread == Thread)
    Out.push_back(P.A.Name);
  for (const Predicate &Op : P.Ops)
    collectFinalRegs(Op, Thread, Out);
}

LitmusTest shuffledRename(const LitmusTest &T, uint64_t Seed,
                          bool PermuteThreads) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
  LitmusTest V = T;
  V.Name = T.Name + "-renamed";

  std::map<std::string, std::string> Locs;
  {
    std::vector<size_t> Idx(T.Locations.size());
    std::iota(Idx.begin(), Idx.end(), size_t(0));
    std::shuffle(Idx.begin(), Idx.end(), Rng);
    for (size_t I = 0; I != T.Locations.size(); ++I) {
      Locs[T.Locations[I].Name] = "loc_" + std::to_string(Idx[I]);
      V.Locations[I].Name = Locs[T.Locations[I].Name];
    }
  }

  std::map<std::string, std::string> Threads;
  {
    std::vector<size_t> Idx(T.Threads.size());
    std::iota(Idx.begin(), Idx.end(), size_t(0));
    std::shuffle(Idx.begin(), Idx.end(), Rng);
    for (size_t I = 0; I != T.Threads.size(); ++I)
      Threads[T.Threads[I].Name] = "Wrk" + std::to_string(Idx[I]);
  }

  std::map<std::string, std::map<std::string, std::string>> Regs;
  for (size_t I = 0; I != T.Threads.size(); ++I) {
    const Thread &Th = T.Threads[I];
    std::vector<std::string> Order;
    collectBodyRegs(Th.Body, Order);
    collectFinalRegs(T.Final.P, Th.Name, Order);
    std::vector<std::string> Unique;
    for (const std::string &R : Order)
      if (std::find(Unique.begin(), Unique.end(), R) == Unique.end())
        Unique.push_back(R);
    std::vector<size_t> Idx(Unique.size());
    std::iota(Idx.begin(), Idx.end(), size_t(0));
    std::shuffle(Idx.begin(), Idx.end(), Rng);
    std::map<std::string, std::string> &M = Regs[Th.Name];
    for (size_t J = 0; J != Unique.size(); ++J)
      M[Unique[J]] = "q" + std::to_string(Idx[J]);
    renameBody(V.Threads[I].Body, Locs, M);
    V.Threads[I].Name = Threads[Th.Name];
  }

  renamePredicate(V.Final.P, Threads, Locs, Regs);
  if (PermuteThreads)
    std::shuffle(V.Threads.begin(), V.Threads.end(), Rng);
  return V;
}

} // namespace

// Canonicalizing the canonical test must reproduce the exact text and
// key -- the fixed point that makes CanonKey an identity.
TEST(CanonTest, IdempotenceBattery) {
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue;
    const LitmusTest &T = Tests.front();
    std::string What = "seed " + std::to_string(Seed) + "\n" + printLitmusC(T);
    CanonResult CR = canonicalizeTest(T);
    CanonResult CR2 = canonicalizeTest(CR.Canon);
    EXPECT_EQ(CR.Text, CR2.Text) << What;
    EXPECT_EQ(CR.Key, CR2.Key) << What;
    EXPECT_EQ(CR.Text, printLitmusC(CR.Canon)) << What;
    ++Checked;
  }
  EXPECT_GT(Checked, 100u);
}

// Random thread/location/register renamings -- including thread
// reorderings -- canonicalize to the identical text and key. This is
// exactly the equivalence corpus dedupe collapses.
TEST(CanonTest, RenameInvarianceBattery) {
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue;
    const LitmusTest &T = Tests.front();
    LitmusTest V = shuffledRename(T, Seed, /*PermuteThreads=*/true);
    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T) + "\nrenamed:\n" + printLitmusC(V);
    CanonResult CT = canonicalizeTest(T);
    CanonResult CV = canonicalizeTest(V);
    EXPECT_EQ(CT.Text, CV.Text) << What;
    EXPECT_EQ(CT.Key, CV.Key) << What;
    ++Checked;
  }
  EXPECT_GT(Checked, 100u);
}

// The classic families must also be rename-invariant...
TEST(CanonTest, ClassicsRenameInvariance) {
  for (const std::string &Name : classicNames()) {
    LitmusTest T = classicTest(Name);
    LitmusTest V = shuffledRename(T, 7, /*PermuteThreads=*/true);
    CanonResult CT = canonicalizeTest(T);
    CanonResult CV = canonicalizeTest(V);
    EXPECT_EQ(CT.Text, CV.Text) << Name;
    EXPECT_EQ(CT.Key, CV.Key) << Name;
  }
}

// ...while remaining pairwise distinct: MP and SB are not the same test,
// and neither are MP and MP+rel+acq (orders are part of the identity).
TEST(CanonTest, ClassicsPairwiseDistinct) {
  std::vector<std::string> Names = classicNames();
  std::vector<CanonResult> Canon;
  for (const std::string &Name : Names)
    Canon.push_back(canonicalizeTest(classicTest(Name)));
  for (size_t I = 0; I != Canon.size(); ++I)
    for (size_t J = I + 1; J != Canon.size(); ++J) {
      EXPECT_NE(Canon[I].Text, Canon[J].Text) << Names[I] << " vs " << Names[J];
      EXPECT_FALSE(Canon[I].Key == Canon[J].Key)
          << Names[I] << " vs " << Names[J];
    }
}

// The stored renaming round-trips outcomes: simulating the representative
// and translating through composeRenaming is byte-identical to simulating
// the renamed duplicate directly. This is the exact substitution corpus
// dedupe performs instead of executing the duplicate.
TEST(CanonTest, OutcomeRoundTripBattery) {
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue;
    const LitmusTest &T = Tests.front();
    LitmusTest V = shuffledRename(T, Seed, /*PermuteThreads=*/true);
    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T) + "\nrenamed:\n" + printLitmusC(V);
    CanonResult CT = canonicalizeTest(T);
    CanonResult CV = canonicalizeTest(V);
    ASSERT_EQ(CT.Text, CV.Text) << What;
    CanonRenaming Ren = composeRenaming(CT, CV);

    SimOptions Opts;
    SimResult RT = simulateC(T, "rc11", Opts);
    SimResult RV = simulateC(V, "rc11", Opts);
    ASSERT_TRUE(RT.ok()) << What;
    ASSERT_TRUE(RV.ok()) << What;
    EXPECT_EQ(outcomeSetToString(Ren.renameOutcomeSet(RT.Allowed)),
              outcomeSetToString(RV.Allowed))
        << What;
    ++Compared;
  }
  EXPECT_GT(Compared, 25u);
}

// Location types are part of the identity: stores truncate to the
// declared width, so an atomic_char test and an atomic_int test with the
// same shape can observe different values and must not share a canonical
// class. (The printer used to collapse every atomic type to atomic_int,
// which would have conflated them.)
TEST(CanonTest, LocationTypeDistinguishesIdentity) {
  LitmusTest Base = classicTest("MP");
  LitmusTest Narrow = Base;
  Narrow.Locations[0].Type = IntType{8, true};
  LitmusTest Unsigned = Base;
  Unsigned.Locations[0].Type = IntType{8, false};

  CanonResult CB = canonicalizeTest(Base);
  CanonResult CN = canonicalizeTest(Narrow);
  CanonResult CU = canonicalizeTest(Unsigned);
  EXPECT_NE(CB.Text, CN.Text);
  EXPECT_NE(CB.Text, CU.Text);
  EXPECT_NE(CN.Text, CU.Text);
  EXPECT_FALSE(CB.Key == CN.Key);
  EXPECT_FALSE(CB.Key == CU.Key);
  EXPECT_FALSE(CN.Key == CU.Key);

  // And the typed declaration survives the corpus interchange format:
  // print -> parse -> canonicalize lands in the same class as the AST.
  ErrorOr<LitmusTest> Reparsed = parseLitmusC(printLitmusC(Narrow));
  ASSERT_TRUE(Reparsed.hasValue()) << Reparsed.error();
  EXPECT_EQ(canonicalizeTest(*Reparsed).Text, CN.Text);
}
