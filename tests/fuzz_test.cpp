//===--- fuzz_test.cpp - Metamorphic mutation tests -----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the l2c fuzzing stage: every mutation must be
/// semantics-preserving, i.e. the mutant's outcome set over the original
/// observables equals the original's, and the full pipeline must reach
/// the same verdict on mutant and original (the metamorphic relation
/// Télétchat shares with C4/Orion, paper §II-B).
///
//===----------------------------------------------------------------------===//

#include "core/Fuzz.h"
#include "core/Telechat.h"
#include "diy/Classics.h"
#include "diy/Generator.h"
#include "litmus/Printer.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace telechat;

namespace {

/// Outcomes of \p T under rc11, projected on \p Keys.
OutcomeSet projectedOutcomes(const LitmusTest &T,
                             const std::vector<std::string> &Keys) {
  SimResult R = simulateC(T, "rc11");
  EXPECT_TRUE(R.ok()) << R.Error;
  OutcomeSet Out;
  for (const Outcome &O : R.Allowed)
    Out.insert(O.projected(Keys));
  return Out;
}

struct FuzzCase {
  std::string Classic;
  uint64_t Seed;
};

class MetamorphicTest : public testing::TestWithParam<FuzzCase> {};

} // namespace

TEST(FuzzTest, DeterministicInSeed) {
  FuzzOptions O;
  O.Seed = 11;
  LitmusTest A = mutateTest(classicTest("MP"), O);
  LitmusTest B = mutateTest(classicTest("MP"), O);
  EXPECT_EQ(printLitmusC(A), printLitmusC(B));
}

TEST(FuzzTest, MutantsStayValid) {
  for (uint64_t Seed = 1; Seed != 12; ++Seed) {
    FuzzOptions O;
    O.Seed = Seed;
    O.Rounds = 4;
    LitmusTest M = mutateTest(classicTest("MP+fences"), O);
    EXPECT_TRUE(M.validate().empty())
        << "seed " << Seed << ": " << M.validate() << "\n"
        << printLitmusC(M);
  }
}

TEST(FuzzTest, MutantsDiffer) {
  // Enough rounds should actually change the program.
  FuzzOptions O;
  O.Seed = 3;
  O.Rounds = 5;
  LitmusTest M = mutateTest(classicTest("MP"), O);
  EXPECT_NE(printLitmusC(M), printLitmusC(classicTest("MP")));
}

TEST_P(MetamorphicTest, OutcomesPreservedOverOriginalObservables) {
  const FuzzCase &C = GetParam();
  LitmusTest Original = classicTest(C.Classic);
  std::vector<std::string> Keys;
  Original.Final.P.collectKeys(Keys);

  FuzzOptions O;
  O.Seed = C.Seed;
  LitmusTest Mutant = mutateTest(Original, O);
  // Key caveat: register renaming rewrites the predicate, so project the
  // mutant on *its* keys and compare values positionally via the shared
  // location keys plus renamed register keys.
  std::vector<std::string> MutantKeys;
  Mutant.Final.P.collectKeys(MutantKeys);
  ASSERT_EQ(Keys.size(), MutantKeys.size());

  OutcomeSet A = projectedOutcomes(Original, Keys);
  OutcomeSet BRaw = projectedOutcomes(Mutant, MutantKeys);
  // Rename mutant keys back to the original vocabulary.
  std::vector<std::pair<std::string, std::string>> Back;
  for (size_t I = 0; I != Keys.size(); ++I)
    Back.emplace_back(MutantKeys[I], Keys[I]);
  OutcomeSet B;
  for (const Outcome &Out : BRaw)
    B.insert(Out.renamed(Back));
  EXPECT_EQ(A, B) << C.Classic << " seed " << C.Seed << "\n"
                  << printLitmusC(Mutant);
}

TEST_P(MetamorphicTest, PipelineVerdictAgrees) {
  const FuzzCase &C = GetParam();
  LitmusTest Original = classicTest(C.Classic);
  FuzzOptions O;
  O.Seed = C.Seed;
  LitmusTest Mutant = mutateTest(Original, O);
  Profile P = Profile::current(CompilerKind::Llvm, OptLevel::O2,
                               Arch::AArch64);
  TelechatResult A = runTelechat(Original, P);
  TelechatResult B = runTelechat(Mutant, P);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  EXPECT_EQ(A.isBug(), B.isBug())
      << C.Classic << " seed " << C.Seed << "\n"
      << printLitmusC(Mutant);
}

TEST(FuzzTest, GenerativeDifferentialBattery) {
  // 200 seeds of diy generation at a cycle-length cap that favours
  // arithmetic-carrying Data/Ctrl edges (Data stores `v + (r^r)`, so
  // under the symbolic-transform domain the stored value stays tracked
  // where the copy-chain-only domain sees Top). For every generated
  // test the outcome set must be byte-identical with RfValuePruning on
  // vs off, with the transform domain degraded to copy-chains, and at
  // -j1 vs -j4 -- and the transform domain must prune strictly more
  // than the copy-chain baseline on at least one seed.
  unsigned Compared = 0, XformWins = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue; // attempt budget exhausted: nothing to compare
    const LitmusTest &T = Tests.front();

    SimOptions On;
    SimOptions CopyOnly;
    CopyOnly.RfTransformDomain = false;
    SimOptions Off;
    Off.RfValuePruning = false;
    SimOptions Par;
    Par.Jobs = 4;

    SimResult ROn = simulateC(T, "rc11", On);
    SimResult RCopy = simulateC(T, "rc11", CopyOnly);
    SimResult ROff = simulateC(T, "rc11", Off);
    SimResult RPar = simulateC(T, "rc11", Par);
    ASSERT_TRUE(ROn.ok()) << "seed " << Seed << ": " << ROn.Error;
    ASSERT_FALSE(ROff.TimedOut) << "seed " << Seed;
    ++Compared;

    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T);
    // Byte-equality of the rendered outcome sets, not just set
    // equality: the string is what campaign JSONs and journals carry.
    std::string Expect = outcomeSetToString(ROff.Allowed);
    EXPECT_EQ(outcomeSetToString(ROn.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RCopy.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RPar.Allowed), Expect) << What;
    EXPECT_EQ(ROn.Flags, ROff.Flags) << What;
    // -j4 must also agree on every deterministic counter.
    EXPECT_EQ(ROn.Stats.RfCandidates, RPar.Stats.RfCandidates) << What;
    EXPECT_EQ(ROn.Stats.RfSourcesPruned, RPar.Stats.RfSourcesPruned)
        << What;
    EXPECT_EQ(ROn.Stats.RfPruned, RPar.Stats.RfPruned) << What;
    // The copy attribution reproduces the copy-chain-only baseline; the
    // transform domain never prunes less.
    EXPECT_EQ(ROn.Stats.RfSourcesPrunedCopy,
              RCopy.Stats.RfSourcesPruned)
        << What;
    EXPECT_GE(ROn.Stats.RfSourcesPruned, RCopy.Stats.RfSourcesPruned)
        << What;
    if (ROn.Stats.RfSourcesPruned > RCopy.Stats.RfSourcesPruned)
      ++XformWins;
  }
  // The generator's attempt budget drops some seeds, but the battery
  // must remain a battery -- and the transform domain must have beaten
  // the copy-chain baseline somewhere in it.
  EXPECT_GT(Compared, 100u);
  EXPECT_GT(XformWins, 0u) << "transform domain never out-pruned the "
                              "copy-chain baseline across the battery";
}

TEST(FuzzTest, BackendDifferentialBattery) {
  // The same 200-seed generative stream, pitted across backends: for
  // every generated test the sweep, the solver (at -j1 and -j4) and
  // Auto must render byte-identical outcome sets, identical flags and
  // identical deterministic counters -- the backend only changes how
  // the candidate space is covered, never what comes out of it. The
  // solver's own counters must in turn be Jobs-invariant.
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomGenOptions G;
    G.Seed = Seed;
    G.Count = 1;
    G.MaxEdges = 8;
    std::vector<LitmusTest> Tests = generateRandomTests(G);
    if (Tests.empty())
      continue; // attempt budget exhausted: nothing to compare
    const LitmusTest &T = Tests.front();

    SimOptions SweepO;
    SweepO.Backend = SimBackendKind::Sweep;
    SimOptions SolveO;
    SolveO.Backend = SimBackendKind::Solve;
    SolveO.Jobs = 1;
    SimOptions SolvePar = SolveO;
    SolvePar.Jobs = 4;
    SimOptions AutoO;
    AutoO.Backend = SimBackendKind::Auto;

    SimResult RSweep = simulateC(T, "rc11", SweepO);
    SimResult RSolve = simulateC(T, "rc11", SolveO);
    SimResult RPar = simulateC(T, "rc11", SolvePar);
    SimResult RAuto = simulateC(T, "rc11", AutoO);
    ASSERT_TRUE(RSweep.ok()) << "seed " << Seed << ": " << RSweep.Error;
    ASSERT_TRUE(RSolve.ok()) << "seed " << Seed << ": " << RSolve.Error;
    ASSERT_FALSE(RSweep.TimedOut) << "seed " << Seed;
    ASSERT_FALSE(RSolve.TimedOut) << "seed " << Seed;
    ++Compared;

    std::string What = "seed " + std::to_string(Seed) + "\n" +
                       printLitmusC(T);
    std::string Expect = outcomeSetToString(RSweep.Allowed);
    EXPECT_EQ(outcomeSetToString(RSolve.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RPar.Allowed), Expect) << What;
    EXPECT_EQ(outcomeSetToString(RAuto.Allowed), Expect) << What;
    EXPECT_EQ(RSolve.Flags, RSweep.Flags) << What;
    EXPECT_EQ(RAuto.Flags, RSweep.Flags) << What;
    // The engines share the per-combo pipeline downstream of rf
    // selection, so the post-fixpoint counters agree exactly.
    EXPECT_EQ(RSolve.Stats.PathCombos, RSweep.Stats.PathCombos) << What;
    EXPECT_EQ(RSolve.Stats.ValueConsistent, RSweep.Stats.ValueConsistent)
        << What;
    EXPECT_EQ(RSolve.Stats.CoCandidates, RSweep.Stats.CoCandidates)
        << What;
    EXPECT_EQ(RSolve.Stats.AllowedExecutions,
              RSweep.Stats.AllowedExecutions)
        << What;
    EXPECT_EQ(RSolve.Stats.BackendUsed, uint8_t(SimBackendKind::Solve))
        << What;
    EXPECT_EQ(RSweep.Stats.BackendUsed, uint8_t(SimBackendKind::Sweep))
        << What;
    // -j must not change what the solver decided, only who decided it.
    EXPECT_EQ(RSolve.Stats.SolveDecisions, RPar.Stats.SolveDecisions)
        << What;
    EXPECT_EQ(RSolve.Stats.SolveConflicts, RPar.Stats.SolveConflicts)
        << What;
    EXPECT_EQ(RSolve.Stats.SolveClauses, RPar.Stats.SolveClauses) << What;
    EXPECT_EQ(RSolve.Stats.ValueConsistent, RPar.Stats.ValueConsistent)
        << What;
  }
  EXPECT_GT(Compared, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesClassics, MetamorphicTest, [] {
      std::vector<FuzzCase> Cases;
      for (const std::string &Name :
           {"MP", "MP+rel+acq", "SB", "LB", "2+2W", "S"})
        for (uint64_t Seed : {1ull, 7ull, 23ull})
          Cases.push_back({Name, Seed});
      return testing::ValuesIn(Cases);
    }(),
    [](const testing::TestParamInfo<FuzzCase> &Info) {
      std::string Name = Info.param.Classic + "_seed" +
                         std::to_string(Info.param.Seed);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
