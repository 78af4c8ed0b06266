//===--- bench_fig2_executions.cpp - Paper Figs. 1-3 (E1) -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
// Regenerates §II's running example: the candidate executions of the
// Fig. 1 litmus test and the RC11-allowed outcomes of Fig. 3. The paper
// lists four consistent candidate executions (acbd/cabd collapse to one
// outcome shape) and three allowed outcomes; dabc and its outcome
// {P1:r0=0; y=2} are forbidden by RC11's no-thin-air/coherence axioms.
//
// The timed sections measure the enumeration hot path with the
// rf-pruning + incremental-Cat optimisations off (arg 0) vs on (arg 1)
// and export the work counters (rf_candidates, rf_sources_pruned,
// rf_pruned, cat_evals_avoided) into the benchmark JSON, so CI artifacts
// track both the speedup and the pruning effectiveness over time.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "diy/Classics.h"
#include "diy/RealWorld.h"
#include "events/Dot.h"
#include "litmus/Parser.h"
#include "sim/Backend.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace telechat;
using namespace telechat_bench;

namespace {

/// A constraint-heavy companion to Fig. 1: every store of y is gated on
/// loaded values, so most rf assignments are value-inconsistent and die
/// in the pre-fixpoint prune (the Fig. 1 test itself has no branches and
/// exercises only the incremental-Cat axis).
const char *const GatedSource = R"(C gated
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(z, memory_order_relaxed);
  if (r0) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  else { atomic_store_explicit(y, 2, memory_order_relaxed); }
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0) { atomic_store_explicit(z, 1, memory_order_relaxed); }
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  if (r1 - 2) { atomic_store_explicit(z, 2, memory_order_relaxed); }
}
exists (P1:r1=1 /\ P0:r0=2)
)";

SimProgram gatedProgram() {
  ErrorOr<LitmusTest> T = parseLitmusC(GatedSource);
  if (!T) {
    fprintf(stderr, "fatal: gated workload fails to parse: %s\n",
            T.error().c_str());
    exit(1);
  }
  return lowerLitmusC(*T);
}

SimOptions featureOptions(bool Enabled) {
  SimOptions Opts;
  Opts.RfValuePruning = Enabled;
  Opts.IncrementalCatEval = Enabled;
  return Opts;
}

void exportCounters(benchmark::State &State, const SimStats &S) {
  State.counters["rf_candidates"] = double(S.RfCandidates);
  State.counters["rf_sources_pruned"] = double(S.RfSourcesPruned);
  State.counters["rf_sources_pruned_copy"] = double(S.RfSourcesPrunedCopy);
  State.counters["rf_sources_pruned_xform"] =
      double(S.RfSourcesPrunedXform);
  State.counters["rf_pruned"] = double(S.RfPruned);
  State.counters["cat_evals_avoided"] = double(S.CatEvalsAvoided);
}

/// Fig. 1 under RC11: branch-free, so the delta between arg 0 and arg 1
/// isolates the incremental Cat evaluation win.
void BM_Fig1Enumeration(benchmark::State &State) {
  SimProgram P = lowerLitmusC(paperFig1());
  SimOptions Opts = featureOptions(State.range(0) != 0);
  SimStats Last;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "rc11", Opts);
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  exportCounters(State, Last);
}
BENCHMARK(BM_Fig1Enumeration)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// The gated workload: branch constraints shrink the rf space, so the
/// delta between arg 0 and arg 1 is dominated by value pruning.
void BM_GatedEnumeration(benchmark::State &State) {
  SimProgram P = gatedProgram();
  SimOptions Opts = featureOptions(State.range(0) != 0);
  SimStats Last;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "rc11", Opts);
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  exportCounters(State, Last);
}
BENCHMARK(BM_GatedEnumeration)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// An arithmetic-gated companion: every branch is taken on a register
/// *assigned* from arithmetic over a loaded value (r^1, r+1), so the
/// copy-chain-only domain sees Top at the constraint site and the extra
/// pruning is entirely the symbolic-transform domain's. Arg: 0 =
/// pruning off, 1 = copy-chain-only domain (RfTransformDomain off),
/// 2 = full transform domain.
const char *ArithGatedWorkload = R"(C arith_gated
{ *x = 0; *y = 0; *z = 0; }
void P0(atomic_int* x, atomic_int* y, atomic_int* z) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(z, memory_order_relaxed);
  int r2 = r0 ^ 1;
  if (r2) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  else { atomic_store_explicit(y, 2, memory_order_relaxed); }
}
void P1(atomic_int* x, atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r3 = r0 + 1;
  if (r3 - 1) { atomic_store_explicit(z, 1, memory_order_relaxed); }
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
  int r4 = r1 & 3;
  if (r4 - 2) { atomic_store_explicit(z, 2, memory_order_relaxed); }
}
exists (P1:r1=1 /\ P0:r0=2)
)";

void BM_ArithGatedEnumeration(benchmark::State &State) {
  ErrorOr<LitmusTest> T = parseLitmusC(ArithGatedWorkload);
  if (!T) {
    fprintf(stderr, "fatal: arith-gated workload fails to parse: %s\n",
            T.error().c_str());
    exit(1);
  }
  SimProgram P = lowerLitmusC(*T);
  SimOptions Opts;
  Opts.RfValuePruning = State.range(0) != 0;
  Opts.RfTransformDomain = State.range(0) == 2;
  SimStats Last;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "rc11", Opts);
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  exportCounters(State, Last);
}
BENCHMARK(BM_ArithGatedEnumeration)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

/// The sweep-vs-solve crossover workload: a two-path observer whose
/// else-path hides \p Junk junk loads behind an `a - b == 0` constraint
/// no pair of candidate writes satisfies. The dead path costs the sweep
/// one budget step per swept rf index (~2^(Junk+2)); the solve backend
/// refutes it from the compiled pair check without a single decision.
LitmusTest crossoverTest(unsigned Junk) {
  std::string Locs, P0Params, P1Params, Stores, Loads;
  for (unsigned I = 0; I != Junk; ++I) {
    std::string X = "x" + std::to_string(I);
    Locs += "*" + X + " = 0; ";
    P0Params += ", atomic_int* " + X;
    P1Params += ", atomic_int* " + X;
    Stores += "  atomic_store_explicit(" + X +
              ", 1, memory_order_relaxed);\n";
    Loads += "    int r" + std::to_string(I) + " = atomic_load_explicit(" +
             X + ", memory_order_relaxed);\n";
  }
  std::string Src = "C xover" + std::to_string(Junk) + "\n{ *y = 0; *z = 1; *w = 0; " +
                    Locs +
                    "}\nvoid P0(atomic_int* y, atomic_int* z, atomic_int* w" +
                    P0Params +
                    ") {\n"
                    "  atomic_store_explicit(y, 5, memory_order_relaxed);\n"
                    "  atomic_store_explicit(z, 7, memory_order_relaxed);\n" +
                    Stores +
                    "}\nvoid P1(atomic_int* y, atomic_int* z, atomic_int* w" +
                    P1Params +
                    ") {\n"
                    "  int a = atomic_load_explicit(y, memory_order_relaxed);\n"
                    "  int b = atomic_load_explicit(z, memory_order_relaxed);\n"
                    "  if (a - b) {\n"
                    "    atomic_store_explicit(w, 1, memory_order_relaxed);\n"
                    "  } else {\n" +
                    Loads +
                    "  }\n}\nexists (P1:a=5 /\\ P1:b=7)\n";
  ErrorOr<LitmusTest> T = parseLitmusC(Src);
  if (!T) {
    fprintf(stderr, "fatal: crossover workload fails to parse: %s\n",
            T.error().c_str());
    exit(1);
  }
  return *T;
}

/// Sweep vs solve over a growing dead space. Args: (junk loads,
/// backend 0=sweep 1=solve). The exported counters carry the solver's
/// work split and whether the budget survived, so the bench JSON tracks
/// where the crossover sits over time.
void BM_BackendCrossover(benchmark::State &State) {
  SimProgram P = lowerLitmusC(crossoverTest(unsigned(State.range(0))));
  SimOptions Opts;
  Opts.Backend = State.range(1) != 0 ? SimBackendKind::Solve
                                     : SimBackendKind::Sweep;
  Opts.MaxSteps = 1u << 18; // Crossed by the swept dead path at 16 junk.
  SimStats Last;
  bool TimedOut = false;
  for (auto _ : State) {
    SimResult R = simulateProgram(P, "rc11", Opts);
    Last = R.Stats;
    TimedOut = R.TimedOut;
    benchmark::DoNotOptimize(R.Allowed.size());
  }
  exportCounters(State, Last);
  State.counters["est_rf_space"] = double(estimatedRfSpace(P));
  State.counters["timed_out"] = TimedOut ? 1.0 : 0.0;
  State.counters["solve_decisions"] = double(Last.SolveDecisions);
  State.counters["solve_propagations"] = double(Last.SolvePropagations);
  State.counters["solve_conflicts"] = double(Last.SolveConflicts);
  State.counters["solve_clauses"] = double(Last.SolveClauses);
}
BENCHMARK(BM_BackendCrossover)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({12, 0})
    ->Args({12, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->Unit(benchmark::kMicrosecond);

/// Whole-family enumeration over the realworld suite: every sweep point
/// of one family, generated and swept per iteration -- the per-family
/// cost a `--suite realworld` campaign pays. Arg: family index into
/// realWorldFamilies(). Exported counters carry the instance count and
/// the summed rf work, so the bench JSON tracks corpus growth and
/// enumeration cost per family over time.
void BM_RealWorldFamilyEnumeration(benchmark::State &State) {
  const std::vector<std::string> Families = realWorldFamilies();
  const std::string &Family = Families.at(size_t(State.range(0)));
  ErrorOr<std::vector<RealWorldCase>> Cases = realWorldFamily(Family);
  if (!Cases.hasValue()) {
    fprintf(stderr, "fatal: %s\n", Cases.error().c_str());
    exit(1);
  }
  State.SetLabel(Family);
  SimOptions Opts;
  uint64_t RfCandidates = 0, Outcomes = 0;
  for (auto _ : State) {
    uint64_t Rf = 0, Out = 0;
    for (const RealWorldCase &C : *Cases) {
      SimResult R = simulateC(C.Test, "rc11", Opts);
      Rf += R.Stats.RfCandidates;
      Out += R.Allowed.size();
      benchmark::DoNotOptimize(R.Allowed.size());
    }
    RfCandidates = Rf;
    Outcomes = Out;
  }
  State.counters["instances"] = double(Cases->size());
  State.counters["rf_candidates"] = double(RfCandidates);
  State.counters["outcomes"] = double(Outcomes);
}
BENCHMARK(BM_RealWorldFamilyEnumeration)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  header("Fig. 2/3: executions and outcomes of the Fig. 1 litmus test");
  LitmusTest Fig1 = paperFig1();

  SimOptions Opts;
  Opts.CollectExecutions = true;
  Opts.MaxCollectedExecutions = 16;
  SimResult R = simulateC(Fig1, "rc11", Opts);
  if (!R.ok()) {
    printf("simulation error: %s\n", R.Error.c_str());
    return 1;
  }
  printf("\nRC11-allowed outcomes (paper Fig. 3):\n%s",
         outcomeSetToString(R.Allowed).c_str());
  printf("\nAllowed executions: %llu (paper: acbd/cabd, abcd, cdab)\n",
         static_cast<unsigned long long>(R.Stats.AllowedExecutions));

  SimProgram P = lowerLitmusC(Fig1);
  bool Forbidden = !finalConditionHolds(P, R);
  printf("exists (P1:r0=0 /\\ y=2): %s under RC11 (paper: forbidden)\n",
         Forbidden ? "FORBIDDEN" : "allowed");

  printf("\nFirst allowed execution as Graphviz (cf. paper Fig. 2):\n%s",
         R.Executions.empty()
             ? "(none)\n"
             : executionToDot(R.Executions.front(), "fig2").c_str());

  // Pruning/caching must be invisible in the outcome sets -- this gate
  // fails the bench (and the CI smoke step) on any divergence.
  bool Identical = true;
  for (const SimProgram &Prog : {lowerLitmusC(Fig1), gatedProgram()}) {
    SimResult On = simulateProgram(Prog, "rc11", featureOptions(true));
    SimResult Off = simulateProgram(Prog, "rc11", featureOptions(false));
    bool Same = On.Allowed == Off.Allowed && On.Flags == Off.Flags;
    printf("%s: outcomes with pruning+caching on vs off: %s "
           "(rf %llu -> %llu, pruned %llu, cat evals avoided %llu)\n",
           Prog.Name.c_str(), Same ? "identical" : "DIFFERENT!",
           static_cast<unsigned long long>(Off.Stats.RfCandidates),
           static_cast<unsigned long long>(On.Stats.RfCandidates),
           static_cast<unsigned long long>(On.Stats.RfPruned),
           static_cast<unsigned long long>(On.Stats.CatEvalsAvoided));
    Identical = Identical && Same;
  }

  // The backend seam's contract, gated like the pruning one: identical
  // outcomes where both engines finish, and the solve backend finishing
  // a dead-constraint space whose sweep exhausts the step budget -- the
  // crossover the backend exists for.
  {
    SimOptions SweepO, SolveO;
    SweepO.Backend = SimBackendKind::Sweep;
    SolveO.Backend = SimBackendKind::Solve;
    SweepO.MaxSteps = SolveO.MaxSteps = 1u << 18;
    LitmusTest Small = crossoverTest(8);
    SimResult SwSmall = simulateC(Small, "rc11", SweepO);
    SimResult SoSmall = simulateC(Small, "rc11", SolveO);
    bool Same = SwSmall.Allowed == SoSmall.Allowed &&
                SwSmall.Flags == SoSmall.Flags && !SwSmall.TimedOut &&
                !SoSmall.TimedOut;
    printf("xover8: sweep vs solve outcomes: %s\n",
           Same ? "identical" : "DIFFERENT!");
    LitmusTest Big = crossoverTest(20);
    SimResult SwBig = simulateC(Big, "rc11", SweepO);
    SimResult SoBig = simulateC(Big, "rc11", SolveO);
    bool Crossover = SwBig.TimedOut && !SoBig.TimedOut;
    printf("xover20 at %u steps: sweep %s, solve %s "
           "(decisions=%llu conflicts=%llu clauses=%llu)\n",
           1u << 18, SwBig.TimedOut ? "times out" : "finishes?!",
           SoBig.TimedOut ? "TIMES OUT!" : "finishes",
           static_cast<unsigned long long>(SoBig.Stats.SolveDecisions),
           static_cast<unsigned long long>(SoBig.Stats.SolveConflicts),
           static_cast<unsigned long long>(SoBig.Stats.SolveClauses));
    Identical = Identical && Same && Crossover;
  }

  // Realworld suite gate: the corpus keeps its promised scale and the
  // anchor sweep points keep their contract verdicts under both
  // enumeration backends.
  {
    std::vector<RealWorldCase> Suite = realWorldSuite();
    bool Scale = Suite.size() >= 200;
    bool Verdicts = true;
    SimOptions SweepO, SolveO;
    SweepO.Backend = SimBackendKind::Sweep;
    SolveO.Backend = SimBackendKind::Solve;
    for (const char *Name : {"rw.spsc+pub.rel+con.acq+w32",
                             "rw.spsc+pub.rlx+con.rlx+w32"}) {
      LitmusTest T = realWorldTest(Name);
      SimResult Sw = simulateC(T, "rc11", SweepO);
      SimResult So = simulateC(T, "rc11", SolveO);
      bool Witnessed = false;
      for (const Outcome &O : Sw.Allowed)
        Witnessed |= T.Final.P.eval(O);
      bool Forbidding = std::string(Name).find("rel") != std::string::npos;
      Verdicts = Verdicts && Sw.ok() && So.ok() &&
                 Sw.Allowed == So.Allowed && Witnessed != Forbidding;
    }
    printf("realworld suite: %zu instantiations (>=200: %s), anchor "
           "verdicts sweep==solve: %s\n",
           Suite.size(), Scale ? "yes" : "NO!",
           Verdicts ? "hold" : "BROKEN!");
    Identical = Identical && Scale && Verdicts;
  }

  printf("\nTimed sections (google-benchmark):\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The same test under the architecture-level view after compilation is
  // exercised by bench_fig10_localvar.
  return Forbidden && Identical ? 0 : 1;
}
