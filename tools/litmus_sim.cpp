//===--- litmus_sim.cpp - Standalone litmus simulator (herd analogue) -----===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulates a litmus test under a model, like invoking herd directly:
///
///   litmus-sim test.litmus [--model rc11] [-j N] [--max-steps N]
///              [--dot] [--stats]
///
/// Accepts both C litmus tests and assembly litmus tests (the format
/// printed by the pipeline); assembly tests default to their target's
/// architecture model. Exit 1 when the step budget ran out: the printed
/// outcomes may then be incomplete.
///
/// Simulation-only campaigns run on the same distributed engine as
/// telechat (docs/DISTRIBUTED.md), with units that skip compilation and
/// mcompare:
///
///   litmus-sim --serve <port> --corpus tests.litmus [--model rc11]
///   litmus-sim --work <host:port> [-j N]
///
//===----------------------------------------------------------------------===//

#include "asmcore/AsmParser.h"
#include "asmcore/Semantics.h"
#include "dist/CampaignCli.h"
#include "sim/Backend.h"
#include "events/Dot.h"
#include "litmus/Parser.h"
#include "models/Models.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace telechat;

namespace {

/// Everything single-test mode's flags set; flags write straight into
/// the simulator's options.
struct SimArgs {
  std::string Path;
  std::string Model; ///< Empty: rc11 for C tests, else the target's.
  SimOptions Opts;
  bool Stats = false;
};

FlagTable singleFlags(SimArgs &A) {
  FlagTable T;
  T.operand(cliString("<test.litmus>", nullptr, A.Path, nullptr));
  T.add("single test",
        {cliEnum("--model", "<name>", modelNames(),
                 [&A](const std::string &M) { A.Model = M; },
                 "model (default rc11 for C tests, the\n"
                 "target's architecture model for assembly)"),
         cliJobs(A.Opts.Jobs, "enumeration threads (0 = all hardware\n"
                              "threads; default 1)"),
         cliSwitch("--dot", A.Opts.CollectExecutions, true,
                   "print up to four allowed executions as DOT"),
         cliSwitch("--stats", A.Stats, true, "print the enumeration counters"),
         cliNumber("--explore-iters", "<n>", A.Opts.ExploreIterations, 1,
                   UINT64_MAX, "explore: schedules per path combo (512)"),
         cliNumber("--explore-seed", "<n>", A.Opts.ExploreSeed, 0, UINT64_MAX,
                   "explore: PRNG seed for random schedules (1)")});
  addSimFlags(T, A.Opts);
  return T;
}

void usage() {
  SimArgs A;
  printToolUsage(
      "usage: litmus-sim <test.litmus> [options]\n"
      "       litmus-sim --serve <port> [corpus] [options]\n"
      "       litmus-sim --relay <listen-port> <host:port> [options]\n"
      "       litmus-sim --work <host:port> [options]\n",
      singleFlags(A));
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  if (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h") {
    usage();
    return 0;
  }
  if (std::string(argv[1]) == "--serve")
    return campaignToolMain(argc, argv, usage, CampaignCliMode::SimServe);
  if (std::string(argv[1]) == "--work")
    return workerToolMain(argc, argv, usage);
  if (std::string(argv[1]) == "--relay")
    return relayToolMain(argc, argv, usage);
  SimArgs A;
  if (int Rc = singleFlags(A).parse(argc, argv, 1, usage))
    return Rc;
  std::ifstream In(A.Path);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", A.Path.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  // C tests begin with "C "; everything else is assembly.
  SimProgram Program;
  if (Text.rfind("C ", 0) == 0 || Text.rfind("{", 0) == 0) {
    ErrorOr<LitmusTest> T = parseLitmusC(Text);
    if (!T) {
      fprintf(stderr, "parse error: %s\n", T.error().c_str());
      return 1;
    }
    Program = lowerLitmusC(*T);
    if (A.Model.empty())
      A.Model = "rc11";
  } else {
    ErrorOr<AsmLitmusTest> T = parseAsmLitmus(Text);
    if (!T) {
      fprintf(stderr, "parse error: %s\n", T.error().c_str());
      return 1;
    }
    ErrorOr<SimProgram> Lowered = lowerAsmTest(*T);
    if (!Lowered) {
      fprintf(stderr, "lowering error: %s\n", Lowered.error().c_str());
      return 1;
    }
    Program = std::move(*Lowered);
    if (A.Model.empty())
      A.Model = archModelName(T->TargetArch);
  }

  SimResult R = simulateProgram(Program, A.Model, A.Opts);
  if (!R.ok()) {
    fprintf(stderr, "simulation error: %s\n", R.Error.c_str());
    return 1;
  }
  printf("Test %s %s\n", Program.Name.c_str(),
         Program.Final.Q == FinalCond::Quant::Forall ? "Required"
                                                     : "Allowed");
  printf("States %zu\n", R.Allowed.size());
  printf("%s", outcomeSetToString(R.Allowed).c_str());
  bool Witness = finalConditionHolds(Program, R);
  printf("%s\n", Witness ? "Ok" : "No");
  printf("Condition %s\n", Program.Final.toString().c_str());
  if (R.TimedOut)
    printf("TIMEOUT (budget exhausted)\n");
  if (A.Stats) {
    printf("Time %s %.4f (backend=%s paths=%llu rf=%llu consistent=%llu "
           "co=%llu allowed=%llu rf-sources-pruned=%llu (copy=%llu "
           "xform=%llu) rf-pruned=%llu cat-evals-avoided=%llu)\n",
           Program.Name.c_str(), R.Stats.Seconds,
           backendUsedName(R.Stats.BackendUsed),
           static_cast<unsigned long long>(R.Stats.PathCombos),
           static_cast<unsigned long long>(R.Stats.RfCandidates),
           static_cast<unsigned long long>(R.Stats.ValueConsistent),
           static_cast<unsigned long long>(R.Stats.CoCandidates),
           static_cast<unsigned long long>(R.Stats.AllowedExecutions),
           static_cast<unsigned long long>(R.Stats.RfSourcesPruned),
           static_cast<unsigned long long>(R.Stats.RfSourcesPrunedCopy),
           static_cast<unsigned long long>(R.Stats.RfSourcesPrunedXform),
           static_cast<unsigned long long>(R.Stats.RfPruned),
           static_cast<unsigned long long>(R.Stats.CatEvalsAvoided));
    if (R.Stats.BackendUsed == uint8_t(SimBackendKind::Solve))
      printf("Solver %s (decisions=%llu propagations=%llu conflicts=%llu "
             "clauses=%llu)\n",
             Program.Name.c_str(),
             static_cast<unsigned long long>(R.Stats.SolveDecisions),
             static_cast<unsigned long long>(R.Stats.SolvePropagations),
             static_cast<unsigned long long>(R.Stats.SolveConflicts),
             static_cast<unsigned long long>(R.Stats.SolveClauses));
    if (R.Stats.BackendUsed == uint8_t(SimBackendKind::Explore))
      printf("Explore %s (iterations=%llu schedules=%llu outcomes=%llu)\n",
             Program.Name.c_str(),
             static_cast<unsigned long long>(R.Stats.ExploreIterations),
             static_cast<unsigned long long>(R.Stats.ExploreSchedules),
             static_cast<unsigned long long>(R.Stats.ExploreOutcomesFound));
  }
  if (A.Opts.CollectExecutions)
    for (size_t I = 0; I != R.Executions.size() && I < 4; ++I)
      printf("%s", executionToDot(R.Executions[I],
                                  Program.Name + std::to_string(I))
                       .c_str());
  // An exhausted budget means the outcome set may be incomplete, so the
  // "Ok"/"No" verdict above is not a result.
  return R.TimedOut ? 1 : 0;
}
