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
#include "dist/Relay.h"
#include "dist/Worker.h"
#include "sim/Backend.h"
#include "events/Dot.h"
#include "litmus/Parser.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace telechat;

static void usage() {
  fprintf(stderr,
          "usage: litmus-sim <test.litmus> [--model <name>] [-j <n>] "
          "[--max-steps <n>] [--dot] [--stats]\n"
          "       [--backend sweep|solve|auto|explore] [--no-prune] "
          "[--no-transform] [--no-cat-cache]\n"
          "       [--explore-iters <n>] [--explore-seed <n>]\n"
          "       litmus-sim --serve <port> --corpus <file>|--suite "
          "realworld[:family]|--gen-seed <n> [--gen-count <n>] "
          "[--model <m>]\n"
          "                  [--campaign-json <f>] [--engine-json <f>] "
          "[--journal <f>] [--resume] [--dedupe]\n"
          "                  [--bind <addr>] [--lease-timeout <s>] "
          "[--batch <n>] [--status-port <p>] [--compact] [--verbose]   "
          "(shared with telechat --serve)\n"
          "       litmus-sim --relay <listen-port> <host:port> "
          "[--bind <addr>] [--batch <n>] [--status-port <p>]\n"
          "       litmus-sim --work <host:port> [-j <n>] [--batch <n>] "
          "[--max-units <n>]\n"
          "  -j <n>          enumeration worker threads (0 = all hardware "
          "threads; default 1)\n"
          "  --backend <b>   consistency engine: sweep (explicit enumeration,\n"
          "                  default), solve (constraint solver), auto\n"
          "                  (pick by estimated rf-space size); outcomes\n"
          "                  are identical, budget/steps are not; explore\n"
          "                  (dynamic scheduler exploration) reports a sound\n"
          "                  *subset* within its iteration budget\n"
          "  --explore-iters <n>  explore: schedules per path combo\n"
          "  --explore-seed <n>   explore: PRNG seed for random schedules\n"
          "  --no-prune      disable rf value-constraint pruning\n"
          "  --no-transform  prune with the copy-chain-only abstract "
          "domain (no arithmetic transforms)\n"
          "  --no-cat-cache  disable incremental Cat evaluation\n"
          "  --dedupe        serve one unit per canonical test shape and\n"
          "                  rename its result onto the duplicates\n");
}

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
  std::string Path = argv[1];
  std::string Model;
  bool Dot = false, Stats = false;
  bool Prune = true, Transform = true, CatCache = true;
  SimBackendKind Backend = SimBackendKind::Sweep;
  unsigned Jobs = 1;
  uint64_t MaxSteps = 0;
  uint64_t ExploreIters = 0, ExploreSeed = 0; // 0 = SimOptions default.
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--model" && I + 1 < argc)
      Model = argv[++I];
    else if ((Arg == "-j" || Arg == "--jobs") && I + 1 < argc) {
      if (!parseFlagNumber("-j", argv[++I], 0u, kMaxJobs, Jobs))
        return 2;
    } else if (Arg == "--max-steps" && I + 1 < argc) {
      if (!parseFlagNumber("--max-steps", argv[++I], uint64_t(1), UINT64_MAX,
                           MaxSteps))
        return 2;
    } else if (Arg == "--dot")
      Dot = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--no-prune")
      Prune = false;
    else if (Arg == "--no-transform")
      Transform = false;
    else if (Arg == "--no-cat-cache")
      CatCache = false;
    else if (Arg == "--backend" && I + 1 < argc) {
      if (!backendFromName(argv[++I], Backend)) {
        fprintf(stderr, "error: unknown backend '%s'\n", argv[I]);
        return 1;
      }
    } else if (Arg == "--explore-iters" && I + 1 < argc) {
      if (!parseFlagNumber("--explore-iters", argv[++I], uint64_t(1),
                           UINT64_MAX, ExploreIters))
        return 2;
    } else if (Arg == "--explore-seed" && I + 1 < argc) {
      if (!parseFlagNumber("--explore-seed", argv[++I], uint64_t(0),
                           UINT64_MAX, ExploreSeed))
        return 2;
    }
  }
  std::ifstream In(Path);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", Path.c_str());
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
    if (Model.empty())
      Model = "rc11";
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
    if (Model.empty())
      Model = archModelName(T->TargetArch);
  }

  SimOptions Opts;
  Opts.CollectExecutions = Dot;
  Opts.Jobs = Jobs;
  Opts.RfValuePruning = Prune;
  Opts.RfTransformDomain = Transform;
  Opts.IncrementalCatEval = CatCache;
  Opts.Backend = Backend;
  if (ExploreIters)
    Opts.ExploreIterations = ExploreIters;
  if (ExploreSeed)
    Opts.ExploreSeed = ExploreSeed;
  if (MaxSteps)
    Opts.MaxSteps = MaxSteps;
  SimResult R = simulateProgram(Program, Model, Opts);
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
  if (Stats) {
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
  if (Dot)
    for (size_t I = 0; I != R.Executions.size() && I < 4; ++I)
      printf("%s", executionToDot(R.Executions[I],
                                  Program.Name + std::to_string(I))
                       .c_str());
  // An exhausted budget means the outcome set may be incomplete, so the
  // "Ok"/"No" verdict above is not a result.
  return R.TimedOut ? 1 : 0;
}
