//===--- telechat.cpp - The Télétchat command-line tool -------------------==//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end CLI, the analogue of the artefact's Makefile entry
/// point. Four modes:
///
///   telechat test.litmus --profile llvm-O2-AArch64 [...]
///     One test through the Fig. 5 pipeline: outcomes + verdict.
///     Exit 0 clean/negative, 1 usage or pipeline error, 2 bug found.
///
///   telechat --campaign [corpus flags] --profile P [...]
///     A local campaign over a corpus (files, --suite, --classics),
///     pooled across tests; writes the deterministic results JSON.
///     Exit 0 clean, 1 usage error or incomplete (some unit errored or
///     timed out), 2 bug found.
///
///   telechat --serve <port> [corpus flags] --profile P [...]
///     The same campaign served to remote workers over TCP
///     (docs/DISTRIBUTED.md); the merged report is bit-identical to
///     --campaign over the same corpus. With --gen-seed the server
///     streams diy-generated units on demand instead of materialising
///     a corpus; with --journal/--resume a killed server restarts
///     where it left off with a byte-identical final report.
///
///   telechat --work <host:port> [-j N]
///     A worker: pulls units from a server until the campaign is done.
///
//===----------------------------------------------------------------------===//

#include "asmcore/AsmPrinter.h"
#include "core/Fuzz.h"
#include "core/Telechat.h"
#include "dist/CampaignCli.h"
#include "dist/Relay.h"
#include "dist/Worker.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "sim/Backend.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace telechat;

static void usage() {
  fprintf(stderr,
          "usage: telechat <test.litmus> --profile <name> [options]\n"
          "       telechat --campaign [corpus] --profile <name> [options]\n"
          "       telechat --serve <port> [corpus] --profile <name> "
          "[options]\n"
          "       telechat --relay <listen-port> <host:port> [options]\n"
          "       telechat --work <host:port> [-j N] [--batch N]\n"
          "\n"
          "single-test options:\n"
          "  --profile <name>   e.g. llvm-O2-AArch64, gcc-O1-ARMv7,\n"
          "                     llvm-O3-AArch64+lse+rcpc\n"
          "  --model <name>     source model (default rc11)\n"
          "  --no-augment       disable local-variable augmentation\n"
          "  --no-optimise      disable the s2l litmus optimiser\n"
          "  --const-model      use the const-violation-flagging model\n"
          "  --backend <b>      consistency engine: sweep | solve | auto |\n"
          "                     explore (auto picks by estimated rf-space\n"
          "                     size; sweep/solve/auto outcomes are\n"
          "                     backend-independent; explore runs the\n"
          "                     *compiled* side dynamically and reports a\n"
          "                     sound subset -- see --explore-budget)\n"
          "  --explore-budget <n>  reroute units whose estimated rf space\n"
          "                     reaches n to the explore backend\n"
          "  --no-prune         disable rf value-constraint pruning\n"
          "  --no-transform     copy-chain-only pruning domain (no\n"
          "                     arithmetic transforms)\n"
          "  --no-cat-cache     disable incremental Cat evaluation\n"
          "  --show-asm         print raw and optimised assembly tests\n"
          "  --fuzz-seed <n>    apply semantics-preserving mutations\n"
          "  --max-steps <n>    simulation budget (default 2000000)\n"
          "  -j, --jobs <n>     worker threads (0 = all hardware threads)\n"
          "\n"
          "corpus (campaign/serve): any mix, corpus order = given order\n"
          "  --corpus <file>    litmus file; may hold many tests (each\n"
          "                     starting with a 'C <name>' line)\n"
          "  --kernels <dir>    directory of C++ kernel-snippet files\n"
          "                     (litmus/Snippet.h), lexicographic order\n"
          "  --suite <name>     generated suite: c11, c11acq, or\n"
          "                     realworld[:family] (families: spsc, mpmc,\n"
          "                     seqlock, dclp, flagmsg, peterson)\n"
          "  --limit <n>        cap on --suite tests\n"
          "  --classics         the classic families (MP, SB, IRIW, ...)\n"
          "  --gen-seed <n>     stream seeded diy generation instead of a\n"
          "                     corpus (exclusive with the flags above)\n"
          "  --gen-count <n>    tests to generate (default 10)\n"
          "  --gen-max-edges <n> cycle length cap (default 6)\n"
          "  --materialise      expand --gen-* up front instead of\n"
          "                     streaming (debugging; same results)\n"
          "\n"
          "campaign/serve options:\n"
          "  --campaign-json <f>  deterministic merged results (byte-equal\n"
          "                       between --campaign and --serve, streamed\n"
          "                       or materialised, resumed or not)\n"
          "  --engine-json <f>    throughput/requeue telemetry (--serve)\n"
          "  --journal <f>        append-only campaign journal: spec +\n"
          "                       every accepted result (--serve and\n"
          "                       --campaign)\n"
          "  --resume             replay --journal; only incomplete units\n"
          "                       are served/executed again\n"
          "  --compact            after a clean campaign, rewrite the\n"
          "                       journal as header + results in unit-id\n"
          "                       order (duplicates and partial tail\n"
          "                       dropped); resume stays byte-identical\n"
          "  --status-port <p>    (--serve/--relay) HTTP status endpoint:\n"
          "                       GET /status -> live campaign JSON\n"
          "  --dedupe             execute one unit per canonical test\n"
          "                       shape (litmus/Canon.h) and rename its\n"
          "                       result onto the duplicates\n"
          "  --bind <addr>        listen address (default 127.0.0.1)\n"
          "  --lease-timeout <s>  re-issue stalled leases (default 120)\n"
          "  --batch <n>          max units per Work frame / request\n"
          "  --max-units <n>      (--work) fault drill: drop connection\n"
          "                       after n results\n");
}

namespace {

int mainSingle(int argc, char **argv) {
  std::string Path = argv[1];
  std::string ProfileName = "llvm-O2-AArch64";
  TestOptions Options;
  bool ShowAsm = false;
  uint64_t FuzzSeed = 0;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--profile") {
      const char *V = Next();
      if (!V) {
        usage();
        return 1;
      }
      ProfileName = V;
    } else if (Arg == "--model") {
      const char *V = Next();
      if (!V) {
        usage();
        return 1;
      }
      Options.SourceModel = V;
    } else if (Arg == "--no-augment") {
      Options.AugmentLocals = false;
    } else if (Arg == "--no-optimise") {
      Options.OptimiseCompiled = false;
    } else if (Arg == "--const-model") {
      Options.ConstAugmentedModel = true;
    } else if (Arg == "--backend") {
      const char *V = Next();
      if (!V || !backendFromName(V, Options.Sim.Backend)) {
        fprintf(stderr, "error: --backend expects sweep|solve|auto|explore\n");
        return 1;
      }
    } else if (Arg == "--explore-budget") {
      const char *V = Next();
      if (!V) {
        usage();
        return 1;
      }
      if (!parseFlagNumber("--explore-budget", V, uint64_t(0), UINT64_MAX,
                           Options.Sim.ExploreBudget))
        return 2;
    } else if (Arg == "--no-prune") {
      Options.Sim.RfValuePruning = false;
    } else if (Arg == "--no-transform") {
      Options.Sim.RfTransformDomain = false;
    } else if (Arg == "--no-cat-cache") {
      Options.Sim.IncrementalCatEval = false;
    } else if (Arg == "--show-asm") {
      ShowAsm = true;
    } else if (Arg == "--fuzz-seed") {
      const char *V = Next();
      if (!V) {
        usage();
        return 1;
      }
      if (!parseFlagNumber("--fuzz-seed", V, uint64_t(0), UINT64_MAX,
                           FuzzSeed))
        return 2;
    } else if (Arg == "--max-steps") {
      const char *V = Next();
      if (!V) {
        usage();
        return 1;
      }
      if (!parseFlagNumber("--max-steps", V, uint64_t(1), UINT64_MAX,
                           Options.Sim.MaxSteps))
        return 2;
    } else if (Arg == "-j" || Arg == "--jobs") {
      const char *V = Next();
      if (!V) {
        usage();
        return 1;
      }
      if (!parseFlagNumber("-j", V, 0u, kMaxJobs, Options.Sim.Jobs))
        return 2;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }

  Profile P;
  if (!profileFromName(ProfileName, P)) {
    fprintf(stderr, "error: unknown profile '%s'\n", ProfileName.c_str());
    return 1;
  }
  std::ifstream In(Path);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ErrorOr<LitmusTest> Test = parseLitmusC(Buffer.str());
  if (!Test) {
    fprintf(stderr, "error: %s: %s\n", Path.c_str(), Test.error().c_str());
    return 1;
  }
  LitmusTest Input = *Test;
  if (FuzzSeed) {
    FuzzOptions F;
    F.Seed = FuzzSeed;
    Input = mutateTest(Input, F);
    printf("fuzzed test (seed %llu):\n%s\n",
           static_cast<unsigned long long>(FuzzSeed),
           printLitmusC(Input).c_str());
  }

  TelechatResult R = runTelechat(Input, P, Options);
  if (!R.ok()) {
    fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  if (ShowAsm) {
    printf("--- raw disassembly ---\n%s\n", R.RawAsmText.c_str());
    printf("--- optimised litmus test (s2l: -%u instructions) ---\n%s\n",
           R.OptStats.RemovedInstructions,
           printAsmLitmus(R.OptAsm).c_str());
  }
  printf("test        : %s\n", Input.Name.c_str());
  printf("profile     : %s\n", P.name().c_str());
  printf("source model: %s\n", Options.SourceModel.c_str());
  printf("\nsource outcomes (%zu):\n%s", R.SourceSim.Allowed.size(),
         outcomeSetToString(R.SourceSim.Allowed).c_str());
  printf("compiled outcomes (%zu):\n%s", R.TargetSim.Allowed.size(),
         outcomeSetToString(R.TargetSim.Allowed).c_str());
  if (R.timedOut()) {
    printf("\nverdict: TIMEOUT (budget exhausted)\n");
    return 1;
  }
  for (const std::string &F : R.Compare.TargetFlags)
    printf("flag: %s\n", F.c_str());
  switch (R.Compare.K) {
  case CompareResult::Kind::Equal:
    printf("\nverdict: equal outcome sets\n");
    return 0;
  case CompareResult::Kind::Negative:
    printf("\nverdict: negative difference (compiled is stronger; sound)\n");
    return 0;
  case CompareResult::Kind::Positive:
    if (R.Compare.SourceRace) {
      printf("\nverdict: positive difference on a RACY source test "
             "(undefined behaviour; ignored)\n");
      return 0;
    }
    printf("\nverdict: POSITIVE DIFFERENCE -- compiler bug candidate\n");
    for (const Outcome &W : R.Compare.Witnesses)
      printf("  witness: %s\n", W.toString().c_str());
    return 2;
  case CompareResult::Kind::CoverageGap:
    printf("\nverdict: coverage gap (dynamic exploration reached a subset "
           "of the source outcomes; raise the iteration budget to "
           "distinguish under-coverage from a negative difference)\n");
    return 0;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string Mode = argv[1];
  if (Mode == "--serve")
    return campaignToolMain(argc, argv, usage, CampaignCliMode::Serve);
  if (Mode == "--campaign")
    return campaignToolMain(argc, argv, usage, CampaignCliMode::Local);
  if (Mode == "--work")
    return workerToolMain(argc, argv, usage);
  if (Mode == "--relay")
    return relayToolMain(argc, argv, usage);
  if (Mode == "--help" || Mode == "-h") {
    usage();
    return 0;
  }
  return mainSingle(argc, argv);
}
