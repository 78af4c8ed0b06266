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
#include "litmus/Parser.h"
#include "litmus/Printer.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace telechat;

namespace {

/// Everything single-test mode's flags set.
struct SingleArgs {
  std::string Path;
  std::vector<Profile> Profiles; ///< Exactly one.
  TestOptions Options;
  bool ShowAsm = false;
  uint64_t FuzzSeed = 0;
};

FlagTable singleFlags(SingleArgs &A) {
  FlagTable T;
  T.operand(cliString("<test.litmus>", nullptr, A.Path, nullptr));
  T.add("single test",
        {cliSwitch("--show-asm", A.ShowAsm, true,
                   "print raw and optimised assembly tests"),
         cliNumber("--fuzz-seed", "<n>", A.FuzzSeed, 0, UINT64_MAX,
                   "apply semantics-preserving mutations"),
         cliJobs(A.Options.Sim.Jobs,
                 "simulation threads (0 = all hardware threads)")});
  addPipelineFlags(T, A.Profiles, A.Options, /*ProfileList=*/false);
  addSimFlags(T, A.Options.Sim);
  return T;
}

void usage() {
  SingleArgs A;
  printToolUsage(
      "usage: telechat <test.litmus> [options]\n"
      "       telechat --campaign [corpus] [options]\n"
      "       telechat --serve <port> [corpus] [options]\n"
      "       telechat --relay <listen-port> <host:port> [options]\n"
      "       telechat --work <host:port> [options]\n",
      singleFlags(A));
}

int mainSingle(int argc, char **argv) {
  SingleArgs A;
  if (int Rc = singleFlags(A).parse(argc, argv, 1, usage))
    return Rc;
  const Profile &P = A.Profiles[0];
  std::ifstream In(A.Path);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", A.Path.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ErrorOr<LitmusTest> Test = parseLitmusC(Buffer.str());
  if (!Test) {
    fprintf(stderr, "error: %s: %s\n", A.Path.c_str(), Test.error().c_str());
    return 1;
  }
  LitmusTest Input = *Test;
  if (A.FuzzSeed) {
    FuzzOptions F;
    F.Seed = A.FuzzSeed;
    Input = mutateTest(Input, F);
    printf("fuzzed test (seed %llu):\n%s\n",
           static_cast<unsigned long long>(A.FuzzSeed),
           printLitmusC(Input).c_str());
  }

  TelechatResult R = runTelechat(Input, P, A.Options);
  if (!R.ok()) {
    fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  if (A.ShowAsm) {
    printf("--- raw disassembly ---\n%s\n", R.RawAsmText.c_str());
    printf("--- optimised litmus test (s2l: -%u instructions) ---\n%s\n",
           R.OptStats.RemovedInstructions,
           printAsmLitmus(R.OptAsm).c_str());
  }
  printf("test        : %s\n", Input.Name.c_str());
  printf("profile     : %s\n", P.name().c_str());
  printf("source model: %s\n", A.Options.SourceModel.c_str());
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
