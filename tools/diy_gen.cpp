//===--- diy_gen.cpp - Cycle-based litmus test generator CLI --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diy analogue: prints the litmus test realising a relaxation
/// cycle.
///
///   diy-gen "PodWW Rfe PodRR Fre" [--name MP] [--load acq] [--store rel]
///   diy-gen --classic MP+fences
///   diy-gen --suite c11 [--limit N]     (prints a whole test suite)
///   diy-gen --help
///
//===----------------------------------------------------------------------===//

#include "diy/Classics.h"
#include "diy/Config.h"
#include "diy/Cycle.h"
#include "litmus/Printer.h"
#include "support/Flags.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace telechat;

namespace {

const std::pair<const char *, MemOrder> Orders[] = {
    {"na", MemOrder::NA},       {"rlx", MemOrder::Relaxed},
    {"acq", MemOrder::Acquire}, {"rel", MemOrder::Release},
    {"acqrel", MemOrder::AcqRel}, {"sc", MemOrder::SeqCst}};

CliFlag orderFlag(const char *Name, MemOrder &Target, const char *Help) {
  std::vector<std::string> Names;
  for (const auto &[Token, Order] : Orders)
    Names.push_back(Token);
  return cliEnum(Name, "<order>", Names,
                 [&Target](const std::string &V) {
                   for (const auto &[Token, Order] : Orders)
                     if (V == Token)
                       Target = Order;
                 },
                 Help);
}

/// Everything the flags set: the operand (a cycle, a classic name or a
/// suite name) and the options of its mode.
struct GenArgs {
  std::string Operand;
  unsigned Limit = 0;
  CycleSpec Spec;
};

/// The flag table of mode \p Mode: "--classic", "--suite", or a cycle.
FlagTable genFlags(const std::string &Mode, GenArgs &A) {
  FlagTable T;
  if (Mode == "--classic") {
    T.operand(cliString("--classic", nullptr, A.Operand, nullptr));
  } else if (Mode == "--suite") {
    T.operand(cliEnum("--suite", nullptr, suiteNames(),
                      [&A](const std::string &S) { A.Operand = S; }, nullptr));
    T.add("--suite options",
          {cliNumber("--limit", "<n>", A.Limit, 0, UINT32_MAX,
                     "cap on the suite's tests (0 = all)")});
  } else {
    T.operand(cliString("<cycle>", nullptr, A.Operand, nullptr));
    T.add("cycle options",
          {cliString("--name", "<name>", A.Spec.Name,
                     "test name (default generated)"),
           orderFlag("--load", A.Spec.LoadOrder,
                     "load order: na rlx acq rel acqrel sc"),
           orderFlag("--store", A.Spec.StoreOrder,
                     "store order: na rlx acq rel acqrel sc")});
  }
  return T;
}

void usage() {
  fprintf(stderr,
          "usage: diy-gen \"<cycle>\" [options]\n"
          "       diy-gen --classic <name>\n"
          "       diy-gen --suite <c11|c11acq|realworld[:family]> "
          "[options]\n");
  GenArgs A;
  std::set<std::string> Printed;
  genFlags("", A).printHelp(Printed);
  genFlags("--suite", A).printHelp(Printed);
}

/// Lists the classic test names after \p Lead; returns exit status 1.
int listClassics(const std::string &Lead) {
  fprintf(stderr, "%s; known:", Lead.c_str());
  for (const std::string &N : classicNames())
    fprintf(stderr, " %s", N.c_str());
  fprintf(stderr, "\n");
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  std::string Mode = argc > 1 ? argv[1] : "";
  if (Mode == "--help" || Mode == "-h") {
    usage();
    return 0;
  }
  if (Mode == "--classic" && argc < 3)
    return listClassics("--classic needs a name");
  GenArgs A;
  A.Spec.Name = "generated";
  bool Named = Mode == "--classic" || Mode == "--suite";
  if (int Rc = genFlags(Mode, A).parse(argc, argv, Named ? 2 : 1, usage))
    return Rc;

  if (Mode == "--classic") {
    std::vector<std::string> Known = classicNames();
    if (std::find(Known.begin(), Known.end(), A.Operand) == Known.end())
      return listClassics("unknown classic '" + A.Operand + "'");
    printf("%s", printLitmusC(classicTest(A.Operand)).c_str());
    return 0;
  }
  if (Mode == "--suite") {
    for (const LitmusTest &T : suiteTests(A.Operand, A.Limit))
      printf("%s\n", printLitmusC(T).c_str());
    return 0;
  }
  ErrorOr<std::vector<CycleEdge>> Edges = parseCycle(A.Operand);
  if (!Edges) {
    fprintf(stderr, "error: %s\n", Edges.error().c_str());
    return 1;
  }
  A.Spec.Edges = std::move(*Edges);
  ErrorOr<LitmusTest> Test = generateFromCycle(A.Spec);
  if (!Test) {
    fprintf(stderr, "error: %s\n", Test.error().c_str());
    return 1;
  }
  printf("%s", printLitmusC(*Test).c_str());
  return 0;
}
