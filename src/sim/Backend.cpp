//===--- Backend.cpp - Pluggable consistency-engine seam ------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "sim/Backend.h"

#include "explore/Explorer.h"
#include "sim/EnumCore.h"
#include "solve/Solver.h"

#include <algorithm>

using namespace telechat;

namespace {

/// Display names, indexed by SimBackendKind.
constexpr const char *kBackendNames[] = {"sweep", "solve", "auto", "explore"};
static_assert(std::size(kBackendNames) == size_t(SimBackendKind::Explore) + 1);

} // namespace

uint64_t telechat::estimatedRfSpace(const SimProgram &Program) {
  using simcore::satMul;
  uint64_t Combos = 1;
  uint64_t WritesUpper = Program.Locations.size(); // init writes
  uint64_t ReadsUpper = 0;
  for (const SimThread &T : Program.Threads) {
    Combos = satMul(Combos, T.Paths.size());
    uint64_t MaxR = 0, MaxW = 0;
    for (const SimPath &Path : T.Paths) {
      uint64_t R = 0, Wr = 0;
      for (const SimOp &Op : Path.Ops) {
        switch (Op.K) {
        case SimOp::Kind::Load:
          ++R;
          break;
        case SimOp::Kind::Store:
          ++Wr;
          break;
        case SimOp::Kind::Rmw:
          ++R;
          ++Wr;
          break;
        default:
          break;
        }
      }
      MaxR = std::max(MaxR, R);
      MaxW = std::max(MaxW, Wr);
    }
    ReadsUpper += MaxR;
    WritesUpper += MaxW;
  }
  uint64_t Space = 1;
  for (uint64_t I = 0; I != ReadsUpper; ++I) {
    Space = satMul(Space, WritesUpper);
    if (Space == ~uint64_t(0))
      break;
  }
  return satMul(Combos, Space);
}

SimBackendKind telechat::resolveBackend(SimBackendKind Kind,
                                        const SimProgram &Program) {
  // Never Explore: Auto promises the exhaustive set, just cheaper.
  if (Kind == SimBackendKind::Auto)
    return estimatedRfSpace(Program) >= kAutoSolveThreshold
               ? SimBackendKind::Solve
               : SimBackendKind::Sweep;
  return Kind;
}

bool telechat::backendFromName(const std::string &Name,
                               SimBackendKind &Out) {
  for (size_t I = 0; I != std::size(kBackendNames); ++I)
    if (Name == kBackendNames[I]) {
      Out = SimBackendKind(I);
      return true;
    }
  return false;
}

const char *telechat::backendName(SimBackendKind Kind) {
  return size_t(Kind) < std::size(kBackendNames) ? kBackendNames[size_t(Kind)]
                                                 : "sweep";
}

const char *telechat::backendUsedName(uint8_t Used) {
  // Auto resolves before any run: as unknown as a future byte.
  if (Used >= std::size(kBackendNames) || Used == uint8_t(SimBackendKind::Auto))
    return "unknown";
  return kBackendNames[Used];
}

SimResult telechat::simulate(const SimProgram &Program, const CatModel &Model,
                             const SimOptions &Options) {
  // The campaign budget split: estimatedRfSpace is a pure function of
  // the program, so local drivers, workers and journal replays all
  // reroute the same units.
  SimBackendKind Kind =
      Options.ExploreBudget != 0 &&
              Options.Backend != SimBackendKind::Explore &&
              estimatedRfSpace(Program) >= Options.ExploreBudget
          ? SimBackendKind::Explore
          : resolveBackend(Options.Backend, Program);
  switch (Kind) {
  case SimBackendKind::Solve:
    return solveExecutions(Program, Model, Options);
  case SimBackendKind::Explore:
    return exploreExecutions(Program, Model, Options);
  default:
    return enumerateExecutions(Program, Model, Options);
  }
}
