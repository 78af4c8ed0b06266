//===--- Config.cpp - Test-suite configuration (Table III) ----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "diy/Config.h"

#include "diy/Cycle.h"
#include "diy/RealWorld.h"
#include "support/StringUtils.h"

#include <cstring>

using namespace telechat;

SuiteConfig SuiteConfig::c11() {
  SuiteConfig C;
  C.Cycles = {
      // Straight-line code.
      "PodRW Rfe PodRW Rfe",          // LB
      "PodWW Rfe PodRR Fre",          // MP
      "PodWR Fre PodWR Fre",          // SB
      "PodWW Coe PodWR Fre",          // R
      "PodWW Rfe PodRW Coe",          // S
      "PodWW Coe PodWW Coe",          // 2+2W
      "Rfe PodRW Rfe PodRR Fre",      // WRC
      // Fences.
      "FencedRW.sc Rfe FencedRW.sc Rfe",   // LB+fences
      "FencedWW.rel Rfe FencedRR.acq Fre", // MP+fences
      "FencedWR.sc Fre FencedWR.sc Fre",   // SB+fences
      // Dependencies (data) and control flow.
      "DpdW Rfe DpdW Rfe",            // LB+datas
      "CtrldW Rfe CtrldW Rfe",        // LB+ctrls
      "CtrldW Rfe PodRW Rfe",         // LB+ctrl+po
      "PodWW Rfe CtrldW Coe",         // S+ctrl
  };
  C.LoadOrders = {MemOrder::Relaxed, MemOrder::Acquire, MemOrder::SeqCst};
  C.StoreOrders = {MemOrder::Relaxed, MemOrder::Release, MemOrder::SeqCst};
  C.Types = {{8, false},  {8, true},  {16, false}, {16, true},
             {32, false}, {32, true}, {64, false}, {64, true}};
  C.IncludeNonAtomic = true;
  return C;
}

SuiteConfig SuiteConfig::c11Acq() {
  SuiteConfig C;
  C.Cycles = {
      "PodWW Rfe PodRR Fre",     // MP
      "PodWR Fre PodWR Fre",     // SB
      "PodWW Rfe PodRW Coe",     // S
      "Rfe PodRW Rfe PodRR Fre", // WRC
      "PodWW Rfe PodRW Rfe PodRR Fre", // ISA2
  };
  C.LoadOrders = {MemOrder::Acquire, MemOrder::SeqCst};
  C.StoreOrders = {MemOrder::Release, MemOrder::SeqCst};
  C.Types = {{32, true}};
  return C;
}

std::vector<LitmusTest> telechat::generateSuite(const SuiteConfig &Config) {
  std::vector<LitmusTest> Out;
  auto Push = [&](LitmusTest T) {
    if (Config.Limit == 0 || Out.size() < Config.Limit)
      Out.push_back(std::move(T));
  };
  unsigned Index = 0;
  for (const std::string &Cycle : Config.Cycles) {
    ErrorOr<std::vector<CycleEdge>> Edges = parseCycle(Cycle);
    if (!Edges)
      continue; // configuration entries are validated by tests
    for (MemOrder Load : Config.LoadOrders) {
      for (MemOrder Store : Config.StoreOrders) {
        for (IntType Ty : Config.Types) {
          CycleSpec Spec;
          Spec.Edges = *Edges;
          Spec.LoadOrder = Load;
          Spec.StoreOrder = Store;
          Spec.Type = Ty;
          Spec.Name = strFormat(
              "T%03u+%s+%s+%s", Index++, memOrderTag(Load).c_str(),
              memOrderTag(Store).c_str(), Ty.cName().c_str());
          if (ErrorOr<LitmusTest> T = generateFromCycle(Spec))
            Push(std::move(*T));
        }
      }
    }
    if (Config.IncludeNonAtomic) {
      // Plain-access variant: exercises the data-race UB filter.
      CycleSpec Spec;
      Spec.Edges = *Edges;
      Spec.LoadOrder = MemOrder::NA;
      Spec.StoreOrder = MemOrder::NA;
      Spec.Name = strFormat("T%03u+na", Index++);
      if (ErrorOr<LitmusTest> T = generateFromCycle(Spec))
        Push(std::move(*T));
    }
    if (Config.Limit && Out.size() >= Config.Limit)
      break;
  }
  return Out;
}

std::vector<std::string> telechat::suiteNames() {
  std::vector<std::string> Names = {"c11", "c11acq", "realworld"};
  for (const std::string &Family : realWorldFamilies())
    Names.push_back("realworld:" + Family);
  return Names;
}

std::vector<LitmusTest> telechat::suiteTests(const std::string &Name,
                                             unsigned Limit) {
  if (Name == "c11" || Name == "c11acq") {
    SuiteConfig Config =
        Name == "c11" ? SuiteConfig::c11() : SuiteConfig::c11Acq();
    Config.Limit = Limit;
    return generateSuite(Config);
  }
  std::vector<LitmusTest> Tests;
  if (Name == "realworld") {
    Tests = realWorldTests();
  } else if (Name.rfind("realworld:", 0) == 0) {
    ErrorOr<std::vector<RealWorldCase>> Family =
        realWorldFamily(Name.substr(strlen("realworld:")));
    if (Family)
      for (RealWorldCase &C : *Family)
        Tests.push_back(std::move(C.Test));
  }
  if (Limit && Tests.size() > Limit)
    Tests.resize(Limit);
  return Tests;
}
