//===--- Campaign.cpp - Campaign units and the shared unit queue ----------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "core/Campaign.h"

#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <optional>
#include <sstream>

using namespace telechat;

std::vector<CampaignUnit>
telechat::makeCampaignUnits(const std::vector<LitmusTest> &Tests,
                            uint32_t Config) {
  std::vector<CampaignUnit> Units;
  Units.reserve(Tests.size());
  for (size_t I = 0; I != Tests.size(); ++I)
    Units.push_back(CampaignUnit{I, Config, Tests[I]});
  return Units;
}

std::vector<CampaignUnit>
telechat::makeCampaignUnits(const std::vector<LitmusTest> &Tests,
                            uint32_t NumConfigs, bool Cross) {
  if (!Cross || NumConfigs <= 1)
    return makeCampaignUnits(Tests);
  std::vector<CampaignUnit> Units;
  Units.reserve(Tests.size() * NumConfigs);
  uint64_t Id = 0;
  for (const LitmusTest &T : Tests)
    for (uint32_t C = 0; C != NumConfigs; ++C)
      Units.push_back(CampaignUnit{Id++, C, T});
  return Units;
}

std::vector<CampaignUnitMeta>
telechat::campaignUnitMeta(const std::vector<CampaignUnit> &Units) {
  std::vector<CampaignUnitMeta> Meta;
  Meta.reserve(Units.size());
  for (const CampaignUnit &U : Units)
    Meta.push_back(CampaignUnitMeta{U.Test.Name, U.Config});
  return Meta;
}

GeneratorUnitSource::GeneratorUnitSource(const RandomGenOptions &Opts,
                                         uint32_t NumConfigs)
    : Stream(Opts), NumConfigs(NumConfigs ? NumConfigs : 1),
      Planned(uint64_t(Opts.Count) * (NumConfigs ? NumConfigs : 1)) {}

bool GeneratorUnitSource::next(CampaignUnit &Out) {
  std::lock_guard<std::mutex> Lock(M);
  if (!HaveCur || NextConfig == NumConfigs) {
    if (!Stream.next(Cur)) {
      HaveCur = false;
      return false;
    }
    HaveCur = true;
    NextConfig = 0;
  }
  Out.Id = Emitted++;
  Out.Config = NextConfig++;
  Out.Test = Cur;
  return true;
}

uint64_t GeneratorUnitSource::sizeHint() const { return Planned; }

uint64_t GeneratorUnitSource::produced() const {
  std::lock_guard<std::mutex> Lock(M);
  return Emitted;
}

uint64_t CanonClassTable::classify(const CampaignUnit &U,
                                   CanonRenaming &Ren) {
  CanonResult CR = canonicalizeTest(U.Test);
  auto Key = std::make_tuple(U.Config, CR.Key.Hi, CR.Key.Lo, CR.Text);
  auto [It, IsNew] = Reps.emplace(std::move(Key), U.Id);
  if (IsNew)
    RepCanon.emplace(U.Id, std::move(CR));
  else
    Ren = composeRenaming(RepCanon.at(It->second), CR);
  return It->second;
}

bool DedupingUnitSource::next(CampaignUnit &Out) {
  std::lock_guard<std::mutex> Lock(M);
  CampaignUnit U;
  while (Inner.next(U)) {
    Dup D;
    D.RepId = Classes.classify(U, D.Renaming);
    if (D.RepId == U.Id) {
      Out = std::move(U);
      return true;
    }
    D.Id = U.Id;
    D.Meta = CampaignUnitMeta{U.Test.Name, U.Config};
    Dups.push_back(std::move(D));
  }
  return false;
}

namespace {

SimResult renameSimSide(const SimResult &R, const CanonRenaming &Ren) {
  SimResult Out;
  Out.Allowed = Ren.renameOutcomeSet(R.Allowed);
  Out.Flags = R.Flags;
  Out.TimedOut = R.TimedOut;
  Out.Error = R.Error;
  Out.Stats = R.Stats;
  return Out;
}

} // namespace

TelechatResult telechat::renameTelechatResult(const TelechatResult &Rep,
                                              const CanonRenaming &Ren) {
  TelechatResult R;
  R.Error = Rep.Error;
  R.OptStats = Rep.OptStats;
  R.SourceSim = renameSimSide(Rep.SourceSim, Ren);
  R.TargetSim = renameSimSide(Rep.TargetSim, Ren);
  R.Compare.K = Rep.Compare.K;
  R.Compare.SourceRace = Rep.Compare.SourceRace;
  R.Compare.TargetFlags = Rep.Compare.TargetFlags;
  R.Compare.Witnesses.reserve(Rep.Compare.Witnesses.size());
  for (const Outcome &W : Rep.Compare.Witnesses)
    R.Compare.Witnesses.push_back(Ren.renameOutcome(W));
  // mcompare emits witnesses in outcome-set order; renaming permutes it.
  std::sort(R.Compare.Witnesses.begin(), R.Compare.Witnesses.end());
  return R;
}

SourceMemo::SourceMemo(const std::vector<CampaignConfig> &Configs) {
  // What a config simulates on the source side (runCampaignUnit's two
  // paths): whether l2c augments the test, the model, and the options.
  struct Side {
    bool Augmented;
    std::string Model;
    SimOptions Sim;
    bool operator==(const Side &) const = default;
  };
  std::vector<Side> Sides;
  for (const CampaignConfig &C : Configs) {
    SimOptions Sim = C.Opts.Sim;
    Sim.Jobs = 1;
    Side S{!C.SimulateOnly && C.Opts.AugmentLocals, C.Opts.SourceModel,
           C.SimulateOnly ? Sim : sourceSimOptions(Sim)};
    auto It = std::find(Sides.begin(), Sides.end(), S);
    ClassOf.push_back(uint32_t(It - Sides.begin()));
    if (It == Sides.end()) {
      Classes.emplace_back().WallClock = S.Sim.TimeoutSeconds > 0;
      Sides.push_back(std::move(S));
    }
    ++Classes[ClassOf.back()].Size;
  }
  for (uint32_t &Class : ClassOf) {
    if (Classes[Class].Size < 2)
      Class = Alone;
    else
      Shared = true;
  }
}

struct SourceMemo::Entry {
  uint32_t Pending = 0; ///< Units of this key that have not started.
  enum class State { Empty, Running, Done } S = State::Empty;
  SimResult Result;
  std::condition_variable Changed;
};

SourceMemoStats SourceMemo::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  SourceMemoStats Out = Stats;
  Out.LeftEntries = Live;
  return Out;
}

void SourceMemoTicket::start(const LitmusTest &Simulated) {
  std::string Key = printLitmusC(Simulated);
  std::lock_guard<std::mutex> Lock(Memo.M);
  ++Memo.Stats.Keys;
  SourceMemo::Class &C = Memo.Classes[Class];
  auto [It, New] = C.Entries.try_emplace(std::move(Key));
  if (New) {
    It->second = std::make_shared<SourceMemo::Entry>();
    It->second->Pending = C.Size;
    Memo.Stats.PeakEntries = std::max(Memo.Stats.PeakEntries, ++Memo.Live);
  }
  E = It->second;
  if (--E->Pending == 0) {
    C.Entries.erase(It);
    --Memo.Live;
  }
}

SimResult
SourceMemoTicket::simulate(const std::function<SimResult()> &Compute) {
  using Clock = std::chrono::steady_clock;
  using State = SourceMemo::Entry::State;
  Clock::time_point T0 = Clock::now();
  bool Hit = false;
  {
    std::unique_lock<std::mutex> Lock(Memo.M);
    E->Changed.wait(Lock, [&] { return E->S != State::Running; });
    Hit = E->S == State::Done;
    if (Hit)
      ++Memo.Stats.Hits;
    else
      E->S = State::Running;
  }
  if (Hit) {
    // Done is final, so the result is read without the lock.
    SimResult R = E->Result;
    R.Stats.Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
    return R;
  }
  SimResult R = Compute();
  // A run cut by the wall clock depends on the machine's load: the next
  // unit of the key simulates for itself instead of inheriting this
  // one's luck. Step-budget cuts and model errors are deterministic and
  // shared.
  bool Share = !(R.TimedOut && Memo.Classes[Class].WallClock);
  SimResult Copy = Share ? R : SimResult();
  {
    std::lock_guard<std::mutex> Lock(Memo.M);
    ++Memo.Stats.Simulations;
    E->S = Share ? State::Done : State::Empty;
    E->Result = std::move(Copy);
  }
  E->Changed.notify_all();
  return R;
}

namespace {

/// runCampaignUnit, answering step 3 from \p Memo when the unit's
/// config shares its source side with another.
TelechatResult executeUnit(const CampaignUnit &U,
                           const std::vector<CampaignConfig> &Configs,
                           SourceMemo *Memo) {
  TelechatResult R;
  if (U.Config >= Configs.size()) {
    R.Error = strFormat("campaign unit %llu references config %u of %zu",
                        static_cast<unsigned long long>(U.Id), U.Config,
                        Configs.size());
    return R;
  }
  const CampaignConfig &C = Configs[U.Config];
  TestOptions PerUnit = C.Opts;
  PerUnit.Sim.Jobs = 1; // Parallelism lives across units, not inside one.
  std::optional<SourceMemoTicket> Ticket;
  if (Memo && Memo->classOf(U.Config) != SourceMemo::Alone)
    Ticket.emplace(*Memo, Memo->classOf(U.Config));
  if (C.SimulateOnly) {
    auto Simulate = [&] {
      return simulateC(U.Test, PerUnit.SourceModel, PerUnit.Sim);
    };
    if (Ticket)
      Ticket->start(U.Test);
    R.SourceSim = Ticket ? Ticket->simulate(Simulate) : Simulate();
    if (!R.SourceSim.ok())
      R.Error = "source simulation: " + R.SourceSim.Error;
    return R;
  }
  return runTelechat(U.Test, C.P, PerUnit, Ticket ? &*Ticket : nullptr);
}

} // namespace

TelechatResult
telechat::runCampaignUnit(const CampaignUnit &U,
                          const std::vector<CampaignConfig> &Configs) {
  return executeUnit(U, Configs, nullptr);
}

ErrorOr<std::vector<LitmusTest>>
telechat::readLitmusCorpus(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return makeError("cannot open " + Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  // Split at "C <name>" headers; anything before the first header forms
  // its own chunk (whitespace-only preambles are dropped, other content
  // surfaces as a parse error naming the file).
  std::vector<std::string> Chunks;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t LineEnd = Text.find('\n', Pos);
    if (LineEnd == std::string::npos)
      LineEnd = Text.size();
    if (Text.compare(Pos, 2, "C ") == 0 || Chunks.empty())
      Chunks.emplace_back();
    Chunks.back().append(Text, Pos, LineEnd - Pos + 1);
    Pos = LineEnd + 1;
  }

  std::vector<LitmusTest> Tests;
  for (const std::string &Chunk : Chunks) {
    if (Chunk.find_first_not_of(" \t\r\n") == std::string::npos)
      continue;
    ErrorOr<LitmusTest> T = parseLitmusC(Chunk);
    if (!T)
      return makeError(Path + ": " + T.error());
    Tests.push_back(std::move(*T));
  }
  if (Tests.empty())
    return makeError(Path + ": no litmus tests found");
  return Tests;
}

bool telechat::writeTextFile(const std::string &Path,
                             const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << Contents;
  return Out.good();
}

void telechat::runCampaignUnits(
    UnitSource &Source, const std::vector<CampaignConfig> &Configs,
    ThreadPool &Pool,
    const std::function<void(const CampaignUnit &, TelechatResult)> &Done,
    SourceMemoStats *MemoStats) {
  // A single config shares with nothing: skip even the classification.
  std::optional<SourceMemo> Memo;
  if (Configs.size() > 1 && !Memo.emplace(Configs).shared())
    Memo.reset();
  SourceMemo *Shared = Memo ? &*Memo : nullptr;
  auto Lane = [&] {
    CampaignUnit U;
    while (Source.next(U))
      Done(U, executeUnit(U, Configs, Shared));
  };
  if (Pool.size() == 1) {
    Lane();
  } else {
    for (unsigned L = 0; L != Pool.size(); ++L)
      Pool.submit(Lane);
    Pool.wait();
  }
  if (MemoStats)
    *MemoStats = Memo ? Memo->stats() : SourceMemoStats();
}
