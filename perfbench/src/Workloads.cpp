//===--- Workloads.cpp - Corpus set-up, timed passes, verdict gate --------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmcore/AsmProgram.h"
#include "dist/CampaignJson.h"
#include "dist/Journal.h"
#include "dist/WorkServer.h"
#include "dist/Worker.h"
#include "diy/Config.h"
#include "models/Models.h"
#include "models/Registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <poll.h>
#include <set>
#include <sys/inotify.h>
#include <thread>
#include <unistd.h>

using namespace telechat;
using namespace perfbench;

double perfbench::processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

void Gate::unitFailed(const std::string &Why) {
  ++Failed;
  if (Samples.size() < 8)
    Samples.push_back(Why);
}

namespace {

/// The six architectures of the cross-architecture workloads, one O2
/// profile each: every codegen backend and every arch Cat model runs.
const char *const XarchProfiles[] = {"llvm-O2-AArch64", "gcc-O2-ARMv7",
                                     "llvm-O2-x86-64",  "llvm-O2-RISCV",
                                     "llvm-O2-PPC",     "gcc-O2-MIPS"};

/// Served-gen streams one of these generator seeds, picked by the
/// workload seed; each has a reference file.
const uint64_t ServedGenSeeds[] = {7, 11, 23, 42};
constexpr unsigned ServedGenCount = 3000;

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

uint64_t fnv1a(const char *P, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != N; ++I) {
    H ^= uint8_t(P[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}

/// The per-unit result lines of campaignResultsJson (trailing comma
/// dropped) and its configs line, the deterministic rendering the
/// reference file pins.
struct ResultLines {
  std::string ConfigsLine;
  std::vector<std::string> Units;
};

ResultLines resultLines(const std::vector<CampaignUnitMeta> &Meta,
                        const std::vector<CampaignConfig> &Configs,
                        const std::vector<TelechatResult> &Results) {
  std::string J = campaignResultsJson(Meta, Configs, Results);
  ResultLines Out;
  size_t Pos = 0;
  while (Pos < J.size()) {
    size_t End = J.find('\n', Pos);
    if (End == std::string::npos)
      End = J.size();
    std::string Line = J.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.rfind("  \"configs\": ", 0) == 0)
      Out.ConfigsLine = Line;
    else if (Line.rfind("    {\"id\": ", 0) == 0) {
      if (Line.back() == ',')
        Line.pop_back();
      Out.Units.push_back(std::move(Line));
    }
  }
  return Out;
}

std::string referencePath(const Args &A, const Corpus &C) {
  std::string Name = A.WorkloadName;
  if (A.W == Workload::ServedGen)
    Name += "-gen" + std::to_string(C.Gen.Seed);
  return A.RefDir + "/" + Name + ".ref";
}

/// Some allowed source outcome satisfies \p T's exists-clause. \p T is
/// the test as simulated: after l2c, whose observation locations the
/// source outcomes name.
bool witnessed(const LitmusTest &T, const SimResult &R) {
  for (const Outcome &O : R.Allowed)
    if (T.Final.P.eval(O))
      return true;
  return false;
}

/// Hands out units and notes, per executor lane, when the lane took
/// its unit: the start of that unit's time to verdict.
class LaneTimedSource final : public UnitSource {
public:
  explicit LaneTimedSource(UnitSource &Inner) : Inner(Inner) {}
  bool next(CampaignUnit &Out) override {
    bool Got = Inner.next(Out);
    Taken = Clock::now();
    return Got;
  }
  static thread_local Clock::time_point Taken;

private:
  UnitSource &Inner;
};
thread_local Clock::time_point LaneTimedSource::Taken;

/// Notes when the server pulls each unit off the stream (the server's
/// poll thread is the only caller, so no locking).
class PullStampSource final : public UnitSource {
public:
  PullStampSource(std::unique_ptr<UnitSource> Inner,
                  std::vector<Clock::time_point> &Pulls)
      : Inner(std::move(Inner)), Pulls(Pulls) {}
  bool next(CampaignUnit &Out) override {
    if (!Inner->next(Out))
      return false;
    Pulls.push_back(Clock::now());
    return true;
  }
  uint64_t sizeHint() const override { return Inner->sizeHint(); }

private:
  std::unique_ptr<UnitSource> Inner;
  std::vector<Clock::time_point> &Pulls;
};

/// Follows a growing campaign journal and notes when each unit's result
/// record became durable: the end of its time to verdict as seen from
/// outside the workers. Woken by inotify on every append.
class JournalTail {
public:
  explicit JournalTail(const std::string &Path) : Path(Path) {
    Notify = inotify_init1(IN_CLOEXEC);
    if (Notify >= 0)
      inotify_add_watch(Notify, Path.c_str(), IN_MODIFY);
    Thread = std::thread([this] { loop(); });
  }
  /// Stops following (after a final read) and returns the durable time
  /// of every unit id seen, indexed by id (epoch value = never seen).
  std::vector<Clock::time_point> finish() {
    Stop.store(true);
    Thread.join();
    if (Notify >= 0)
      close(Notify);
    return Durable;
  }
  bool watching() const { return Notify >= 0; }

private:
  void loop() {
    FILE *In = fopen(Path.c_str(), "rb");
    if (!In)
      return;
    while (true) {
      bool Last = Stop.load();
      drain(In);
      if (Last)
        break;
      pollfd P{Notify, POLLIN, 0};
      if (Notify >= 0 && poll(&P, 1, 20) > 0) {
        char Buf[4096];
        (void)!read(Notify, Buf, sizeof(Buf));
      }
    }
    fclose(In);
  }
  void drain(FILE *In) {
    char Buf[1 << 16];
    size_t N;
    clearerr(In);
    while ((N = fread(Buf, 1, sizeof(Buf), In)) > 0)
      Pending.insert(Pending.end(), Buf, Buf + N);
    Clock::time_point Now = Clock::now();
    size_t Pos = 0;
    // Records: [u32 len][u8 tag][payload]; a result payload starts with
    // its u64 unit id.
    while (Pending.size() - Pos >= 4) {
      const uint8_t *P = reinterpret_cast<const uint8_t *>(&Pending[Pos]);
      uint32_t Len = uint32_t(P[0]) | uint32_t(P[1]) << 8 |
                     uint32_t(P[2]) << 16 | uint32_t(P[3]) << 24;
      if (Pending.size() - Pos < 4 + size_t(Len))
        break;
      if (Len >= 9 && P[4] == 2) {
        uint64_t Id = 0;
        for (int I = 0; I != 8; ++I)
          Id |= uint64_t(P[5 + I]) << (8 * I);
        if (Id < (1u << 24)) {
          if (Durable.size() <= Id)
            Durable.resize(Id + 1);
          if (Durable[Id] == Clock::time_point())
            Durable[Id] = Now;
        }
      }
      Pos += 4 + Len;
    }
    Pending.erase(Pending.begin(), Pending.begin() + long(Pos));
  }

  std::string Path;
  int Notify = -1;
  std::atomic<bool> Stop{false};
  std::vector<char> Pending;
  std::vector<Clock::time_point> Durable;
  std::thread Thread;
};

} // namespace

Corpus perfbench::setUp(const Args &A, unsigned Pass) {
  Clock::time_point T0 = Clock::now();
  Corpus C;
  std::vector<LitmusTest> Tests;
  std::vector<std::string> ProfileNames;
  if (A.W == Workload::ServedGen) {
    C.Gen.Seed = ServedGenSeeds[A.Seed % std::size(ServedGenSeeds)];
    C.Gen.Count = ServedGenCount;
    ProfileNames = {"llvm-O2-AArch64"};
  } else {
    ProfileNames.assign(std::begin(XarchProfiles), std::end(XarchProfiles));
    Clock::time_point G0 = Clock::now();
    if (A.W == Workload::C11Xarch) {
      Tests = generateSuite(SuiteConfig::c11());
    } else {
      for (RealWorldCase &RC : realWorldSuite()) {
        Tests.push_back(std::move(RC.Test));
        C.Contract.push_back(RC.Status);
      }
    }
    C.GenSeconds = secondsBetween(G0, Clock::now());
  }

  TestOptions Opts;
  std::set<std::string> Models{Opts.SourceModel};
  for (const std::string &Name : ProfileNames) {
    Profile P;
    if (!profileFromName(Name, P)) {
      fprintf(stderr, "perfbench: unknown profile %s\n", Name.c_str());
      exit(1);
    }
    C.Configs.push_back({P, Opts, /*SimulateOnly=*/false});
    Models.insert(archModelName(P.Target, Opts.ConstAugmentedModel));
  }
  // A cold parse of every model in every set-up (the registry caches
  // after the first getModel, which only the first pass pays for).
  Clock::time_point M0 = Clock::now();
  for (const std::string &Name : Models) {
    const char *Text = modelText(Name);
    if (!Text || !parseModelText(Text)) {
      fprintf(stderr, "perfbench: model %s does not parse\n", Name.c_str());
      exit(1);
    }
  }
  C.ModelSeconds = secondsBetween(M0, Clock::now());
  for (const std::string &Name : Models)
    getModel(Name);

  if (A.W != Workload::ServedGen) {
    C.Units = makeCampaignUnits(Tests, uint32_t(C.Configs.size()), true);
    // The seed and the pass fix the execution order (Fisher-Yates).
    uint64_t SeedState = A.Seed;
    uint64_t State = splitmix64(SeedState) + Pass;
    for (size_t I = C.Units.size(); I > 1; --I)
      std::swap(C.Units[I - 1], C.Units[splitmix64(State) % I]);
  }
  C.SetupSeconds = secondsBetween(T0, Clock::now());
  return C;
}

double perfbench::materialise(Corpus &C) {
  Clock::time_point T0 = Clock::now();
  GeneratorUnitSource Gen(C.Gen, uint32_t(C.Configs.size()));
  CampaignUnit U;
  C.Units.clear();
  while (Gen.next(U))
    C.Units.push_back(U);
  return secondsBetween(T0, Clock::now());
}

std::vector<CampaignUnitMeta> perfbench::metaById(const Corpus &C) {
  std::vector<CampaignUnitMeta> Meta(C.Units.size());
  for (const CampaignUnit &U : C.Units)
    Meta[U.Id] = {U.Test.Name, U.Config};
  return Meta;
}

std::string perfbench::loadReference(const Args &A, const Corpus &C,
                                     Reference &Out) {
  std::string Path = referencePath(A, C);
  std::ifstream In(Path);
  if (!In)
    return "cannot read the reference results " + Path;
  std::string Magic, Key;
  unsigned Version = 0;
  In >> Magic >> Version;
  if (Magic != "perfbench-reference" || Version != 1)
    return Path + ": not a perfbench reference file";
  In >> Key >> Out.Units;
  if (Key != "units" || Out.Units > (1u << 24))
    return Path + ": expected 'units' and a corpus size";
  In >> Key >> std::hex >> Out.ConfigsDigest >> std::dec;
  if (Key != "configs")
    return Path + ": expected 'configs'";
  Out.Verdicts.resize(Out.Units);
  Out.Digests.resize(Out.Units);
  for (uint64_t I = 0; I != Out.Units; ++I) {
    uint64_t Id = 0;
    if (!(In >> Id >> Out.Verdicts[I] >> std::hex >> Out.Digests[I] >>
          std::dec) ||
        Id != I)
      return Path + ": malformed line for unit " + std::to_string(I);
  }
  return "";
}

std::string perfbench::writeReference(const Args &A, const Corpus &C,
                                      const std::vector<CampaignUnitMeta> &M,
                                      const std::vector<TelechatResult> &R) {
  std::string Path = referencePath(A, C);
  ResultLines L = resultLines(M, C.Configs, R);
  FILE *Out = fopen(Path.c_str(), "w");
  if (!Out)
    return "cannot write " + Path;
  fprintf(Out, "perfbench-reference 1\nunits %zu\nconfigs %016llx\n",
          L.Units.size(),
          (unsigned long long)fnv1a(L.ConfigsLine.data(),
                                    L.ConfigsLine.size()));
  for (size_t I = 0; I != L.Units.size(); ++I)
    fprintf(Out, "%zu %s %016llx\n", I, campaignVerdict(R[I]).c_str(),
            (unsigned long long)fnv1a(L.Units[I].data(), L.Units[I].size()));
  return fclose(Out) == 0 ? "" : "cannot write " + Path;
}

void perfbench::checkPass(const Corpus &C, const Reference &Ref,
                          const std::vector<CampaignUnitMeta> &Meta,
                          const std::vector<TelechatResult> &Results,
                          const std::vector<uint8_t> &Ran, Gate &G) {
  G.Attempted += Ref.Units;
  if (Meta.size() != Ref.Units || Results.size() != Ref.Units) {
    G.fault("the pass produced " + std::to_string(Results.size()) +
            " results for a corpus of " + std::to_string(Ref.Units) +
            " units");
    G.Failed += Ref.Units;
    return;
  }
  ResultLines L = resultLines(Meta, C.Configs, Results);
  if (fnv1a(L.ConfigsLine.data(), L.ConfigsLine.size()) != Ref.ConfigsDigest)
    G.fault("the config table differs from the reference");
  size_t NumConfigs = C.Configs.size();
  std::vector<const LitmusTest *> TestOf(Ref.Units, nullptr);
  for (const CampaignUnit &U : C.Units)
    if (U.Id < Ref.Units)
      TestOf[U.Id] = &U.Test;
  for (uint64_t I = 0; I != Ref.Units; ++I) {
    const TelechatResult &R = Results[I];
    std::string Unit = "unit " + std::to_string(I) + " (" +
                       Meta[I].TestName + "): ";
    std::string Verdict = campaignVerdict(R);
    if (!Ran[I]) {
      G.unitFailed(Unit + "never ran");
    } else if (Verdict == "error" || Verdict == "timeout" ||
               Verdict == "coverage-gap") {
      G.unitFailed(Unit + Verdict + " " + R.Error);
    } else if (!C.Contract.empty() && TestOf[I] &&
               C.Contract[I / NumConfigs] != WeakStatus::Unspecified &&
               witnessed(C.Configs[Meta[I].Config].Opts.AugmentLocals
                             ? augmentLocalObservations(*TestOf[I])
                             : *TestOf[I],
                         R.SourceSim) !=
                   (C.Contract[I / NumConfigs] == WeakStatus::Observable)) {
      // Two-sided: Forbidden is never witnessed, Observable always is.
      G.unitFailed(Unit + "breaks its RC11 contract");
    } else if (Verdict != Ref.Verdicts[I] ||
               fnv1a(L.Units[I].data(), L.Units[I].size()) !=
                   Ref.Digests[I]) {
      G.unitFailed(Unit + "verdict " + Verdict + " (reference " +
                   Ref.Verdicts[I] + ") or outcome sets differ");
    }
  }
}

PassStats perfbench::runLocalPass(const Corpus &C, ThreadPool &Pool,
                                  std::vector<TelechatResult> &Results,
                                  std::vector<uint8_t> &Ran) {
  size_t N = C.Units.size();
  Results.assign(N, TelechatResult());
  Ran.assign(N, 0);
  PassStats S;
  S.UnitMs.assign(N, 0.0);
  VectorUnitSource Inner(C.Units);
  LaneTimedSource Source(Inner);
  std::atomic<uint64_t> Done{0};
  double Cpu0 = processCpuSeconds();
  Clock::time_point T0 = Clock::now();
  runCampaignUnits(Source, C.Configs, Pool,
                   [&](const CampaignUnit &U, TelechatResult R) {
                     S.UnitMs[U.Id] =
                         1e3 * secondsBetween(LaneTimedSource::Taken,
                                              Clock::now());
                     Results[U.Id] = std::move(R);
                     Ran[U.Id] = 1;
                     Done.fetch_add(1, std::memory_order_relaxed);
                   });
  S.Wall = secondsBetween(T0, Clock::now());
  S.Cpu = processCpuSeconds() - Cpu0;
  S.Units = Done.load();
  return S;
}

PassStats perfbench::runServedPass(const Args &A, const Corpus &C,
                                   unsigned Lanes,
                                   std::vector<TelechatResult> &Results,
                                   std::vector<CampaignUnitMeta> &Meta,
                                   std::vector<uint8_t> &Ran, Gate &G) {
  PassStats S;
  std::string JournalPath = A.OutDir + "/served-gen.journal";
  std::remove(JournalPath.c_str());
  std::vector<Clock::time_point> Pulls;
  Pulls.reserve(ServedGenCount);
  WorkServerOptions Opts; // The CLI's defaults, plus --dedupe.
  Opts.Dedupe = true;
  WorkServer Server(
      std::make_unique<PullStampSource>(
          std::make_unique<GeneratorUnitSource>(
              C.Gen, uint32_t(C.Configs.size())),
          Pulls),
      C.Configs, Opts);
  Clock::time_point Start = Clock::now();
  std::string E = Server.start();
  JournalWriter Journal;
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  Spec.Gen = C.Gen;
  Spec.NumConfigs = uint32_t(C.Configs.size());
  if (E.empty())
    E = Journal.create(JournalPath, Spec, C.Configs);
  if (!E.empty()) {
    G.fault("served-gen: " + E);
    return S;
  }
  Server.setJournal(&Journal);
  JournalTail Tail(JournalPath);
  if (!Tail.watching())
    G.fault("served-gen: cannot watch the journal");

  double Cpu0 = processCpuSeconds();
  CampaignReport Report;
  std::thread ServerThread([&] { Report = Server.run(); });
  // Two worker connections share the lanes the server thread leaves.
  unsigned WorkerLanes[2] = {(Lanes + 1) / 2, Lanes / 2};
  ErrorOr<WorkerRunStats> WorkerStats[2] = {makeError("not run"),
                                            makeError("not run")};
  std::vector<std::thread> Workers;
  for (int W = 0; W != 2; ++W)
    Workers.emplace_back([&, W] {
      WorkerOptions WO;
      WO.Jobs = WorkerLanes[W];
      WorkerStats[W] = runCampaignWorker("127.0.0.1", Server.port(), WO);
    });
  ServerThread.join();
  Clock::time_point End = Clock::now();
  S.Cpu = processCpuSeconds() - Cpu0;
  for (std::thread &T : Workers)
    T.join();
  Journal.close();
  std::vector<Clock::time_point> Durable = Tail.finish();

  if (!Report.Error.empty())
    G.fault("served-gen: " + Report.Error);
  for (auto &WS : WorkerStats) {
    if (!WS)
      G.fault("served-gen worker: " + WS.error());
    else if (!WS->CleanDone)
      G.fault("served-gen worker: the session ended without Done");
    else
      S.Batches += WS->Batches;
  }
  S.Units = Report.Units;
  if (!Pulls.empty()) {
    S.HandshakeSeconds = secondsBetween(Start, Pulls.front());
    S.Wall = secondsBetween(Pulls.front(), End);
  }
  for (uint64_t Id = 0; Id != Pulls.size(); ++Id) {
    if (Id >= Durable.size() || Durable[Id] == Clock::time_point()) {
      G.fault("served-gen: unit " + std::to_string(Id) +
              " never reached the journal");
      break;
    }
    S.UnitMs.push_back(1e3 * secondsBetween(Pulls[Id], Durable[Id]));
  }
  std::remove(JournalPath.c_str());
  S.PollWakeups = Report.PollWakeups;
  S.Requeues = Report.Requeues;
  S.LeaseSizeMax = Report.Sizing.Max;
  Results = std::move(Report.Results);
  Meta = std::move(Report.UnitsMeta);
  Ran.assign(Results.size(), 1);
  return S;
}
