//===--- Trace.cpp - The traced run: per-layer metrics -------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run drives each unit through the public Fig. 5 stage
/// functions one by one -- the steps runTelechat takes, in its order --
/// and records a span around every call. A traced unit counts only if
/// its encodeTelechatResult bytes equal runCampaignUnit's for the same
/// unit, so the per-layer numbers describe the program the end-to-end
/// run measures. Spans stay in per-lane memory and are written at the
/// end as Chrome trace-event JSON (opens in Perfetto).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmcore/AsmProgram.h"
#include "asmcore/Semantics.h"
#include "dist/Journal.h"
#include "dist/Serialize.h"
#include "sim/CFrontend.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>

using namespace telechat;
using namespace perfbench;

namespace {

/// The Fig. 5 stages in runTelechat's call order.
enum Stage {
  L2C,
  C2S,
  S2L,
  CFrontend,
  SimSource,
  Lower,
  SimTarget,
  MCompare,
  NumStages
};
const char *const StageNames[NumStages] = {
    "core.l2c",  "compiler.c2s",  "core.s2l",   "sim.cfrontend",
    "sim.source", "asmcore.lower", "sim.target", "core.mcompare"};

/// One span: a unit (Parent < 0) or a stage call inside it (Parent is
/// the index of the unit's span in the same lane buffer).
struct Span {
  const char *Name;
  uint64_t Unit;
  int64_t StartNs, EndNs;
  int32_t Parent;
};

using StageNs = std::array<int64_t, NumStages>;

/// One lane's recorder: spans in memory, stage durations per unit.
struct Lane {
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Epoch)
        .count();
  }
};

/// runCampaignUnit -> runTelechat, one stage call at a time. Every
/// statement that shapes the result mirrors runTelechat; the timers sit
/// only between the calls.
TelechatResult tracedUnit(const CampaignUnit &U,
                          const std::vector<CampaignConfig> &Configs,
                          Lane &L, StageNs &Ns) {
  if (U.Config >= Configs.size() || Configs[U.Config].SimulateOnly)
    return runCampaignUnit(U, Configs); // No workload takes these paths.
  const CampaignConfig &C = Configs[U.Config];
  TestOptions O = C.Opts;
  O.Sim.Jobs = 1;
  int32_t Parent = int32_t(L.Spans.size());
  L.Spans.push_back({"unit", U.Id, L.now(), 0, -1});
  Ns.fill(0);
  int64_t T = 0;
  auto Begin = [&] { T = L.now(); };
  auto End = [&](Stage S) {
    int64_t E = L.now();
    L.Spans.push_back({StageNames[S], U.Id, T, E, Parent});
    Ns[S] = E - T;
  };
  auto Finish = [&](TelechatResult &R) -> TelechatResult & {
    L.Spans[size_t(Parent)].EndNs = L.now();
    return R;
  };

  TelechatResult R;
  Begin();
  R.Prepared = O.AugmentLocals ? augmentLocalObservations(U.Test) : U.Test;
  End(L2C);

  Begin();
  ErrorOr<CompileOutput> Compiled = compileLitmus(R.Prepared, C.P);
  End(C2S);
  if (!Compiled) {
    R.Error = "compile: " + Compiled.error();
    return std::move(Finish(R));
  }
  R.Compiled = std::move(*Compiled);

  Begin();
  ErrorOr<AsmLitmusTest> Parsed =
      disassemblyRoundTrip(R.Compiled.Asm, &R.RawAsmText);
  if (Parsed)
    R.OptAsm = O.OptimiseCompiled ? optimiseAsmLitmus(*Parsed, &R.OptStats)
                                  : std::move(*Parsed);
  End(S2L);
  if (!Parsed) {
    R.Error = Parsed.error();
    return std::move(Finish(R));
  }

  // simulateC = lowerLitmusC + simulation under the source model; the
  // source side always runs exhaustively (see runTelechat).
  SimOptions SourceSim = O.Sim;
  if (SourceSim.Backend == SimBackendKind::Explore)
    SourceSim.Backend = SimBackendKind::Auto;
  SourceSim.ExploreBudget = 0;
  Begin();
  SimProgram SourceProgram = lowerLitmusC(R.Prepared);
  End(CFrontend);
  Begin();
  R.SourceSim = simulateProgram(SourceProgram, O.SourceModel, SourceSim);
  End(SimSource);
  if (!R.SourceSim.ok()) {
    R.Error = "source simulation: " + R.SourceSim.Error;
    return std::move(Finish(R));
  }

  Begin();
  ErrorOr<SimProgram> Lowered = lowerAsmTest(R.OptAsm);
  End(Lower);
  if (!Lowered) {
    R.Error = "lowering compiled test: " + Lowered.error();
    return std::move(Finish(R));
  }
  Begin();
  R.TargetSim = simulateProgram(
      *Lowered, archModelName(C.P.Target, O.ConstAugmentedModel), O.Sim);
  End(SimTarget);
  if (!R.TargetSim.ok()) {
    R.Error = "target simulation: " + R.TargetSim.Error;
    return std::move(Finish(R));
  }

  Begin();
  R.Compare = mcompare(R.SourceSim, R.TargetSim, R.Compiled.KeyMap);
  End(MCompare);
  return std::move(Finish(R));
}

/// encodeTelechatResult bytes with the wall-clock fields zeroed: the
/// identity the traced driver must reproduce.
std::vector<uint8_t> resultBytes(TelechatResult R) {
  R.SourceSim.Stats.Seconds = 0;
  R.TargetSim.Stats.Seconds = 0;
  WireBuffer B;
  encodeTelechatResult(B, R);
  return std::vector<uint8_t>(B.data(), B.data() + B.size());
}

/// What one traced pass recorded.
struct TracedPass {
  double Wall = 0;
  std::vector<TelechatResult> Results; ///< By unit id.
  std::vector<StageNs> Ns;             ///< By unit id.
  std::vector<int64_t> UnitNs;         ///< By unit id.
  std::vector<Lane> Lanes;
};

TracedPass runTracedPass(const Corpus &C, ThreadPool &Pool) {
  TracedPass P;
  size_t N = C.Units.size();
  P.Results.resize(N);
  P.Ns.resize(N);
  P.UnitNs.resize(N);
  P.Lanes.resize(Pool.size());
  Clock::time_point Epoch = Clock::now();
  for (Lane &L : P.Lanes) {
    L.Epoch = Epoch;
    L.Spans.reserve(N / Pool.size() * (NumStages + 1) + 64);
  }
  VectorUnitSource Source(C.Units);
  auto Run = [&](Lane &L) {
    CampaignUnit U;
    while (Source.next(U)) {
      size_t First = L.Spans.size();
      P.Results[U.Id] = tracedUnit(U, C.Configs, L, P.Ns[U.Id]);
      P.UnitNs[U.Id] = L.Spans[First].EndNs - L.Spans[First].StartNs;
    }
  };
  Clock::time_point T0 = Clock::now();
  if (Pool.size() == 1) {
    Run(P.Lanes[0]);
  } else {
    for (Lane &L : P.Lanes)
      Pool.submit([&Run, &L] { Run(L); });
    Pool.wait();
  }
  P.Wall = secondsBetween(T0, Clock::now());
  return P;
}

/// Chrome trace-event JSON: one complete ("X") event per span, one
/// track per lane; args carry the span id, its parent and the unit id.
bool writeChromeTrace(const std::string &Path, const TracedPass &P) {
  FILE *Out = fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  fprintf(Out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool First = true;
  for (size_t L = 0; L != P.Lanes.size(); ++L) {
    fprintf(Out, "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"lane %zu\"}}",
            First ? "" : ",\n", L, L);
    First = false;
    const std::vector<Span> &S = P.Lanes[L].Spans;
    for (size_t I = 0; I != S.size(); ++I) {
      std::string Parent =
          S[I].Parent < 0 ? "null"
                          : "\"" + std::to_string(L) + "." +
                                std::to_string(S[I].Parent) + "\"";
      fprintf(Out,
              ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
              "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": "
              "\"%zu.%zu\", \"parent\": %s, \"unit\": %llu}}",
              S[I].Name, L, double(S[I].StartNs) / 1e3,
              double(S[I].EndNs - S[I].StartNs) / 1e3, L, I, Parent.c_str(),
              (unsigned long long)S[I].Unit);
    }
  }
  fprintf(Out, "\n]}\n");
  return fclose(Out) == 0;
}

/// Per-layer self time: a span's duration minus the part its children
/// cover. Stage spans are leaves; a unit span's self time is the
/// driver's own time between stage calls.
void printSelfTimeTable(const TracedPass &P) {
  std::array<double, NumStages> Busy{};
  double UnitBusy = 0;
  size_t Units = 0;
  for (size_t I = 0; I != P.Ns.size(); ++I) {
    UnitBusy += double(P.UnitNs[I]);
    ++Units;
    for (int S = 0; S != NumStages; ++S)
      Busy[S] += double(P.Ns[I][S]);
  }
  double Children = 0;
  for (double B : Busy)
    Children += B;
  printf("%-16s %8s %12s %12s %8s\n", "layer", "spans", "busy_ms", "self_ms",
         "share");
  printf("%-16s %8zu %12.1f %12.1f %7.1f%%\n", "unit", Units, UnitBusy / 1e6,
         (UnitBusy - Children) / 1e6, 100 * (UnitBusy - Children) / UnitBusy);
  for (int S = 0; S != NumStages; ++S)
    printf("%-16s %8zu %12.1f %12.1f %7.1f%%\n", StageNames[S], Units,
           Busy[S] / 1e6, Busy[S] / 1e6, 100 * Busy[S] / UnitBusy);
}

/// Per-pass values of each metric, keyed by name, in first-seen order.
struct Samples {
  std::vector<std::pair<std::string, std::vector<double>>> Rows;
  void add(const std::string &Name, double V) {
    for (auto &R : Rows)
      if (R.first == Name) {
        R.second.push_back(V);
        return;
      }
    Rows.push_back({Name, {V}});
  }
  double medianOf(const std::string &Name) const {
    for (auto &R : Rows)
      if (R.first == Name)
        return median(R.second);
    return 0;
  }
};

std::string unitOf(const std::string &Name) {
  auto Ends = [&](const char *S) {
    std::string Suffix = S;
    return Name.size() >= Suffix.size() &&
           Name.compare(Name.size() - Suffix.size(), Suffix.size(),
                        Suffix) == 0;
  };
  if (Ends("_ms"))
    return "ms";
  if (Ends("_us") || Ends("_us_per_unit"))
    return "us";
  if (Ends(".ns_per_rf_candidate"))
    return "ns";
  if (Ends("bytes_per_unit"))
    return "B";
  if (Ends("units_per_s"))
    return "1/s";
  if (Ends("share") || Ends("_per_rf") || Ends("units_per_batch"))
    return "ratio";
  return "count";
}

/// The deterministic counts of one pass's results, and the simulation
/// cost per rf candidate given each side's busy time \p SimNs.
void addCounts(const std::vector<TelechatResult> &Results,
               std::vector<Metric> &Out, const std::array<double, 2> &SimNs) {
  uint64_t Insts = 0, InstsRemoved = 0, LocsRemoved = 0;
  SimStats Side[2];
  for (const TelechatResult &R : Results) {
    for (const AsmThread &T : R.Compiled.Asm.Threads)
      Insts += T.Code.size();
    InstsRemoved += R.OptStats.RemovedInstructions;
    LocsRemoved += R.OptStats.RemovedLocations;
    const SimStats *S[2] = {&R.SourceSim.Stats, &R.TargetSim.Stats};
    for (int I = 0; I != 2; ++I) {
      Side[I].PathCombos += S[I]->PathCombos;
      Side[I].RfCandidates += S[I]->RfCandidates;
      Side[I].ValueConsistent += S[I]->ValueConsistent;
      Side[I].CoCandidates += S[I]->CoCandidates;
      Side[I].AllowedExecutions += S[I]->AllowedExecutions;
      Side[I].RfPruned += S[I]->RfPruned;
      Side[I].CatEvalsAvoided += S[I]->CatEvalsAvoided;
    }
  }
  auto Add = [&](const std::string &Name, double V) {
    Out.push_back({Name, V, unitOf(Name)});
  };
  Add("compiler.c2s.insts", double(Insts));
  Add("core.s2l.insts_removed", double(InstsRemoved));
  Add("core.s2l.locs_removed", double(LocsRemoved));
  const char *SideName[2] = {"sim.source", "sim.target"};
  for (int I = 0; I != 2; ++I) {
    std::string P = SideName[I];
    const SimStats &S = Side[I];
    Add(P + ".path_combos", double(S.PathCombos));
    Add(P + ".rf_candidates", double(S.RfCandidates));
    Add(P + ".value_consistent", double(S.ValueConsistent));
    Add(P + ".co_candidates", double(S.CoCandidates));
    Add(P + ".allowed_executions", double(S.AllowedExecutions));
    Add(P + ".rf_pruned", double(S.RfPruned));
    Add(P + ".cat_evals_avoided", double(S.CatEvalsAvoided));
    double Rf = S.RfCandidates ? double(S.RfCandidates) : 1.0;
    Add(P + ".allowed_per_rf", double(S.AllowedExecutions) / Rf);
    Add(P + ".ns_per_rf_candidate", SimNs[I] / Rf);
  }
}

} // namespace

std::vector<Metric> perfbench::tracedRun(const Args &A, ThreadPool &Pool,
                                         Gate &G) {
  Clock::time_point RunStart = Clock::now();
  Corpus C = setUp(A, 0);
  double GenSeconds = C.GenSeconds;
  Reference Ref;
  std::string E = loadReference(A, C, Ref);
  if (!E.empty()) {
    G.fault(E);
    return {};
  }
  std::vector<Metric> Out;
  Samples S;
  std::vector<double> UntracedUps, TracedUps;
  PassStats Served; // Served-gen only: the dist counters.

  if (A.W == Workload::ServedGen) {
    // The served pass: the dist counters and the verdict gate. The
    // stage-by-stage passes below run the same units locally.
    std::vector<TelechatResult> Results;
    std::vector<CampaignUnitMeta> Meta;
    std::vector<uint8_t> Ran;
    Served = runServedPass(A, C, Pool.size() - 1, Results, Meta, Ran, G);
    checkPass(C, Ref, Meta, Results, Ran, G);
    GenSeconds = materialise(C);
  }

  // Pairs of an untraced runCampaignUnits pass and a traced pass over
  // the same units, until the run's time is up. Odd pairs run the
  // traced pass first, so the order does not bias the overhead.
  std::vector<TelechatResult> Untraced;
  uint64_t Checked = 0;
  for (unsigned Pair = 0;; ++Pair) {
    std::vector<uint8_t> Ran;
    TracedPass T;
    if (Pair % 2)
      T = runTracedPass(C, Pool);
    PassStats U = runLocalPass(C, Pool, Untraced, Ran);
    if (Pair % 2 == 0)
      T = runTracedPass(C, Pool);
    if (A.W != Workload::ServedGen)
      checkPass(C, Ref, metaById(C), Untraced, Ran, G);
    uint64_t Mismatched = 0;
    for (size_t I = 0; I != T.Results.size(); ++I)
      if (resultBytes(T.Results[I]) != resultBytes(Untraced[I]))
        ++Mismatched;
    Checked += T.Results.size();
    if (Mismatched)
      G.fault(std::to_string(Mismatched) +
              " traced units differ from runCampaignUnit's bytes");

    std::array<double, NumStages> Busy{};
    std::array<std::vector<double>, NumStages> PerUnitUs;
    double UnitBusy = 0;
    for (size_t I = 0; I != T.Ns.size(); ++I) {
      UnitBusy += double(T.UnitNs[I]);
      for (int St = 0; St != NumStages; ++St) {
        Busy[St] += double(T.Ns[I][St]);
        PerUnitUs[St].push_back(double(T.Ns[I][St]) / 1e3);
      }
    }
    // The first pair is the warm-up once there are more.
    if (Pair == 1) {
      S.Rows.clear();
      UntracedUps.clear();
      TracedUps.clear();
    }
    for (int St = 0; St != NumStages; ++St) {
      std::string N = StageNames[St];
      S.add(N + ".busy_ms", Busy[St] / 1e6);
      S.add(N + ".share", Busy[St] / UnitBusy);
      S.add(N + ".p99_us", quantile(PerUnitUs[St], 0.99));
    }
    double Units = double(T.Results.size());
    UntracedUps.push_back(Units / U.Wall);
    TracedUps.push_back(Units / T.Wall);

    if (Pair == 0) {
      printSelfTimeTable(T);
      std::string Path = A.OutDir + "/trace-" + A.WorkloadName + "-" +
                         std::to_string(A.Seed) + ".json";
      if (writeChromeTrace(Path, T))
        printf("trace: %s\n", Path.c_str());
      else
        G.fault("cannot write " + Path);
    }
    if (secondsBetween(RunStart, Clock::now()) >= A.Seconds)
      break;
  }

  // Layers the local passes bypass, measured over this workload's
  // results and units: what each would cost per unit here.
  size_t N = Untraced.size();
  double EncodeS = 0, DecodeS = 0, Bytes = 0;
  for (const TelechatResult &R : Untraced) {
    WireBuffer B;
    Clock::time_point T0 = Clock::now();
    encodeTelechatResult(B, R);
    Clock::time_point T1 = Clock::now();
    WireCursor Cur(B.data(), B.size());
    TelechatResult Back;
    if (!decodeTelechatResult(Cur, Back) || !Cur.ok())
      G.fault("a result does not decode");
    EncodeS += secondsBetween(T0, T1);
    DecodeS += secondsBetween(T1, Clock::now());
    Bytes += double(B.size());
  }

  std::string JournalPath = A.OutDir + "/trace.journal";
  JournalWriter J;
  CampaignSourceSpec Spec;
  Spec.K = CampaignSourceSpec::Kind::Generator;
  E = J.create(JournalPath, Spec, C.Configs);
  double HeaderBytes = E.empty() ? double(std::filesystem::file_size(
                                       JournalPath))
                                 : 0.0;
  Clock::time_point J0 = Clock::now();
  for (size_t I = 0; E.empty() && I != N; ++I)
    if (!J.appendResult(I, Untraced[I]))
      E = "journal append failed";
  double AppendS = secondsBetween(J0, Clock::now());
  J.close();
  double JournalBytes = 0;
  if (E.empty())
    JournalBytes =
        double(std::filesystem::file_size(JournalPath)) - HeaderBytes;
  else
    G.fault(E);
  std::filesystem::remove(JournalPath);

  std::vector<CampaignUnit> ById(C.Units);
  std::sort(ById.begin(), ById.end(),
            [](const CampaignUnit &X, const CampaignUnit &Y) {
              return X.Id < Y.Id;
            });
  VectorUnitSource Inner(std::move(ById));
  DedupingUnitSource Dedupe(Inner);
  Clock::time_point C0 = Clock::now();
  CampaignUnit U;
  while (Dedupe.next(U)) {
  }
  double CanonS = secondsBetween(C0, Clock::now());

  auto Add = [&](const std::string &Name, double V) {
    Out.push_back({Name, V, unitOf(Name)});
  };
  for (auto &[Name, V] : S.Rows)
    Add(Name, median(V));
  double TracedRate = median(TracedUps), UntracedRate = median(UntracedUps);
  Add("trace.units_per_s", TracedRate);
  Add("trace.overhead_share", 1.0 - TracedRate / UntracedRate);
  Add("trace.units_checked", double(Checked));
  // Traced results equal the untraced ones byte for byte (checked
  // above), so the counts come from the last untraced pass.
  addCounts(Untraced, Out,
            {1e6 * S.medianOf("sim.source.busy_ms"),
             1e6 * S.medianOf("sim.target.busy_ms")});
  Add("models.load_ms", 1e3 * C.ModelSeconds);
  Add("diy.gen_ms", 1e3 * GenSeconds);
  Add("diy.tests", double(N / C.Configs.size()));
  Add("canon.busy_ms", 1e3 * CanonS);
  Add("canon.dup_share", double(Dedupe.duplicates().size()) / double(N));
  Add("dist.batches", double(Served.Batches));
  Add("dist.units_per_batch",
      Served.Batches ? double(Served.Units) / double(Served.Batches) : 0.0);
  Add("dist.poll_wakeups", double(Served.PollWakeups));
  Add("dist.requeues", double(Served.Requeues));
  Add("dist.lease_size_max", double(Served.LeaseSizeMax));
  Add("dist.result_bytes_per_unit", Bytes / double(N));
  Add("dist.encode_us_per_unit", 1e6 * EncodeS / double(N));
  Add("dist.decode_us_per_unit", 1e6 * DecodeS / double(N));
  Add("journal.append_us_per_unit", 1e6 * AppendS / double(N));
  Add("journal.bytes_per_unit", JournalBytes / double(N));
  return Out;
}
