//===--- CampaignCli.cpp - Shared campaign/serve CLI driver ---------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/CampaignCli.h"

#include "core/Campaign.h"
#include "dist/CampaignJson.h"
#include "dist/Journal.h"
#include "dist/WorkServer.h"
#include "diy/Classics.h"
#include "diy/Config.h"
#include "diy/Generator.h"
#include "diy/RealWorld.h"
#include "litmus/Snippet.h"
#include "sim/Backend.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace telechat;

namespace {

/// A corpus flag, recorded during parsing and materialised afterwards so
/// flag order does not matter (--limit may follow --suite).
struct CorpusSpec {
  enum class Kind { File, Suite, RealWorldSuite, Classics, KernelDir } K;
  std::string Value; ///< RealWorldSuite: family name, or "" for all.
};

/// Expands the specs (in the order given) into the campaign corpus.
/// Prints and returns false on errors.
bool buildCorpus(const std::vector<CorpusSpec> &Specs, unsigned SuiteLimit,
                 std::vector<LitmusTest> &Tests) {
  for (const CorpusSpec &Spec : Specs) {
    switch (Spec.K) {
    case CorpusSpec::Kind::File: {
      ErrorOr<std::vector<LitmusTest>> FileTests =
          readLitmusCorpus(Spec.Value);
      if (!FileTests) {
        fprintf(stderr, "error: %s\n", FileTests.error().c_str());
        return false;
      }
      Tests.insert(Tests.end(), FileTests->begin(), FileTests->end());
      break;
    }
    case CorpusSpec::Kind::Suite: {
      SuiteConfig Config = Spec.Value == "c11acq" ? SuiteConfig::c11Acq()
                                                  : SuiteConfig::c11();
      Config.Limit = SuiteLimit;
      std::vector<LitmusTest> Suite = generateSuite(Config);
      Tests.insert(Tests.end(), Suite.begin(), Suite.end());
      break;
    }
    case CorpusSpec::Kind::RealWorldSuite: {
      std::vector<LitmusTest> Suite;
      if (Spec.Value.empty()) {
        Suite = realWorldTests();
      } else {
        ErrorOr<std::vector<RealWorldCase>> Family =
            realWorldFamily(Spec.Value);
        if (!Family) {
          fprintf(stderr, "error: %s\n", Family.error().c_str());
          return false;
        }
        for (RealWorldCase &C : *Family)
          Suite.push_back(std::move(C.Test));
      }
      if (SuiteLimit && Suite.size() > SuiteLimit)
        Suite.resize(SuiteLimit);
      Tests.insert(Tests.end(), std::make_move_iterator(Suite.begin()),
                   std::make_move_iterator(Suite.end()));
      break;
    }
    case CorpusSpec::Kind::Classics:
      for (const std::string &Name : classicNames())
        Tests.push_back(classicTest(Name));
      break;
    case CorpusSpec::Kind::KernelDir: {
      ErrorOr<std::vector<LitmusTest>> Kernels =
          readKernelDirectory(Spec.Value);
      if (!Kernels) {
        fprintf(stderr, "error: %s\n", Kernels.error().c_str());
        return false;
      }
      Tests.insert(Tests.end(), std::make_move_iterator(Kernels->begin()),
                   std::make_move_iterator(Kernels->end()));
      break;
    }
    }
  }
  return true;
}

bool writeJson(const std::string &Path, const std::string &Contents) {
  if (!writeTextFile(Path, Contents)) {
    fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

/// The exit status of a campaign without bugs: 1 when any unit errored
/// or timed out, since a campaign that did less work than asked must
/// not read as clean; else 0.
int incompleteExit(size_t Errors, size_t Timeouts) {
  if (!Errors && !Timeouts)
    return 0;
  fprintf(stderr, "error: campaign incomplete: %zu errors, %zu timeouts\n",
          Errors, Timeouts);
  return 1;
}

/// Pipeline-campaign summary (bug table); exit 2 on bugs, like
/// single-test mode, else incompleteExit.
int summarisePipeline(const std::vector<CampaignUnitMeta> &Units,
                      const std::vector<TelechatResult> &Results) {
  size_t Bugs = 0, Errors = 0, Timeouts = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    const TelechatResult &R = Results[I];
    if (R.isBug()) {
      ++Bugs;
      printf("  BUG  %-28s %s\n",
             I < Units.size() ? Units[I].TestName.c_str() : "?",
             campaignVerdict(R).c_str());
    } else if (!R.ok()) {
      ++Errors;
    } else if (R.timedOut()) {
      ++Timeouts;
    }
  }
  printf("campaign: %zu units, %zu bugs, %zu errors, %zu timeouts\n",
         Results.size(), Bugs, Errors, Timeouts);
  return Bugs ? 2 : incompleteExit(Errors, Timeouts);
}

/// Simulation-only summary: herd-style state counts per test; exit
/// status by incompleteExit.
int summariseSim(const std::vector<CampaignUnitMeta> &Units,
                 const std::vector<TelechatResult> &Results) {
  size_t Errors = 0, Timeouts = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    const SimResult &R = Results[I].SourceSim;
    if (!Results[I].ok())
      ++Errors;
    else if (Results[I].timedOut())
      ++Timeouts;
    std::string Suffix = R.ok() ? "" : " ERROR: " + R.Error;
    printf("%-28s %zu states%s%s\n",
           I < Units.size() ? Units[I].TestName.c_str() : "?",
           R.Allowed.size(), R.TimedOut ? " TIMEOUT" : "",
           Suffix.c_str());
  }
  return incompleteExit(Errors, Timeouts);
}

} // namespace

int telechat::campaignToolMain(int argc, char **argv, void (*Usage)(),
                               CampaignCliMode Mode) {
  bool Serve = Mode != CampaignCliMode::Local;
  std::string ProfileName = "llvm-O2-AArch64";
  TestOptions Options;
  bool ConfigFlagsSet = false; ///< --profile/--model/... explicitly given.
  unsigned Jobs = 0;
  std::vector<CorpusSpec> Corpus;
  unsigned SuiteLimit = 0;
  RandomGenOptions GenOpts;
  bool UseGen = false, GenExtras = false, Materialise = false;
  std::string JournalPath;
  bool Resume = false, Compact = false;
  std::string CampaignJsonPath, EngineJsonPath;
  WorkServerOptions ServerOpts;
  bool Dedupe = false;
  bool Verbose = false;
  int I = 2;
  if (Serve) {
    if (argc < 3) {
      Usage();
      return 1;
    }
    if (!parseFlagNumber("--serve", argv[2], uint16_t(0), uint16_t(65535),
                         ServerOpts.Port))
      return 2;
    I = 3;
  }
  for (; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--limit") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("--limit", V, 0u, UINT32_MAX, SuiteLimit))
        return 2;
    } else if (Arg == "--corpus" || Arg == "--suite") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      std::string Val = V;
      if (Arg == "--suite" && Val.rfind("realworld", 0) == 0 &&
          (Val.size() == strlen("realworld") ||
           Val[strlen("realworld")] == ':')) {
        std::string Family = Val.size() > strlen("realworld")
                                 ? Val.substr(strlen("realworld") + 1)
                                 : "";
        Corpus.push_back(
            CorpusSpec{CorpusSpec::Kind::RealWorldSuite, Family});
      } else {
        Corpus.push_back(CorpusSpec{Arg == "--corpus"
                                        ? CorpusSpec::Kind::File
                                        : CorpusSpec::Kind::Suite,
                                    Val});
      }
    } else if (Arg == "--classics") {
      Corpus.push_back(CorpusSpec{CorpusSpec::Kind::Classics, ""});
    } else if (Arg == "--kernels") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      Corpus.push_back(CorpusSpec{CorpusSpec::Kind::KernelDir, V});
    } else if (Arg == "--gen-seed") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      UseGen = true;
      if (!parseFlagNumber("--gen-seed", V, uint64_t(0), UINT64_MAX,
                           GenOpts.Seed))
        return 2;
    } else if (Arg == "--gen-count") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      GenExtras = true;
      if (!parseFlagNumber("--gen-count", V, 0u, UINT32_MAX, GenOpts.Count))
        return 2;
    } else if (Arg == "--gen-max-edges") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      GenExtras = true;
      if (!parseFlagNumber("--gen-max-edges", V, 0u, UINT32_MAX,
                           GenOpts.MaxEdges))
        return 2;
    } else if (Arg == "--materialise" || Arg == "--materialize") {
      Materialise = true;
    } else if (Arg == "--journal") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      JournalPath = V;
    } else if (Arg == "--resume") {
      Resume = true;
    } else if (Arg == "--compact") {
      Compact = true;
    } else if (Arg == "--status-port") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("--status-port", V, -1, 65535,
                           ServerOpts.StatusPort))
        return 2;
    } else if (Arg == "--profile") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      ProfileName = V;
      ConfigFlagsSet = true;
    } else if (Arg == "--model") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      Options.SourceModel = V;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-augment") {
      Options.AugmentLocals = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-optimise") {
      Options.OptimiseCompiled = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--const-model") {
      Options.ConstAugmentedModel = true;
      ConfigFlagsSet = true;
    } else if (Arg == "--backend") {
      if (!(V = Next()) || !backendFromName(V, Options.Sim.Backend)) {
        fprintf(stderr, "error: --backend expects sweep|solve|auto|explore\n");
        return 1;
      }
      ConfigFlagsSet = true;
    } else if (Arg == "--explore-budget") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("--explore-budget", V, uint64_t(0), UINT64_MAX,
                           Options.Sim.ExploreBudget))
        return 2;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-prune") {
      Options.Sim.RfValuePruning = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-transform") {
      Options.Sim.RfTransformDomain = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--no-cat-cache") {
      Options.Sim.IncrementalCatEval = false;
      ConfigFlagsSet = true;
    } else if (Arg == "--max-steps") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("--max-steps", V, uint64_t(1), UINT64_MAX,
                           Options.Sim.MaxSteps))
        return 2;
      ConfigFlagsSet = true;
    } else if (Arg == "-j" || Arg == "--jobs") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("-j", V, 0u, kMaxJobs, Jobs))
        return 2;
    } else if (Arg == "--campaign-json") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      CampaignJsonPath = V;
    } else if (Arg == "--engine-json") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      EngineJsonPath = V;
    } else if (Arg == "--bind") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      ServerOpts.BindAddress = V;
    } else if (Arg == "--lease-timeout") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("--lease-timeout", V, 0.001, 1e9,
                           ServerOpts.LeaseTimeoutSeconds))
        return 2;
    } else if (Arg == "--batch") {
      if (!(V = Next())) {
        Usage();
        return 1;
      }
      if (!parseFlagNumber("--batch", V, 0u, UINT32_MAX,
                           ServerOpts.MaxUnitsPerRequest))
        return 2;
    } else if (Arg == "--dedupe") {
      Dedupe = true;
    } else if (Arg == "--verbose") {
      Verbose = true;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      Usage();
      return 1;
    }
  }

  if (UseGen && !Corpus.empty()) {
    fprintf(stderr, "error: --gen-seed cannot mix with "
                    "--corpus/--suite/--classics (unit ids would be "
                    "ambiguous)\n");
    return 1;
  }
  if (!UseGen && (GenExtras || Materialise)) {
    fprintf(stderr, "error: --gen-count/--gen-max-edges/--materialise "
                    "require --gen-seed\n");
    return 1;
  }
  if (Resume && JournalPath.empty()) {
    fprintf(stderr, "error: --resume requires --journal\n");
    return 1;
  }
  if (Compact && JournalPath.empty()) {
    fprintf(stderr, "error: --compact requires --journal\n");
    return 1;
  }

  bool SimOnly = Mode == CampaignCliMode::SimServe;
  std::vector<CampaignConfig> Configs;
  CampaignSourceSpec Spec;
  JournalWriter Journal;
  std::vector<std::pair<uint64_t, TelechatResult>> Replay;

  if (Resume) {
    // The journal is authoritative: it records the spec and configs the
    // crashed server ran, which are what the replayed results belong to.
    ErrorOr<JournalContents> J = readJournal(JournalPath);
    if (!J) {
      fprintf(stderr, "error: %s\n", J.error().c_str());
      return 1;
    }
    if (J->TruncatedTail)
      fprintf(stderr,
              "note: %s ends in a partial record (server died "
              "mid-append); the tail was discarded\n",
              JournalPath.c_str());
    if (UseGen || !Corpus.empty() || ConfigFlagsSet)
      fprintf(stderr,
              "note: --resume replays the journal's campaign spec and "
              "config table; corpus/generator/profile/model flags are "
              "ignored\n");
    Spec = std::move(J->Spec);
    Configs = std::move(J->Configs);
    Replay = std::move(J->Results);
    if (Configs.empty()) {
      fprintf(stderr, "error: %s: empty config table\n",
              JournalPath.c_str());
      return 1;
    }
    SimOnly = Configs[0].SimulateOnly;
    // Truncate to the valid prefix: appending behind a discarded
    // partial tail would corrupt the framing for the next resume.
    std::string E = Journal.openAppend(JournalPath, J->ValidBytes);
    if (!E.empty()) {
      fprintf(stderr, "error: %s\n", E.c_str());
      return 1;
    }
    printf("resuming campaign from %s: %zu results replayed\n",
           JournalPath.c_str(), Replay.size());
  } else {
    Profile P;
    if (!SimOnly && !profileFromName(ProfileName, P)) {
      fprintf(stderr, "error: unknown profile '%s'\n", ProfileName.c_str());
      return 1;
    }
    Configs = {{P, Options, SimOnly}};
    if (UseGen && !Materialise) {
      // Streamed: the corpus exists only as this spec; units are
      // generated as they are leased (or executed, locally).
      Spec.K = CampaignSourceSpec::Kind::Generator;
      Spec.Gen = GenOpts;
      Spec.NumConfigs = uint32_t(Configs.size());
    } else {
      std::vector<LitmusTest> Tests;
      if (UseGen) {
        Tests = generateRandomTests(GenOpts);
      } else if (!buildCorpus(Corpus, SuiteLimit, Tests)) {
        return 1;
      }
      if (Tests.empty()) {
        fprintf(stderr,
                UseGen ? "error: the generator produced no tests\n"
                       : "error: empty corpus "
                         "(--corpus/--suite/--classics/--gen-seed)\n");
        return 1;
      }
      Spec.K = CampaignSourceSpec::Kind::Corpus;
      Spec.Units = makeCampaignUnits(Tests);
    }
    if (!JournalPath.empty()) {
      // Exists-check up front (cheap, before corpus work); the journal
      // itself is only created once the server has bound its port, so a
      // failed bind cannot orphan a header-only file that would block a
      // plain retry of the same command.
      std::ifstream Probe(JournalPath);
      if (Probe) {
        fprintf(stderr,
                "error: journal %s already exists; restart with "
                "--resume to continue it, or remove it\n",
                JournalPath.c_str());
        return 1;
      }
    }
  }

  std::vector<CampaignUnitMeta> Meta;
  std::vector<TelechatResult> Results;
  uint64_t Deduped = 0;

  std::string ServeError;

  if (Serve) {
    ServerOpts.Verbose = Verbose;
    ServerOpts.Dedupe = Dedupe;
    bool Streamed = Spec.K == CampaignSourceSpec::Kind::Generator;
    // A journal header needs the spec intact, so only the journal-free
    // path can move the corpus into the source; the journaled path
    // drops its duplicate right after the header is written below.
    bool CreateJournal = !JournalPath.empty() && !Resume;
    std::unique_ptr<UnitSource> Source =
        CreateJournal ? Spec.makeSource() : Spec.takeSource();
    uint64_t Hint = Source->sizeHint();
    WorkServer Server(std::move(Source), Configs, ServerOpts);
    if (!Replay.empty())
      Server.preloadResults(std::move(Replay));
    std::string Error = Server.start();
    if (!Error.empty()) {
      fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (CreateJournal) {
      std::string E = Journal.create(JournalPath, Spec, Configs);
      if (!E.empty()) {
        fprintf(stderr, "error: %s\n", E.c_str());
        return 1;
      }
      Spec.Units.clear();
      Spec.Units.shrink_to_fit();
    }
    if (Journal.isOpen())
      Server.setJournal(&Journal);
    if (SimOnly)
      printf("serving %s%llu simulation units on %s:%u (model %s)\n",
             Streamed ? "up to " : "",
             static_cast<unsigned long long>(Hint),
             ServerOpts.BindAddress.c_str(), unsigned(Server.port()),
             Configs[0].Opts.SourceModel.c_str());
    else
      printf("serving %s%llu units on %s:%u (profile %s, model %s)\n",
             Streamed ? "up to " : "",
             static_cast<unsigned long long>(Hint),
             ServerOpts.BindAddress.c_str(), unsigned(Server.port()),
             Configs[0].P.name().c_str(),
             Configs[0].Opts.SourceModel.c_str());
    fflush(stdout);
    CampaignReport Report = Server.run();
    ServeError = Report.Error;
    if (Report.StaleReplays)
      fprintf(stderr,
              "warning: %llu journal results matched no unit of the "
              "campaign spec\n",
              static_cast<unsigned long long>(Report.StaleReplays));
    printf("served: %.2f s, %llu requeues, %llu replayed, %llu deduped, "
           "%zu workers\n",
           Report.Seconds,
           static_cast<unsigned long long>(Report.Requeues),
           static_cast<unsigned long long>(Report.ReplayedResults),
           static_cast<unsigned long long>(Report.DedupedUnits),
           Report.Workers.size());
    Deduped = Report.DedupedUnits;
    if (!EngineJsonPath.empty() &&
        !writeJson(EngineJsonPath, campaignEngineJson(Report)))
      return 1;
    Results = std::move(Report.Results);
    Meta = std::move(Report.UnitsMeta);
  } else {
    // Local campaign over the pool. The journal is a UnitSource-side
    // concern here, not a server feature: executed results are appended
    // (under a lock, before they merge) exactly like the server's
    // accept path, and resume replays through a ReplayingUnitSource so
    // journaled units never reach an executor lane. A resumed local
    // campaign is byte-identical to an uninterrupted one.
    bool Streamed = Spec.K == CampaignSourceSpec::Kind::Generator;
    if (!JournalPath.empty() && !Resume) {
      // Created before the corpus moves into its source: the header
      // needs the spec intact.
      std::string E = Journal.create(JournalPath, Spec, Configs);
      if (!E.empty()) {
        fprintf(stderr, "error: %s\n", E.c_str());
        return 1;
      }
    }
    std::map<uint64_t, TelechatResult> ReplayMap;
    std::set<uint64_t> ReplayedIds; ///< Already journaled: never re-append.
    for (auto &R : Replay) {
      ReplayedIds.insert(R.first);
      ReplayMap.emplace(R.first, std::move(R.second));
    }
    Replay.clear();

    std::unique_ptr<GeneratorUnitSource> GenSource;
    std::unique_ptr<VectorUnitSource> VecSource;
    if (Streamed) {
      GenSource =
          std::make_unique<GeneratorUnitSource>(Spec.Gen, Spec.NumConfigs);
      Meta.resize(size_t(GenSource->sizeHint()));
      Results.resize(size_t(GenSource->sizeHint()));
    } else {
      Meta = campaignUnitMeta(Spec.Units);
      Results.resize(Spec.Units.size());
      VecSource = std::make_unique<VectorUnitSource>(std::move(Spec.Units));
    }
    UnitSource &Inner = Streamed ? static_cast<UnitSource &>(*GenSource)
                                 : *VecSource;
    DedupingUnitSource Deduper(Inner);
    UnitSource &Mid = Dedupe ? static_cast<UnitSource &>(Deduper) : Inner;
    ReplayingUnitSource Replayer(Mid, std::move(ReplayMap));

    std::mutex JournalM;
    auto JournalAppend = [&](uint64_t Id, const TelechatResult &R) {
      if (!Journal.isOpen())
        return;
      std::lock_guard<std::mutex> Lock(JournalM);
      if (ServeError.empty() && !Journal.appendResult(Id, R))
        ServeError = "the campaign journal stopped accepting appends; "
                     "results merged after the fault are not durable";
    };

    ThreadPool Pool(resolveJobs(Jobs));
    runCampaignUnits(Replayer, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       JournalAppend(U.Id, R);
                       Results[U.Id] = std::move(R);
                       if (Streamed)
                         Meta[U.Id] =
                             CampaignUnitMeta{U.Test.Name, U.Config};
                     });
    if (Streamed) {
      // The generator may stop short of the plan; the corpus is what it
      // actually produced.
      Results.resize(size_t(GenSource->produced()));
      Meta.resize(size_t(GenSource->produced()));
    }
    // Replayed results merge without execution -- and are NOT
    // re-journaled (their records are already in the file).
    uint64_t Replayed = 0;
    for (const ReplayingUnitSource::Applied &A : Replayer.applied()) {
      Results[A.Id] = A.Result;
      if (Streamed)
        Meta[A.Id] = A.Meta;
      ++Replayed;
    }
    // Deduped units never reached an executor: fill their slots from
    // their representatives (rep id < dup id and reps are always served,
    // so the rep's slot is set -- executed or replayed).
    for (const DedupingUnitSource::Dup &D : Deduper.duplicates()) {
      Results[D.Id] = renameTelechatResult(Results[D.RepId], D.Renaming);
      if (Streamed)
        Meta[D.Id] = D.Meta;
      ++Deduped;
      // A journaled duplicate never reappears in the stream (the dedupe
      // layer swallows it); it was answered here, so it is not stale.
      Replayer.forgetReplay(D.Id);
      if (!ReplayedIds.count(D.Id))
        JournalAppend(D.Id, Results[D.Id]);
    }
    if (uint64_t Stale = Replayer.staleReplays())
      fprintf(stderr,
              "warning: %llu journal results matched no unit of the "
              "campaign spec\n",
              static_cast<unsigned long long>(Stale));
    if (Resume)
      printf("replayed: %llu results merged from the journal without "
             "re-execution\n",
             static_cast<unsigned long long>(Replayed));
  }
  if (Dedupe && !Serve)
    printf("deduped: %llu of %zu units answered by canonical "
           "representatives\n",
           static_cast<unsigned long long>(Deduped), Results.size());

  if (Results.empty()) {
    // Every materialised path refused an empty corpus up front; the
    // streamed paths only learn the size after draining. A zero-unit
    // campaign (--gen-count 0, or an exhausted attempt budget) reading
    // as "campaign passed" would hide a broken spec.
    fprintf(stderr, "error: the campaign produced no units\n");
    return 1;
  }
  if (!CampaignJsonPath.empty() &&
      !writeJson(CampaignJsonPath,
                 campaignResultsJson(Meta, Configs, Results)))
    return 1;
  int Exit = SimOnly ? summariseSim(Meta, Results)
                     : summarisePipeline(Meta, Results);
  if (!ServeError.empty()) {
    // The merged results above are valid, but the run broke a promise
    // (journal stopped accepting appends, or the source misbehaved):
    // write the artefacts, then fail loudly -- an exit-0 campaign that
    // silently lost its durability would be worse than the fault.
    fprintf(stderr, "error: %s\n", ServeError.c_str());
    return 1;
  }
  if (Compact) {
    // Only after a fault-free campaign: compacting a journal whose run
    // just broke would destroy the evidence a resume needs.
    Journal.close();
    ErrorOr<CompactStats> S = compactJournal(JournalPath);
    if (!S) {
      fprintf(stderr, "error: %s\n", S.error().c_str());
      return 1;
    }
    printf("compacted %s: %llu -> %llu bytes, %llu results\n",
           JournalPath.c_str(),
           static_cast<unsigned long long>(S->BytesBefore),
           static_cast<unsigned long long>(S->BytesAfter),
           static_cast<unsigned long long>(S->Results));
  }
  return Exit;
}
