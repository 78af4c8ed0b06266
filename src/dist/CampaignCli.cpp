//===--- CampaignCli.cpp - Shared service-mode CLI drivers ----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/CampaignCli.h"

#include "core/Campaign.h"
#include "dist/CampaignJson.h"
#include "dist/CampaignLedger.h"
#include "dist/Journal.h"
#include "dist/WorkServer.h"
#include "dist/Worker.h"
#include "diy/Classics.h"
#include "diy/Config.h"
#include "diy/Generator.h"
#include "litmus/Snippet.h"
#include "models/Models.h"
#include "sim/Backend.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace telechat;

namespace {

const char *const PipelineGroup = "pipeline (single test and campaigns)";
const char *const SimGroup = "simulation";

/// A corpus flag, recorded during parsing and materialised afterwards so
/// flag order does not matter (--limit may follow --suite).
struct CorpusSpec {
  enum class Kind { File, Suite, Classics, KernelDir } K;
  std::string Value; ///< File or directory path, or suite name.
};

/// Expands the specs (in the order given) into the campaign corpus.
/// Prints and returns false on errors.
bool buildCorpus(const std::vector<CorpusSpec> &Specs, unsigned SuiteLimit,
                 std::vector<LitmusTest> &Tests) {
  for (const CorpusSpec &Spec : Specs) {
    ErrorOr<std::vector<LitmusTest>> Part = std::vector<LitmusTest>();
    switch (Spec.K) {
    case CorpusSpec::Kind::File:
      Part = readLitmusCorpus(Spec.Value);
      break;
    case CorpusSpec::Kind::Suite:
      Part = suiteTests(Spec.Value, SuiteLimit);
      break;
    case CorpusSpec::Kind::Classics:
      for (const std::string &Name : classicNames())
        Part->push_back(classicTest(Name));
      break;
    case CorpusSpec::Kind::KernelDir:
      Part = readKernelDirectory(Spec.Value);
      break;
    }
    if (!Part) {
      fprintf(stderr, "error: %s\n", Part.error().c_str());
      return false;
    }
    Tests.insert(Tests.end(), std::make_move_iterator(Part->begin()),
                 std::make_move_iterator(Part->end()));
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

/// "profile P" or "profiles P, Q, ...": every profile of the table.
std::string profileList(const std::vector<CampaignConfig> &Configs) {
  std::vector<std::string> Names;
  for (const CampaignConfig &C : Configs)
    Names.push_back(C.P.name());
  return (Names.size() == 1 ? "profile " : "profiles ") +
         joinStrings(Names, ", ");
}

/// Pipeline-campaign summary (bug table); exit 2 on bugs, like
/// single-test mode, else incompleteExit.
int summarisePipeline(const std::vector<CampaignUnitMeta> &Units,
                      const std::vector<CampaignConfig> &Configs,
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
  printf("campaign: %zu units (%s), %zu bugs, %zu errors, %zu timeouts\n",
         Results.size(), profileList(Configs).c_str(), Bugs, Errors,
         Timeouts);
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

/// Everything the campaign/serve flags set.
struct CampaignArgs {
  std::vector<Profile> Profiles;
  TestOptions Options;
  unsigned Jobs = 0;
  std::vector<CorpusSpec> Corpus;
  unsigned SuiteLimit = 0;
  RandomGenOptions GenOpts;
  bool Materialise = false, Resume = false, Compact = false;
  std::string JournalPath, CampaignJsonPath, EngineJsonPath;
  WorkServerOptions ServerOpts;
};

/// The lease-server group: the downstream knobs of --serve and --relay.
void addLeaseServerFlags(FlagTable &T, LeaseServerOptions &O) {
  T.add("lease server (--serve, --relay)",
        {cliString("--bind", "<addr>", O.BindAddress,
                   "listen address (default 127.0.0.1)"),
         // 0 would answer every GetWork with Wait.
         cliNumber("--batch", "<n>", O.MaxUnitsPerRequest, 1, UINT32_MAX,
                   "max units per Work frame (default 64)"),
         cliNumber("--lease-timeout", "<s>", O.LeaseTimeoutSeconds, 0.001,
                   1e9, "re-issue stalled leases (default 120)"),
         cliNumber("--status-port", "<p>", O.StatusPort, -1, 65535,
                   "HTTP status endpoint: GET /status ->\n"
                   "live campaign JSON"),
         cliSwitch("--verbose", O.Verbose, true, "progress lines on stderr")});
}

/// The campaign/serve table; only --serve takes the lease-server group
/// and --engine-json (a local campaign leases nothing).
FlagTable campaignFlags(CampaignArgs &A, bool Serve) {
  auto Add = [&A](CorpusSpec::Kind K) {
    return [&A, K](const char *V) {
      A.Corpus.push_back({K, V ? V : ""});
      return true;
    };
  };
  FlagTable T;
  T.add("corpus (--campaign, --serve; any mix, kept in the order given)",
        {{"--corpus", nullptr, "<file>",
          "litmus file; may hold many tests (each\n"
          "starting with a 'C <name>' line)",
          Add(CorpusSpec::Kind::File)},
         {"--kernels", nullptr, "<dir>",
          "directory of C++ kernel-snippet files\n"
          "(litmus/Snippet.h), lexicographic order",
          Add(CorpusSpec::Kind::KernelDir)},
         cliEnum("--suite", "<name>", suiteNames(),
                 [&A](const std::string &S) {
                   A.Corpus.push_back({CorpusSpec::Kind::Suite, S});
                 },
                 "generated suite: c11, c11acq, or\n"
                 "realworld[:family] (families: spsc, mpmc,\n"
                 "seqlock, dclp, flagmsg, peterson)"),
         cliNumber("--limit", "<n>", A.SuiteLimit, 0, UINT32_MAX,
                   "cap on each --suite's tests (0 = all)"),
         {"--classics", nullptr, nullptr,
          "the classic families (MP, SB, IRIW, ...)",
          Add(CorpusSpec::Kind::Classics)},
         cliNumber("--gen-seed", "<n>", A.GenOpts.Seed, 0, UINT64_MAX,
                   "stream seeded diy generation instead of a\n"
                   "corpus (exclusive with the flags above)"),
         cliNumber("--gen-count", "<n>", A.GenOpts.Count, 0, UINT32_MAX,
                   "tests to generate (default 10)"),
         cliNumber("--gen-max-edges", "<n>", A.GenOpts.MaxEdges, 0,
                   UINT32_MAX, "cycle length cap (default 6)"),
         {"--materialise", "--materialize", nullptr,
          "expand --gen-* up front instead of\n"
          "streaming (debugging; same results)",
          [&A](const char *) {
            A.Materialise = true;
            return true;
          }}});
  std::vector<CliFlag> Run = {
      cliJobs(A.Jobs, "executor threads (0 = all hardware threads)"),
      cliString("--campaign-json", "<f>", A.CampaignJsonPath,
                "deterministic merged results (byte-equal\n"
                "between --campaign and --serve, streamed\n"
                "or materialised, resumed or not)"),
      cliSwitch("--dedupe", A.ServerOpts.Dedupe, true,
                "execute one unit per canonical test\n"
                "shape (litmus/Canon.h) and rename its\n"
                "result onto the duplicates")};
  // Only a server has lease telemetry to write.
  if (Serve)
    Run.insert(Run.begin() + 2,
               cliString("--engine-json", "<f>", A.EngineJsonPath,
                         "throughput/requeue telemetry (--serve)"));
  T.add("campaign (--campaign, --serve)", std::move(Run));
  T.add("journal (--campaign, --serve)",
        {cliString("--journal", "<f>", A.JournalPath,
                   "append-only campaign journal: spec +\n"
                   "every accepted result"),
         cliSwitch("--resume", A.Resume, true,
                   "replay --journal; only incomplete units\n"
                   "are served/executed again"),
         cliSwitch("--compact", A.Compact, true,
                   "after a clean campaign, rewrite the\n"
                   "journal as header + results in unit-id\n"
                   "order (duplicates and partial tail\n"
                   "dropped); resume stays byte-identical")});
  addPipelineFlags(T, A.Profiles, A.Options, /*ProfileList=*/true);
  addSimFlags(T, A.Options.Sim);
  if (Serve)
    addLeaseServerFlags(T, A.ServerOpts);
  return T;
}

FlagTable relayFlags(RelayOptions &O) {
  FlagTable T;
  T.operand(cliNumber("--relay", nullptr, O.Port, 0, 65535, nullptr));
  T.operand(cliHostPort("--relay", O.UpstreamHost, O.UpstreamPort, nullptr));
  addLeaseServerFlags(T, O);
  return T;
}

FlagTable workerFlags(std::string &Host, uint16_t &Port, WorkerOptions &O) {
  FlagTable T;
  T.operand(cliHostPort("--work", Host, Port, nullptr));
  T.add("worker (--work)",
        {cliJobs(O.Jobs, "executor threads (0 = all hardware threads)"),
         cliNumber("--batch", "<n>", O.BatchSize, 0, UINT32_MAX,
                   "units per request (0 = twice the pool,\n"
                   "rounded up to whole tests)"),
         cliNumber("--max-units", "<n>", O.KillAfterResults, 0, UINT64_MAX,
                   "fault drill: drop the connection after\n"
                   "n results"),
         cliSwitch("--verbose", O.Verbose, true, "progress lines on stderr")});
  return T;
}

} // namespace

void telechat::addPipelineFlags(FlagTable &T, std::vector<Profile> &Profiles,
                                TestOptions &Options, bool ProfileList) {
  // The default, until the first --profile replaces it.
  Profiles.assign(1, Profile());
  profileFromName("llvm-O2-AArch64", Profiles[0]);
  auto AddProfiles = [&Profiles, ProfileList,
                      Given = false](const char *V) mutable -> std::string {
    const char *Expect =
        ProfileList ? "comma-separated distinct profile names such as "
                      "llvm-O2-AArch64,gcc-O1-ARMv7+lse"
                    : "one profile name such as llvm-O2-AArch64 or "
                      "gcc-O1-ARMv7+lse";
    std::vector<std::string> Names = splitString(V, ',');
    if (!ProfileList && Names.size() != 1)
      return Expect;
    // Lists append; a repeated single name keeps its last value.
    if (!Given || !ProfileList)
      Profiles.clear();
    Given = true;
    for (const std::string &Name : Names) {
      Profile P;
      if (!profileFromName(Name, P))
        return Expect;
      for (const Profile &Q : Profiles)
        if (Q.name() == P.name())
          return Expect;
      Profiles.push_back(P);
    }
    return "";
  };
  T.add(PipelineGroup,
        {cliChecked("--profile", "<name>[,...]", AddProfiles,
                    "compiler profile (default llvm-O2-AArch64),\n"
                    "e.g. gcc-O1-ARMv7, llvm-O3-AArch64+lse+rcpc;\n"
                    "campaigns take a comma list and the flag\n"
                    "may repeat: one config per profile, in order"),
         cliEnum("--model", "<name>", modelNames(),
                 [&Options](const std::string &M) { Options.SourceModel = M; },
                 "source model (default rc11)"),
         cliSwitch("--no-augment", Options.AugmentLocals, false,
                   "disable local-variable augmentation"),
         cliSwitch("--no-optimise", Options.OptimiseCompiled, false,
                   "disable the s2l litmus optimiser"),
         cliSwitch("--const-model", Options.ConstAugmentedModel, true,
                   "use the const-violation-flagging model"),
         cliNumber("--explore-budget", "<n>", Options.Sim.ExploreBudget, 0,
                   UINT64_MAX,
                   "reroute compiled tests whose estimated rf\n"
                   "space reaches n to the explore backend")});
}

void telechat::addSimFlags(FlagTable &T, SimOptions &Sim) {
  T.add(SimGroup,
        {cliEnum("--backend", "<b>", {"sweep", "solve", "auto", "explore"},
                 [&Sim](const std::string &V) {
                   backendFromName(V, Sim.Backend);
                 },
                 "consistency engine: sweep (default), solve\n"
                 "or auto (picks by estimated rf-space size)\n"
                 "give identical outcomes; explore (dynamic\n"
                 "schedule exploration) reports a sound subset"),
         cliNumber("--max-steps", "<n>", Sim.MaxSteps, 1, UINT64_MAX,
                   "simulation budget (default 2000000)"),
         cliSwitch("--no-prune", Sim.RfValuePruning, false,
                   "disable rf value-constraint pruning"),
         cliSwitch("--no-transform", Sim.RfTransformDomain, false,
                   "copy-chain-only pruning domain (no\n"
                   "arithmetic transforms)"),
         cliSwitch("--no-cat-cache", Sim.IncrementalCatEval, false,
                   "disable incremental Cat evaluation")});
}

void telechat::printToolUsage(const char *Synopsis, const FlagTable &Single) {
  fputs(Synopsis, stderr);
  std::set<std::string> Printed;
  Single.printHelp(Printed);
  CampaignArgs Campaign;
  campaignFlags(Campaign, /*Serve=*/true).printHelp(Printed);
  std::string Host;
  uint16_t Port = 0;
  WorkerOptions Worker;
  workerFlags(Host, Port, Worker).printHelp(Printed);
}

int telechat::campaignToolMain(int argc, char **argv, void (*Usage)(),
                               CampaignCliMode Mode) {
  bool Serve = Mode != CampaignCliMode::Local;
  CampaignArgs Cli;
  FlagTable Flags = campaignFlags(Cli, Serve);
  if (Serve)
    Flags.operand(
        cliNumber("--serve", nullptr, Cli.ServerOpts.Port, 0, 65535, nullptr));
  if (int Rc = Flags.parse(argc, argv, 2, Usage))
    return Rc;
  bool UseGen = Flags.given("--gen-seed");
  bool GenExtras =
      Flags.given("--gen-count") || Flags.given("--gen-max-edges");

  if (UseGen && !Cli.Corpus.empty()) {
    fprintf(stderr, "error: --gen-seed cannot mix with "
                    "--corpus/--suite/--classics (unit ids would be "
                    "ambiguous)\n");
    return 1;
  }
  if (!UseGen && (GenExtras || Cli.Materialise)) {
    fprintf(stderr, "error: --gen-count/--gen-max-edges/--materialise "
                    "require --gen-seed\n");
    return 1;
  }
  if (Cli.Resume && Cli.JournalPath.empty()) {
    fprintf(stderr, "error: --resume requires --journal\n");
    return 1;
  }
  if (Cli.Compact && Cli.JournalPath.empty()) {
    fprintf(stderr, "error: --compact requires --journal\n");
    return 1;
  }

  bool SimOnly = Mode == CampaignCliMode::SimServe;
  std::vector<CampaignConfig> Configs;
  CampaignSourceSpec Spec;
  JournalWriter Journal;
  std::vector<std::pair<uint64_t, TelechatResult>> Replay;

  if (Cli.Resume) {
    // The journal is authoritative: it records the spec and configs the
    // crashed server ran, which are what the replayed results belong to.
    ErrorOr<JournalContents> J = readJournal(Cli.JournalPath);
    if (!J) {
      fprintf(stderr, "error: %s\n", J.error().c_str());
      return 1;
    }
    if (J->TruncatedTail)
      fprintf(stderr,
              "note: %s ends in a partial record (server died "
              "mid-append); the tail was discarded\n",
              Cli.JournalPath.c_str());
    if (UseGen || !Cli.Corpus.empty() || Flags.groupGiven(PipelineGroup) ||
        Flags.groupGiven(SimGroup))
      fprintf(stderr,
              "note: --resume replays the journal's campaign spec and "
              "config table; corpus/generator/profile/model flags are "
              "ignored\n");
    Spec = std::move(J->Spec);
    Configs = std::move(J->Configs);
    Replay = std::move(J->Results);
    if (Configs.empty()) {
      fprintf(stderr, "error: %s: empty config table\n",
              Cli.JournalPath.c_str());
      return 1;
    }
    SimOnly = Configs[0].SimulateOnly;
    // Truncate to the valid prefix: appending behind a discarded
    // partial tail would corrupt the framing for the next resume.
    std::string E = Journal.openAppend(Cli.JournalPath, J->ValidBytes);
    if (!E.empty()) {
      fprintf(stderr, "error: %s\n", E.c_str());
      return 1;
    }
    printf("resuming campaign from %s: %zu results replayed\n",
           Cli.JournalPath.c_str(), Replay.size());
  } else {
    // One config per profile, in the order given; a simulation-only
    // campaign compiles nothing, so it has one config whatever --profile
    // says.
    if (SimOnly)
      Cli.Profiles.assign(1, Profile());
    for (const Profile &P : Cli.Profiles)
      Configs.push_back({P, Cli.Options, SimOnly});
    if (UseGen && !Cli.Materialise) {
      // Streamed: the corpus exists only as this spec; units are
      // generated as they are leased (or executed, locally).
      Spec.K = CampaignSourceSpec::Kind::Generator;
      Spec.Gen = Cli.GenOpts;
      Spec.NumConfigs = uint32_t(Configs.size());
    } else {
      std::vector<LitmusTest> Tests;
      if (UseGen) {
        Tests = generateRandomTests(Cli.GenOpts);
      } else if (!buildCorpus(Cli.Corpus, Cli.SuiteLimit, Tests)) {
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
      Spec.Units =
          makeCampaignUnits(Tests, uint32_t(Configs.size()), /*Cross=*/true);
    }
    if (!Cli.JournalPath.empty()) {
      // Exists-check up front (cheap, before corpus work); the journal
      // itself is only created once the server has bound its port, so a
      // failed bind cannot orphan a header-only file that would block a
      // plain retry of the same command.
      std::ifstream Probe(Cli.JournalPath);
      if (Probe) {
        fprintf(stderr,
                "error: journal %s already exists; restart with "
                "--resume to continue it, or remove it\n",
                Cli.JournalPath.c_str());
        return 1;
      }
    }
  }

  // A journal header needs the spec intact, so only a journal-free
  // campaign moves the corpus into its source; a journaled one drops the
  // spec's copy once the header is written.
  bool CreateJournal = !Cli.JournalPath.empty() && !Cli.Resume;
  std::unique_ptr<UnitSource> Source =
      CreateJournal ? Spec.makeSource() : Spec.takeSource();
  uint64_t Hint = Source->sizeHint();
  std::optional<WorkServer> Server;
  if (Serve) {
    Server.emplace(std::move(Source), Configs, Cli.ServerOpts);
    Server->preloadResults(std::move(Replay));
    std::string Error = Server->start();
    if (!Error.empty()) {
      fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }
  if (CreateJournal) {
    std::string E = Journal.create(Cli.JournalPath, Spec, Configs);
    if (!E.empty()) {
      fprintf(stderr, "error: %s\n", E.c_str());
      return 1;
    }
    Spec.Units.clear();
    Spec.Units.shrink_to_fit();
  }
  JournalWriter *J = Journal.isOpen() ? &Journal : nullptr;

  CampaignReport Report;
  if (Serve) {
    Server->setJournal(J);
    const char *Upto =
        Spec.K == CampaignSourceSpec::Kind::Generator ? "up to " : "";
    if (SimOnly)
      printf("serving %s%llu simulation units on %s:%u (model %s)\n", Upto,
             static_cast<unsigned long long>(Hint),
             Cli.ServerOpts.BindAddress.c_str(), unsigned(Server->port()),
             Configs[0].Opts.SourceModel.c_str());
    else
      printf("serving %s%llu units on %s:%u (%s, model %s)\n", Upto,
             static_cast<unsigned long long>(Hint),
             Cli.ServerOpts.BindAddress.c_str(), unsigned(Server->port()),
             profileList(Configs).c_str(),
             Configs[0].Opts.SourceModel.c_str());
    fflush(stdout);
    Report = Server->run();
    printf("served: %.2f s, %llu requeues, %llu replayed, %llu deduped, "
           "%zu workers\n",
           Report.Seconds,
           static_cast<unsigned long long>(Report.Requeues),
           static_cast<unsigned long long>(Report.ReplayedResults),
           static_cast<unsigned long long>(Report.DedupedUnits),
           Report.Workers.size());
    if (!Cli.EngineJsonPath.empty() &&
        !writeJson(Cli.EngineJsonPath, campaignEngineJson(Report)))
      return 1;
  } else {
    // The same ledger the server's local feed keeps, drained over the
    // pool: a local campaign replays, dedupes, journals and counts
    // exactly like a served one.
    CampaignLedger Ledger(*Source, Cli.ServerOpts.Dedupe, Report);
    Ledger.setJournal(J);
    Ledger.preload(std::move(Replay));
    ThreadPool Pool(resolveJobs(Cli.Jobs));
    SourceMemoStats Memo;
    runLocalCampaign(Ledger, Configs, Pool, &Memo);
    if (Memo.Keys)
      printf("source memo: %llu source simulations for %llu units "
             "(%llu shared, at most %llu held)\n",
             static_cast<unsigned long long>(Memo.Simulations),
             static_cast<unsigned long long>(Memo.Keys),
             static_cast<unsigned long long>(Memo.Hits),
             static_cast<unsigned long long>(Memo.PeakEntries));
    if (Cli.Resume)
      printf("replayed: %llu results merged from the journal without "
             "re-execution\n",
             static_cast<unsigned long long>(Report.ReplayedResults));
    if (Cli.ServerOpts.Dedupe)
      printf("deduped: %llu of %zu units answered by canonical "
             "representatives\n",
             static_cast<unsigned long long>(Report.DedupedUnits),
             Report.Results.size());
  }
  if (Report.StaleReplays)
    fprintf(stderr,
            "warning: %llu journal results matched no unit of the "
            "campaign spec\n",
            static_cast<unsigned long long>(Report.StaleReplays));
  const std::vector<TelechatResult> &Results = Report.Results;
  const std::vector<CampaignUnitMeta> &Meta = Report.UnitsMeta;

  if (Results.empty()) {
    // Every materialised path refused an empty corpus up front; the
    // streamed paths only learn the size after draining. A zero-unit
    // campaign (--gen-count 0, or an exhausted attempt budget) reading
    // as "campaign passed" would hide a broken spec.
    fprintf(stderr, "error: the campaign produced no units\n");
    return 1;
  }
  if (!Cli.CampaignJsonPath.empty() &&
      !writeJson(Cli.CampaignJsonPath,
                 campaignResultsJson(Meta, Configs, Results)))
    return 1;
  int Exit = SimOnly ? summariseSim(Meta, Results)
                     : summarisePipeline(Meta, Configs, Results);
  if (!Report.Error.empty()) {
    // The merged results above are valid, but the run broke a promise
    // (journal stopped accepting appends, or the source misbehaved):
    // write the artefacts, then fail loudly -- an exit-0 campaign that
    // silently lost its durability would be worse than the fault.
    fprintf(stderr, "error: %s\n", Report.Error.c_str());
    return 1;
  }
  if (Cli.Compact) {
    // Only after a fault-free campaign: compacting a journal whose run
    // just broke would destroy the evidence a resume needs.
    Journal.close();
    ErrorOr<CompactStats> S = compactJournal(Cli.JournalPath);
    if (!S) {
      fprintf(stderr, "error: %s\n", S.error().c_str());
      return 1;
    }
    printf("compacted %s: %llu -> %llu bytes, %llu results\n",
           Cli.JournalPath.c_str(),
           static_cast<unsigned long long>(S->BytesBefore),
           static_cast<unsigned long long>(S->BytesAfter),
           static_cast<unsigned long long>(S->Results));
  }
  return Exit;
}
int telechat::relayToolMain(int argc, char **argv, void (*Usage)()) {
  RelayOptions Opts;
  if (int Rc = relayFlags(Opts).parse(argc, argv, 2, Usage))
    return Rc;
  Relay R(Opts);
  std::string Err = R.start();
  if (!Err.empty()) {
    fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  printf("relaying %s:%u on %s:%u\n", Opts.UpstreamHost.c_str(),
         unsigned(Opts.UpstreamPort), Opts.BindAddress.c_str(),
         unsigned(R.port()));
  fflush(stdout);
  RelayReport Report = R.run();
  printf("relayed: %.2f s, %llu units, %llu results forwarded, "
         "%llu requeues, %zu workers\n",
         Report.Seconds,
         static_cast<unsigned long long>(Report.UnitsRelayed),
         static_cast<unsigned long long>(Report.ResultsForwarded),
         static_cast<unsigned long long>(Report.Requeues),
         Report.Workers.size());
  if (!Report.Error.empty()) {
    fprintf(stderr, "error: %s\n", Report.Error.c_str());
    return 1;
  }
  return 0;
}

int telechat::workerToolMain(int argc, char **argv, void (*Usage)()) {
  std::string Host;
  uint16_t Port = 0;
  WorkerOptions Opts;
  if (int Rc = workerFlags(Host, Port, Opts).parse(argc, argv, 2, Usage))
    return Rc;
  ErrorOr<WorkerRunStats> Stats = runCampaignWorker(Host, Port, Opts);
  if (!Stats) {
    fprintf(stderr, "error: %s\n", Stats.error().c_str());
    return 1;
  }
  printf("worker done: %llu units in %llu batches (%s)\n",
         static_cast<unsigned long long>(Stats->UnitsCompleted),
         static_cast<unsigned long long>(Stats->Batches),
         Stats->CleanDone ? "campaign complete"
         : Stats->Killed  ? "killed by --max-units"
                          : "server disconnected");
  return 0;
}
