//===--- Campaign.h - Campaign units and the shared unit queue --*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign abstraction underneath every batch driver, local or
/// distributed: a corpus of *units* (litmus test x model/compiler
/// config), a pull-based *unit source* feeding a pool of executor
/// threads, and a result sink keyed by the unit id. The id is the unit's
/// corpus index, so any consumer -- runTelechatMany's slot vector, the
/// campaign ledger that both campaign drivers merge through
/// (dist/CampaignLedger.h) -- reassembles results in corpus order and a
/// campaign's merged report is bit-identical no matter how the units
/// were scheduled, how many pool workers ran them, or which machine
/// executed which unit. Canonical classification (CanonClassTable)
/// lives here too, shared by the ledger and DedupingUnitSource.
///
/// Unit execution always runs the per-test simulations with Sim.Jobs=1:
/// campaign throughput wants the parallelism *across* units (the
/// existing contract of the batch drivers), and a distributed worker
/// keeps all its cores busy by pulling enough units instead.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_CORE_CAMPAIGN_H
#define TELECHAT_CORE_CAMPAIGN_H

#include "core/Telechat.h"
#include "diy/Generator.h"
#include "litmus/Canon.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace telechat {

/// One model/compiler configuration of a campaign. Units reference
/// configs by index, so a corpus crossing N tests with M configs ships
/// every config once, not once per unit.
struct CampaignConfig {
  Profile P;
  TestOptions Opts;
  /// litmus-sim-style campaigns: simulate the source test under
  /// Opts.SourceModel only, skipping compilation, target simulation and
  /// mcompare (the result's SourceSim is the only populated stage).
  bool SimulateOnly = false;
};

/// One schedulable unit of campaign work.
struct CampaignUnit {
  uint64_t Id = 0;     ///< Corpus index: the deterministic merge key.
  uint32_t Config = 0; ///< Index into the campaign's config table.
  LitmusTest Test;
};

/// The slice of a unit that reports need after its body is gone: a
/// streamed campaign drops test bodies once executed, but summaries and
/// the results JSON still name every unit in corpus order.
struct CampaignUnitMeta {
  std::string TestName;
  uint32_t Config = 0;
};

/// Pull-based source of units. next() is called concurrently from
/// executor threads and must be thread-safe. Sources hand out units in
/// id order with Id equal to the unit's position in the stream -- the
/// invariant every merge (local slot vectors, the work server, the
/// campaign journal) keys on.
class UnitSource {
public:
  virtual ~UnitSource() = default;
  /// Fills \p Out with the next unit; false when the source is drained.
  virtual bool next(CampaignUnit &Out) = 0;
  /// Expected corpus size when the source knows it up front: exact for a
  /// fixed corpus, the planned upper bound for a generator, 0 = unknown.
  /// Advisory only (HelloAck totals, progress lines); the stream itself
  /// decides when the campaign ends.
  virtual uint64_t sizeHint() const { return 0; }
};

/// A fixed corpus: hands out units front to back.
class VectorUnitSource final : public UnitSource {
public:
  explicit VectorUnitSource(std::vector<CampaignUnit> Units)
      : Units(std::move(Units)) {}
  bool next(CampaignUnit &Out) override {
    size_t I = Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= Units.size())
      return false;
    Out = Units[I];
    return true;
  }
  uint64_t sizeHint() const override { return Units.size(); }

private:
  std::vector<CampaignUnit> Units;
  std::atomic<size_t> Next{0};
};

/// Streams the cross of seeded diy generation with the config table:
/// test t under config c gets id t*NumConfigs + c, exactly the ids
/// makeCampaignUnits(generateRandomTests(Opts), NumConfigs, true) would
/// assign -- so a streamed campaign merges bit-identically to the same
/// campaign over a pre-materialised corpus, and the corpus never exists
/// in memory as a whole. next() is thread-safe (one cursor guards the
/// single generator stream); ids are fixed by generation order, so the
/// merge does not depend on which caller pulled first.
class GeneratorUnitSource final : public UnitSource {
public:
  GeneratorUnitSource(const RandomGenOptions &Opts, uint32_t NumConfigs);
  bool next(CampaignUnit &Out) override;
  /// Planned upper bound: Count tests x NumConfigs (the generator may
  /// stop short when its attempt budget runs out).
  uint64_t sizeHint() const override;
  /// Units emitted so far: the final corpus size once next() has
  /// returned false.
  uint64_t produced() const;

private:
  mutable std::mutex M;
  RandomTestStream Stream;
  uint32_t NumConfigs;
  LitmusTest Cur;       ///< Test currently being crossed with configs.
  bool HaveCur = false;
  uint32_t NextConfig = 0;
  uint64_t Emitted = 0;
  uint64_t Planned;
};

/// The canonical classes of a unit stream (litmus/Canon.h), per config:
/// the first unit of each (config, canonical shape) represents its
/// class, and every later unit of the class is a duplicate whose result
/// is the representative's, renamed. The one definition of "duplicate"
/// that DedupingUnitSource and the campaign ledger
/// (dist/CampaignLedger.h) share. Not thread-safe.
class CanonClassTable {
public:
  /// Classifies \p U (units arrive in id order). Returns U.Id when \p U
  /// opens a class; otherwise its representative's (smaller) id, with
  /// \p Ren set to translate the representative's names into U's.
  uint64_t classify(const CampaignUnit &U, CanonRenaming &Ren);

private:
  /// (config, canon key, canon text) -> representative unit id. The
  /// canonical text rides along so a key collision splits classes
  /// instead of merging strangers.
  std::map<std::tuple<uint32_t, uint64_t, uint64_t, std::string>, uint64_t>
      Reps;
  std::map<uint64_t, CanonResult> RepCanon; ///< For composeRenaming.
};

/// Wraps a source and serves only one unit per canonical class
/// (CanonClassTable): a duplicate is *not* handed out; it is recorded
/// instead, with the renaming that translates the representative's
/// outcomes into its vocabulary. Ids pass through unchanged (the
/// skipped ids simply never appear), so this wrapper fits drivers that
/// key results by id. Campaigns dedupe through the ledger instead, which
/// also journals and counts (dist/CampaignLedger.h).
///
/// After the wrapped stream is drained, fill each duplicate's slot from
/// its representative:
///   Results[D.Id] = renameTelechatResult(Results[D.RepId], D.Renaming);
class DedupingUnitSource final : public UnitSource {
public:
  /// One unit answered by an earlier representative.
  struct Dup {
    uint64_t Id = 0;
    uint64_t RepId = 0;          ///< Always < Id (stream order).
    CanonRenaming Renaming;      ///< Rep's names -> this unit's names.
    CampaignUnitMeta Meta;       ///< The duplicate's own name/config.
  };

  explicit DedupingUnitSource(UnitSource &Inner) : Inner(Inner) {}
  /// Serves the next non-duplicate unit. Thread-safe; canonicalization
  /// runs under the lock (cheap next to simulating the unit).
  bool next(CampaignUnit &Out) override;
  uint64_t sizeHint() const override { return Inner.sizeHint(); }
  /// The duplicates recorded so far, in stream order. Stable only once
  /// the stream is drained (every lane's next() returned false).
  const std::vector<Dup> &duplicates() const { return Dups; }

private:
  std::mutex M;
  UnitSource &Inner;
  CanonClassTable Classes;
  std::vector<Dup> Dups;
};

/// Translates a representative's campaign result into a duplicate's
/// vocabulary: outcome sets and compare witnesses are renamed through
/// \p Ren (and re-sorted -- renaming permutes set order); errors, flags,
/// verdict kind, timeout bits and stats are copied verbatim. Covers
/// exactly the result slice reports and the wire carry (Error, OptStats,
/// SourceSim, TargetSim, Compare).
TelechatResult renameTelechatResult(const TelechatResult &Rep,
                                    const CanonRenaming &Ren);

/// Builds the corpus for one config: unit ids are the test indices.
std::vector<CampaignUnit> makeCampaignUnits(
    const std::vector<LitmusTest> &Tests, uint32_t Config = 0);

/// Crosses tests with every config index in [0, NumConfigs): ids run
/// test-major (test 0 under every config, then test 1, ...).
std::vector<CampaignUnit> makeCampaignUnits(
    const std::vector<LitmusTest> &Tests, uint32_t NumConfigs, bool Cross);

/// The report slice of a materialised corpus, in corpus order.
std::vector<CampaignUnitMeta>
campaignUnitMeta(const std::vector<CampaignUnit> &Units);

/// Executes one unit under its config. An out-of-range config index
/// yields a result whose Error says so (never aborts: a malformed remote
/// corpus must not kill a worker). Forces Sim.Jobs=1; see the file
/// comment. Never shares a source simulation: this is the reference
/// that runCampaignUnits' memoised executor must reproduce.
TelechatResult runCampaignUnit(const CampaignUnit &U,
                               const std::vector<CampaignConfig> &Configs);

/// What the source memo of one runCampaignUnits call did. All zero when
/// no two configs share a source key (the memo was never built).
struct SourceMemoStats {
  uint64_t Keys = 0;        ///< Units that built their source key.
  uint64_t Simulations = 0; ///< Source simulations those units ran.
  uint64_t Hits = 0;        ///< Units answered by another's simulation.
  uint64_t PeakEntries = 0; ///< Most entries held at once.
  /// Entries still held when the units ran out: keys some of whose
  /// units never reached a lane (deduped, replayed, or leased to
  /// another worker).
  uint64_t LeftEntries = 0;
};

/// Fig. 5 step 3, shared across the units of one runCampaignUnits call.
/// A unit's source result depends only on the test it simulates (after
/// l2c), the source model and the source-side SimOptions -- never on the
/// profile -- so a campaign of N tests x M profiles needs N source
/// simulations, not N x M.
///
/// Configs alike in that source side (model, options after the explore
/// reroute, and whether l2c augments) form a class. Within a class the
/// key is the full printLitmusC text of the simulated test: exact, so a
/// hit needs no renaming (canonical duplicates are --dedupe's business,
/// and canonicalizeTest, which tries every thread permutation, costs
/// more than printing). Configs alone in their class never touch the
/// memo, and a table with no shared class builds none.
///
/// Each entry is simulated once: a unit that finds its key being
/// simulated by another lane waits for that result. An entry starts
/// with the size of its class and every unit releases one count when it
/// starts (so a unit whose compile fails still releases); at zero the
/// entry leaves the table. No LRU is needed: at most one entry per
/// distinct test and class is ever held. A hit copies the SourceSim verbatim, all
/// SimStats included, except Stats.Seconds, which is the time the unit
/// itself spent. A run that timed out under a wall-clock TimeoutSeconds
/// is not deterministic and is never shared.
class SourceMemo {
public:
  explicit SourceMemo(const std::vector<CampaignConfig> &Configs);
  /// Whether any two configs share a class.
  bool shared() const { return Shared; }
  static constexpr uint32_t Alone = UINT32_MAX;
  /// The class of \p Config (a valid index), or Alone.
  uint32_t classOf(uint32_t Config) const { return ClassOf[Config]; }
  SourceMemoStats stats() const;

private:
  friend class SourceMemoTicket;
  struct Entry;
  struct Class {
    uint32_t Size = 0;      ///< Configs in the class.
    bool WallClock = false; ///< Its options set a TimeoutSeconds.
    /// Simulated test text -> entry.
    std::unordered_map<std::string, std::shared_ptr<Entry>> Entries;
  };

  std::vector<uint32_t> ClassOf; ///< Config -> class, or Alone.
  bool Shared = false;
  /// Guards the entry tables, every entry's state, Stats and Live.
  mutable std::mutex M;
  std::vector<Class> Classes;    ///< One per distinct source side.
  SourceMemoStats Stats;
  uint64_t Live = 0;
};

/// One unit's claim on a SourceMemo entry: start() when the simulated
/// test is known, then simulate() at step 3.
class SourceMemoTicket {
public:
  SourceMemoTicket(SourceMemo &Memo, uint32_t Class)
      : Memo(Memo), Class(Class) {}
  /// Builds the key of \p Simulated and releases this unit's count.
  void start(const LitmusTest &Simulated);
  /// The entry's result, or \p Compute's when this unit is the first to
  /// need it (it is then shared, unless a wall-clock timeout cut it).
  SimResult simulate(const std::function<SimResult()> &Compute);

private:
  SourceMemo &Memo;
  uint32_t Class;
  std::shared_ptr<SourceMemo::Entry> E;
};

/// Drains \p Source over the pool: every executor lane loops
/// next/execute/Done until the source is empty. \p Done is invoked from
/// pool threads (possibly concurrently) exactly once per unit. Units
/// whose configs share a source key share one source simulation through
/// a SourceMemo that lives for this call; results are identical to
/// runCampaignUnit's except for Seconds. \p MemoStats, when given,
/// receives what the memo did.
void runCampaignUnits(
    UnitSource &Source, const std::vector<CampaignConfig> &Configs,
    ThreadPool &Pool,
    const std::function<void(const CampaignUnit &, TelechatResult)> &Done,
    SourceMemoStats *MemoStats = nullptr);

/// Reads a corpus file: one or more C litmus tests, each starting at a
/// line beginning with "C <name>" (diy-gen --suite output concatenates
/// exactly such chunks; a single-test file is the one-chunk case).
ErrorOr<std::vector<LitmusTest>> readLitmusCorpus(const std::string &Path);

/// Writes \p Contents to \p Path verbatim (campaign/engine JSON
/// artefacts). False with the OS unable to open the file.
bool writeTextFile(const std::string &Path, const std::string &Contents);

} // namespace telechat

#endif // TELECHAT_CORE_CAMPAIGN_H
