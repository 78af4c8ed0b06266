//===--- CampaignLedger.h - Merge, replay and dedupe, once ------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign policy both drivers share, written once: the local
/// campaign (runLocalCampaign, `telechat --campaign`) and the work
/// server's local feed (WorkServer.h, `--serve`) each pull units off a
/// ledger and hand it results, so a campaign merges, replays, dedupes
/// and counts the same way however it runs. The ledger owns
///
///  - the merge: Results/UnitsMeta in corpus order, keyed by the unit id,
///    which must equal the unit's stream position;
///  - journal replay: a unit whose result the journal already holds
///    merges without running; replay entries no unit claims are stale;
///  - canonical dedupe (--dedupe): one representative runs per
///    canonical class (CanonClassTable, core/Campaign.h); each duplicate
///    is parked until its representative completes and then merges the
///    representative's result renamed into its own names;
///  - journal-before-merge: every result that was not replayed is
///    appended to the journal and flushed before it merges; a journal
///    that stops accepting appends is closed and the fault recorded;
///  - the counts: ReplayedResults (journaled duplicates included),
///    DedupedUnits (duplicates answered by renaming this run) and
///    StaleReplays.
///
/// A resumed campaign therefore reports the same counts, and the same
/// campaign JSON bytes, locally and served.
///
/// Threading: a ledger is single-threaded. The work server calls it
/// from its poll loop; the local driver serialises pull() and
/// complete() behind one mutex.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_CAMPAIGNLEDGER_H
#define TELECHAT_DIST_CAMPAIGNLEDGER_H

#include "core/Campaign.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace telechat {

struct CampaignReport;
class JournalWriter;

class CampaignLedger {
public:
  /// Merges the units of \p Source into \p Report (its Results,
  /// UnitsMeta, counts and Error). Both must outlive the ledger.
  CampaignLedger(UnitSource &Source, bool Dedupe, CampaignReport &Report);

  /// Appends every result that was not replayed to \p J (open, and
  /// outliving the ledger) before it merges.
  void setJournal(JournalWriter *J) { Journal = J; }
  /// Seeds results replayed from a journal; the first occurrence of an
  /// id wins.
  void preload(std::vector<std::pair<uint64_t, TelechatResult>> R);

  /// The next unit that must execute. Units the journal answers, and
  /// duplicates, are merged or parked on the way. False once the source
  /// is drained or broke the id == position contract (Report.Error).
  bool pull(CampaignUnit &Out);
  /// Merges the result of a unit pull() handed out (journaled first),
  /// then the duplicates parked behind it. A second result for the
  /// same unit is dropped: the first wins.
  void complete(uint64_t Id, TelechatResult R);

  /// Units pulled off the source so far: ids [0, generated()).
  uint64_t generated() const { return Done.size(); }
  uint64_t completed() const { return Completed; }
  /// The source has no more units (or broke its contract).
  bool drained() const { return Drained; }
  /// The source is drained and every unit has a result.
  bool done() const { return Drained && Completed == Done.size(); }
  /// Duplicates parked behind representative \p Id.
  size_t parkedBehind(uint64_t Id) const;
  /// Stamps Units and StaleReplays once the campaign is over.
  void finish();

private:
  /// A duplicate waiting for its representative's result.
  struct ParkedDup {
    uint64_t Id;
    CanonRenaming Renaming; ///< The representative's names -> the dup's.
  };

  void merge(uint64_t Id, TelechatResult R, bool Journaled);
  void fault(std::string Error);

  UnitSource &Source;
  CampaignReport &Report;
  JournalWriter *Journal = nullptr;
  std::optional<CanonClassTable> Canon; ///< Set under --dedupe.
  /// Journaled results whose units have not been pulled yet.
  std::map<uint64_t, TelechatResult> Replay;
  /// Representative id -> duplicates to synthesize when it completes.
  std::map<uint64_t, std::vector<ParkedDup>> Parked;
  std::vector<bool> Done; ///< Per pulled unit: has a merged result.
  uint64_t Completed = 0;
  bool Drained = false;
};

/// Drains \p Ledger over \p Pool: the in-process campaign driver (the
/// work server's local twin), then finish(). \p MemoStats, when given,
/// receives what runCampaignUnits' source memo did.
void runLocalCampaign(CampaignLedger &Ledger,
                      const std::vector<CampaignConfig> &Configs,
                      ThreadPool &Pool, SourceMemoStats *MemoStats = nullptr);

} // namespace telechat

#endif // TELECHAT_DIST_CAMPAIGNLEDGER_H
