//===--- CampaignLedger.cpp - Merge, replay and dedupe, once -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/CampaignLedger.h"

#include "dist/Journal.h"
#include "dist/WorkServer.h"
#include "support/StringUtils.h"

#include <mutex>

using namespace telechat;

CampaignLedger::CampaignLedger(UnitSource &Source, bool Dedupe,
                               CampaignReport &Report)
    : Source(Source), Report(Report) {
  if (Dedupe)
    Canon.emplace();
}

void CampaignLedger::preload(
    std::vector<std::pair<uint64_t, TelechatResult>> R) {
  for (auto &[Id, Result] : R)
    Replay.emplace(Id, std::move(Result));
}

void CampaignLedger::fault(std::string Error) {
  if (Report.Error.empty())
    Report.Error = std::move(Error);
}

bool CampaignLedger::pull(CampaignUnit &Out) {
  CampaignUnit U;
  while (!Drained) {
    if (!Source.next(U)) {
      Drained = true;
      break;
    }
    uint64_t Id = Done.size();
    if (U.Id != Id) {
      // The merge (Results, the completion bitmaps, the echoed wire id)
      // indexes the stream position; a source breaking the contract
      // would scatter results into wrong slots. Abort the stream.
      Drained = true;
      fault(strFormat("unit source produced id %llu at stream position "
                      "%llu; a campaign requires id == position",
                      static_cast<unsigned long long>(U.Id),
                      static_cast<unsigned long long>(Id)));
      break;
    }
    Report.UnitsMeta.push_back(CampaignUnitMeta{U.Test.Name, U.Config});
    Report.Results.emplace_back();
    Done.push_back(false);
    // Replay runs before classification, so a duplicate whose renamed
    // result was journaled merges as a replay, never parked or run.
    auto R = Replay.find(Id);
    bool Replayed = R != Replay.end();
    if (Replayed) {
      TelechatResult Res = std::move(R->second);
      Replay.erase(R);
      ++Report.ReplayedResults;
      merge(Id, std::move(Res), /*Journaled=*/true);
    }
    if (Canon) {
      // Replayed units classify too: a replayed representative's result
      // answers later duplicates. Duplicates never represent.
      CanonRenaming Ren;
      uint64_t RepId = Canon->classify(U, Ren);
      if (RepId != Id) {
        if (Replayed)
          continue;
        ++Report.DedupedUnits;
        if (Done[RepId])
          merge(Id, renameTelechatResult(Report.Results[RepId], Ren),
                /*Journaled=*/false);
        else
          Parked[RepId].push_back(ParkedDup{Id, std::move(Ren)});
        continue;
      }
    }
    if (Replayed)
      continue;
    Out = std::move(U);
    return true;
  }
  return false;
}

void CampaignLedger::complete(uint64_t Id, TelechatResult R) {
  if (Id < Done.size() && !Done[Id])
    merge(Id, std::move(R), /*Journaled=*/false);
}

void CampaignLedger::merge(uint64_t Id, TelechatResult R, bool Journaled) {
  // Journal before merging: a result the journal never saw must not be
  // merged, or a crash right here would resume without it. Replayed
  // results are already on disk.
  if (!Journaled && Journal && Journal->isOpen() &&
      !Journal->appendResult(Id, R)) {
    Journal->close();
    fault(strFormat("journal append failed at unit %llu; journaling "
                    "disabled, results merged after it are not durable",
                    static_cast<unsigned long long>(Id)));
  }
  Report.Results[Id] = std::move(R);
  Done[Id] = true;
  ++Completed;
  auto P = Parked.find(Id);
  if (P == Parked.end())
    return;
  std::vector<ParkedDup> Dups = std::move(P->second);
  Parked.erase(P);
  // Synthesized results are journaled like executed ones, so a resume
  // replays them instead of parking them again.
  for (ParkedDup &D : Dups)
    merge(D.Id, renameTelechatResult(Report.Results[Id], D.Renaming),
          /*Journaled=*/false);
}

size_t CampaignLedger::parkedBehind(uint64_t Id) const {
  auto P = Parked.find(Id);
  return P == Parked.end() ? 0 : P->second.size();
}

void CampaignLedger::finish() {
  Report.Units = Done.size();
  // Replay entries the stream never produced (a journal replayed
  // against the wrong spec) are not merge keys: counted and dropped.
  Report.StaleReplays = Replay.size();
}

void telechat::runLocalCampaign(CampaignLedger &Ledger,
                                const std::vector<CampaignConfig> &Configs,
                                ThreadPool &Pool,
                                SourceMemoStats *MemoStats) {
  // The pool's lanes pull and complete concurrently; one mutex makes
  // them take turns at the ledger.
  struct LedgerSource final : UnitSource {
    CampaignLedger &L;
    std::mutex M;
    explicit LedgerSource(CampaignLedger &L) : L(L) {}
    bool next(CampaignUnit &Out) override {
      std::lock_guard<std::mutex> Lock(M);
      return L.pull(Out);
    }
  } Source(Ledger);
  runCampaignUnits(
      Source, Configs, Pool,
      [&Source](const CampaignUnit &U, TelechatResult R) {
        std::lock_guard<std::mutex> Lock(Source.M);
        Source.L.complete(U.Id, std::move(R));
      },
      MemoStats);
  Ledger.finish();
}
