//===--- Explorer.cpp - Dynamic scheduler-exploration oracle --------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per path combo, each iteration replays the combo's chosen paths
/// under one schedule of an instrumented cooperative scheduler:
///
///  - even iterations draw the next thread from a seeded PRNG with a
///    preemption bound (ExploreMaxContextSwitches): once the bound is
///    spent the current thread runs to completion -- the CHESS
///    observation that most weak-memory bugs hide in low-preemption
///    schedules;
///  - odd iterations are systematic round-robin with a rotating start
///    thread and a varying quantum, guaranteeing coverage of the
///    regular interleavings the PRNG may keep missing;
///  - a load's candidate sources are the stores of its (filtered) rf
///    candidate list that have already executed in this schedule,
///    narrowed by a per-atomic visibility history: each thread keeps a
///    per-location floor below which stores are no longer readable
///    (its own accesses advance it; acquire loads merge the floor
///    snapshot recorded by the release store they read), so relaxed
///    loads legally return stale values while coherence-impossible
///    ones are never offered. An empty candidate set blocks the
///    thread; a fully-blocked schedule aborts the iteration.
///
/// The complete rf assignment a schedule reaches is deduplicated
/// against the combo's already-tried set and validated through the
/// shared per-assignment pipeline (violatedCheck + runAssignment:
/// fixpoint, *exhaustive* coherence enumeration, Cat filtering).
/// Soundness is therefore by construction -- an outcome is reported
/// only if the same machinery the sweep runs on the same (combo,
/// assignment) reports it. Convergence on rc11-style (porf-acyclic)
/// models follows because every consistent execution has a topological
/// schedule in which each read's source was executed earlier, and the
/// history offers every coherence-legal stale store at that point.
///
/// Iteration i of combo c is a pure function of (ExploreSeed, c, i)
/// and one combo is one shard, so results merge Jobs-invariantly like
/// the other backends.
///
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"

#include "sim/EnumCore.h"
#include "sim/ShardScheduler.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <set>

using namespace telechat;
using namespace telechat::simcore;

namespace {

/// SplitMix64: tiny, statistically solid, and trivially seedable from
/// (seed, combo, iteration) so schedules never depend on run state.
struct SplitMix64 {
  uint64_t S;
  uint64_t next() {
    S += 0x9e3779b97f4a7c15ull;
    uint64_t Z = S;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Unbiased-enough bounded draw (N is tiny: threads, candidates).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

constexpr size_t kNoPos = ~size_t(0);
constexpr unsigned kNoLoc = ~0u;

/// Acquire-or-stronger read tags (C/C++ and AArch64 spellings). The
/// tags only tune the visibility heuristic -- misclassifying one keeps
/// results sound, it just shifts which schedules reach which
/// assignments.
bool hasAcqTag(const std::set<std::string> &Tags) {
  return Tags.count("ACQ") || Tags.count("ACQ_REL") || Tags.count("SC") ||
         Tags.count("A") || Tags.count("Q");
}
/// Release-or-stronger write tags.
bool hasRelTag(const std::set<std::string> &Tags) {
  return Tags.count("REL") || Tags.count("ACQ_REL") || Tags.count("SC") ||
         Tags.count("L");
}

/// One worker: the shared per-combo engine plus the scheduler state.
/// Everything below is re-initialised per combo (scaffold) or per
/// iteration (schedule state); nothing leaks across combos, keeping
/// per-combo iteration counts deterministic for any Jobs value.
class ExploreWorker {
public:
  ExploreWorker(const SimProgram &Program, const CatModel &Model,
                const SimOptions &Options, SharedState &Shared)
      : W(Program, Model, Options, Shared) {}

  ComboWorker W;

  void processCombo(uint64_t Combo, size_t Index) {
    if (W.shouldStop())
      return;
    W.CurShardIdx = Index;
    W.prepareCombo(Combo);
    W.CurCombo = Combo;
    W.bindComboEvaluator(Combo);
    W.accountCombo();
    if (W.RfSpace == 0)
      return; // Infeasible or empty-domain combo: nothing to explore.
    const size_t NR = W.Reads.size();
    W.RfChoice.assign(NR, ComboWorker::kNoChoice);
    if (NR == 0) {
      // The one-assignment combo; mirrors the sweep's single step and
      // counts as one (trivially complete) schedule so read-free units
      // still report nonzero exploration coverage.
      if (!W.budget())
        return;
      ++W.WR.Stats.ExploreIterations;
      ++W.WR.Stats.ExploreSchedules;
      if (!W.violatedCheck(nullptr))
        W.runAssignment();
      return;
    }
    buildScaffold();
    Tried.clear();
    for (uint64_t It = 0; It != W.Opts.ExploreIterations; ++It) {
      if (W.shouldStop() || !W.budget())
        break;
      ++W.WR.Stats.ExploreIterations;
      if (runSchedule(Combo, It) && Tried.insert(W.RfChoice).second) {
        ++W.WR.Stats.ExploreSchedules;
        if (W.violatedCheck(nullptr))
          ++W.WR.Stats.RfPruned;
        else
          W.runAssignment();
        if (W.shouldStop())
          break;
        // Every assignment of the (filtered) space has been reached:
        // further schedules cannot add outcomes. This is what makes
        // the default budget *equal* to the sweep on small spaces.
        if (uint64_t(Tried.size()) == W.RfSpace)
          break;
      }
      W.RfChoice.assign(NR, ComboWorker::kNoChoice);
    }
  }

private:
  /// rf assignments already validated this combo (schedules routinely
  /// rediscover each other's choices; validation is the pricey part).
  std::set<std::vector<size_t>> Tried;

  // --- Per-combo scaffold (schedule-invariant). ---
  /// The worker's location index -> this combo's dense index, numbered
  /// in first-seen order; dynamic addresses get kNoLoc.
  std::vector<unsigned> LocRemap;
  unsigned NumLocs = 0;
  std::vector<unsigned> EvLoc;   ///< Event id -> location index.
  std::vector<bool> EvAcq;       ///< Read events: acquire-or-stronger.
  std::vector<bool> EvRel;       ///< Write events: release-or-stronger.

  // --- Per-iteration schedule state. ---
  std::vector<size_t> Cursor;     ///< Per thread: next OpEvents entry.
  std::vector<bool> Executed;     ///< Event id -> ran in this schedule.
  std::vector<size_t> HistPos;    ///< Event id -> position in loc history.
  std::vector<size_t> HistLen;    ///< Location -> stores appended so far.
  std::vector<std::vector<size_t>> Floors; ///< Thread x loc -> min pos.
  /// Release store event -> the writer's floor snapshot at the store;
  /// merged into the floors of every acquire load that reads it.
  std::map<unsigned, std::vector<size_t>> RelSnap;

  unsigned locOf(const EvInfo &E) const {
    return E.Loc == kNoLoc ? kNoLoc : LocRemap[E.Loc];
  }

  void buildScaffold() {
    // EvInfo::Loc is set exactly for init writes and static accesses.
    LocRemap.assign(W.LocNames.size(), kNoLoc);
    NumLocs = 0;
    for (const EvInfo &E : W.Events)
      if (E.Loc != kNoLoc && LocRemap[E.Loc] == kNoLoc)
        LocRemap[E.Loc] = NumLocs++;
    const size_t N = W.Events.size();
    EvLoc.assign(N, kNoLoc);
    EvAcq.assign(N, false);
    EvRel.assign(N, false);
    for (size_t I = 0; I != N; ++I) {
      const EvInfo &E = W.Events[I];
      if (E.Kind != EventKind::Fence)
        EvLoc[I] = locOf(E);
      if (E.IsInit)
        continue;
      if (E.Kind == EventKind::Read)
        EvAcq[I] = hasAcqTag(E.Op->Tags);
      else if (E.Kind == EventKind::Write)
        EvRel[I] = hasRelTag(E.Op->WTags);
    }
  }

  /// Executes one schedule; true when every thread ran to completion
  /// (W.RfChoice is then complete), false when the schedule deadlocked
  /// on loads with no visible source.
  bool runSchedule(uint64_t Combo, uint64_t It) {
    const size_t NT = W.OpEvents.size();
    // --- Reset per-iteration state. ---
    Cursor.assign(NT, 0);
    const size_t N = W.Events.size();
    Executed.assign(N, false);
    HistPos.assign(N, kNoPos);
    HistLen.assign(NumLocs, 0);
    // Init writes are position 0 of their location's history and are
    // visible to everyone from the start.
    for (size_t I = 0; I != N; ++I)
      if (W.Events[I].IsInit) {
        Executed[I] = true;
        if (EvLoc[I] != kNoLoc) {
          HistPos[I] = 0;
          HistLen[EvLoc[I]] = 1;
        }
      }
    Floors.assign(NT, std::vector<size_t>(NumLocs, 0));
    RelSnap.clear();

    SplitMix64 Rng{mix64(W.Opts.ExploreSeed ^ mix64(Combo + 1) ^
                         mix64(It * 0x2545f4914f6cdd1dull + 17))};
    const bool RoundRobin = (It & 1) != 0;
    unsigned Prev = ~0u; // Last thread that executed a step.
    unsigned SwitchesLeft = W.Opts.ExploreMaxContextSwitches;
    unsigned RR = RoundRobin ? unsigned((It / 2) % (NT ? NT : 1)) : 0;
    unsigned Quantum = RoundRobin ? unsigned(1 + (It / 2) % 4) : 0;
    unsigned QuantumLeft = Quantum;

    size_t Remaining = 0;
    for (size_t T = 0; T != NT; ++T)
      Remaining += W.OpEvents[T].size() > 0;

    while (Remaining != 0) {
      // --- Pick the preferred thread for this step. ---
      unsigned Preferred;
      if (RoundRobin) {
        if (QuantumLeft == 0 || Cursor[RR] == W.OpEvents[RR].size()) {
          // Quantum spent or thread done: next live thread, fresh
          // quantum. Remaining != 0 guarantees termination.
          do
            RR = unsigned((RR + 1) % NT);
          while (Cursor[RR] == W.OpEvents[RR].size());
          QuantumLeft = Quantum;
        }
        Preferred = RR;
        --QuantumLeft;
      } else if (Prev != ~0u && Cursor[Prev] != W.OpEvents[Prev].size() &&
                 SwitchesLeft == 0) {
        Preferred = Prev; // Preemption budget spent: run to completion.
      } else {
        // Draw among live threads; switching away from a live previous
        // thread costs one preemption.
        size_t NL = 0;
        for (unsigned T = 0; T != NT; ++T)
          NL += Cursor[T] != W.OpEvents[T].size();
        uint64_t Pick = Rng.below(NL);
        Preferred = 0;
        for (unsigned T = 0; T != NT; ++T)
          if (Cursor[T] != W.OpEvents[T].size() && Pick-- == 0) {
            Preferred = T;
            break;
          }
        if (Prev != ~0u && Preferred != Prev &&
            Cursor[Prev] != W.OpEvents[Prev].size() && SwitchesLeft != 0)
          --SwitchesLeft;
      }
      // --- Execute the first executable thread from the preferred one
      // (a blocked preference falls through without charging the
      // preemption bound: being forced off a blocked thread is not a
      // preemption). ---
      bool Ran = false;
      for (unsigned K = 0; K != NT; ++K) {
        unsigned T = unsigned((Preferred + K) % NT);
        if (Cursor[T] == W.OpEvents[T].size())
          continue;
        if (step(T, Rng)) {
          if (Cursor[T] == W.OpEvents[T].size())
            --Remaining;
          Prev = T;
          Ran = true;
          break;
        }
      }
      if (!Ran)
        return false; // Every live thread is blocked on a load: stuck.
    }
    return true;
  }

  /// Executes thread \p T's next event (an Rmw's read+write execute as
  /// one atomic step). False when the event is a load with no visible
  /// source under the current history -- the thread stays blocked.
  bool step(unsigned T, SplitMix64 &Rng) {
    const auto &[OpIdx, Ev] = W.OpEvents[T][Cursor[T]];
    const EvInfo &E = W.Events[Ev];
    if (E.Kind == EventKind::Fence) {
      // Fences order surrounding accesses in the *model*; the history
      // tracks only per-atomic visibility, so execution just advances.
      ++Cursor[T];
      return true;
    }
    if (E.Kind == EventKind::Write) {
      executeWrite(T, Ev);
      ++Cursor[T];
      return true;
    }
    // A load (or the read half of an Rmw).
    const unsigned RI = W.ReadIndexOf[Ev];
    const std::vector<unsigned> &Cand = W.RfCand[RI];
    const unsigned L = EvLoc[Ev];
    std::vector<unsigned> Visible; // Indexes into Cand.
    Visible.reserve(Cand.size());
    for (unsigned CI = 0; CI != Cand.size(); ++CI) {
      const unsigned Src = Cand[CI];
      if (!Executed[Src])
        continue; // Not written yet in this schedule (incl. po-later).
      if (L != kNoLoc && EvLoc[Src] == L && HistPos[Src] != kNoPos &&
          HistPos[Src] < Floors[T][L])
        continue; // Overwritten below this thread's visibility floor.
      Visible.push_back(CI);
    }
    if (Visible.empty())
      return false; // Blocked: other threads must store first.
    const unsigned CI = Visible[size_t(Rng.below(Visible.size()))];
    W.RfChoice[RI] = CI;
    const unsigned Src = Cand[CI];
    if (L != kNoLoc && EvLoc[Src] == L && HistPos[Src] != kNoPos)
      Floors[T][L] = std::max(Floors[T][L], HistPos[Src]);
    if (EvAcq[Ev]) {
      auto Snap = RelSnap.find(Src);
      if (Snap != RelSnap.end())
        for (unsigned LI = 0; LI != NumLocs; ++LI)
          Floors[T][LI] = std::max(Floors[T][LI], Snap->second[LI]);
    }
    ++Cursor[T];
    // The write half of an Rmw executes atomically with its read.
    if (Cursor[T] != W.OpEvents[T].size()) {
      const auto &[NextOp, NextEv] = W.OpEvents[T][Cursor[T]];
      if (NextOp == OpIdx && W.Events[NextEv].Kind == EventKind::Write) {
        executeWrite(T, NextEv);
        ++Cursor[T];
      }
    }
    return true;
  }

  void executeWrite(unsigned T, unsigned Ev) {
    Executed[Ev] = true;
    const unsigned L = EvLoc[Ev];
    if (L != kNoLoc) {
      HistPos[Ev] = HistLen[L]++;
      Floors[T][L] = HistPos[Ev]; // Own store: no older reads after it.
    }
    if (EvRel[Ev])
      RelSnap.emplace(Ev, Floors[T]);
  }
};

} // namespace

SimResult telechat::exploreExecutions(const SimProgram &Program,
                                      const CatModel &Model,
                                      const SimOptions &Options) {
  SharedState Shared;
  Shared.MaxSteps = Options.MaxSteps;
  Shared.TimeoutSeconds = Options.TimeoutSeconds;
  Shared.Start = std::chrono::steady_clock::now();

  uint64_t ComboCount = 1;
  for (const SimThread &T : Program.Threads)
    ComboCount = satMul(ComboCount, T.Paths.size());

  unsigned Jobs = resolveJobs(Options.Jobs);
  std::vector<std::unique_ptr<ExploreWorker>> Workers;

  if (Jobs <= 1) {
    Workers.push_back(
        std::make_unique<ExploreWorker>(Program, Model, Options, Shared));
    ExploreWorker &EW = *Workers.front();
    for (uint64_t C = 0; C != ComboCount && !EW.W.shouldStop(); ++C)
      EW.processCombo(C, size_t(C));
  } else {
    for (unsigned J = 0; J != Jobs; ++J)
      Workers.push_back(
          std::make_unique<ExploreWorker>(Program, Model, Options, Shared));
    // One combo = one shard: iteration i of combo c is self-contained,
    // so per-combo work is deterministic and the merged outcome set is
    // a Jobs-invariant union, like the solver's decision trees.
    constexpr uint64_t kWaveCombos = 1 << 18;
    uint64_t Next = 0;
    while (Next < ComboCount && !Shared.stopped()) {
      uint64_t End =
          Next + std::min<uint64_t>(kWaveCombos, ComboCount - Next);
      ShardScheduler::run(
          size_t(End - Next), Jobs,
          [&](unsigned Wk, size_t I) {
            Workers[Wk]->processCombo(Next + I, size_t(Next + I));
          },
          [&] { return Shared.stopped(); });
      Next = End;
    }
  }

  std::vector<ComboWorker *> Merged;
  Merged.reserve(Workers.size());
  for (std::unique_ptr<ExploreWorker> &EW : Workers)
    Merged.push_back(&EW->W);
  SimResult Result = mergeResults(Merged, Shared, Options);
  Result.Stats.BackendUsed = uint8_t(SimBackendKind::Explore);
  // Stamped post-merge: the coverage summary subset-mode consumers read
  // without walking the outcome set.
  Result.Stats.ExploreOutcomesFound = Result.Allowed.size();
  auto End = std::chrono::steady_clock::now();
  Result.Stats.Seconds =
      std::chrono::duration<double>(End - Shared.Start).count();
  return Result;
}
