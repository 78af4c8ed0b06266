//===--- Solver.cpp - Constraint-solver consistency engine ----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per path combo, each read is a decision variable whose domain is its
/// rf candidate list (as filtered by the shared per-combo engine), and
/// the search is a chronological-backtracking DFS:
///
///  - variables are assigned in *reverse* read-index order, candidates
///    in list order, so leaves are visited in exactly the sweep's
///    mixed-radix odometer order (RfChoice[0] least significant) and
///    collected executions stay byte-identical;
///  - two clause sources feed the nogood database: checks whose
///    symbolic inputs root in exactly two reads are compiled up front
///    against the candidates' known written values, and every check
///    violated during search *learns* its rf-chain support as a new
///    nogood, so the same dead region is never re-entered;
///  - a decision assigns the variable in the database (watched-literal
///    propagation removes newly-forbidden candidates elsewhere, or
///    conflicts), then re-checks the path constraints on the partial
///    assignment; surviving complete assignments run through the
///    shared fixpoint / coherence / Cat pipeline (runAssignment).
///
/// Every removal is implied by a nogood whose violation the
/// value-resolution fixpoint would also detect, so the leaves that
/// reach runAssignment are exactly the sweep's value-consistent
/// candidates and ValueConsistent / CoCandidates / AllowedExecutions /
/// outcomes / flags / executions all match. The budget is drawn per
/// decision (and per coherence candidate), not per swept index: on
/// constraint-dense tests the solver finishes spaces the sweep's
/// budget cannot touch, which is the point of the backend.
///
/// Parallelism shards by path combo (one combo = one shard = one
/// decision tree); the per-combo searches are independent and merge in
/// combo order, so completed runs are Jobs-invariant like the sweep.
///
//===----------------------------------------------------------------------===//

#include "solve/Solver.h"

#include "sim/EnumCore.h"
#include "sim/ShardScheduler.h"
#include "solve/Clauses.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace telechat;
using namespace telechat::simcore;
using namespace telechat::solve;

namespace {

/// One worker: the shared per-combo engine plus this backend's search
/// state. The database is re-initialised per combo; nothing is shared
/// across combos, which keeps per-combo decision counts deterministic
/// for any Jobs value.
class SolveWorker {
public:
  SolveWorker(const SimProgram &Program, const CatModel &Model,
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
      return; // Infeasible or empty-domain combo: nothing to search.
    size_t NR = W.Reads.size();
    W.RfChoice.assign(NR, ComboWorker::kNoChoice);
    if (NR == 0) {
      // The one-assignment combo; mirrors the sweep's single step.
      if (!W.budget())
        return;
      if (!W.violatedCheck(nullptr))
        W.runAssignment();
      return;
    }
    std::vector<unsigned> Sizes(NR);
    for (size_t RI = 0; RI != NR; ++RI)
      Sizes[RI] = unsigned(W.RfCand[RI].size());
    DB.init(Sizes);
    bool Feasible = true;
    if (W.Opts.RfValuePruning)
      Feasible = compilePairNogoods();
    if (Feasible)
      search();
    else
      ++W.WR.Stats.SolveConflicts; // Combo refuted at compile time.
    W.WR.Stats.SolveClauses += DB.added();
    W.WR.Stats.SolvePropagations += DB.propagations();
  }

private:
  NogoodDB DB;

  /// Compiles checks with exactly two symbolic root reads into binary
  /// nogoods over their candidate writes' known values. Evaluates the
  /// check exactly as violatedCheck would once both reads were
  /// assigned those candidates (same truncation, same transform
  /// application), so each nogood only forbids assignments the check
  /// would reject anyway. Candidates without a known written value are
  /// left to the runtime check; large candidate products are skipped
  /// (the quadratic compile would cost more than it saves).
  ///
  /// Returns false when some check is violated by *every* candidate
  /// pair: no assignment can satisfy the path, so the combo is
  /// refuted without a single decision. This is the solver's edge over
  /// the sweep on constraint-dense spaces -- the sweep pays one budget
  /// step per swept index of a dead combo, the solver proves the combo
  /// dead in one quadratic compile over two rf candidate lists.
  bool compilePairNogoods() {
    constexpr size_t kMaxPairProduct = 4096;
    for (size_t CI = 0; CI != W.PruneChecks.size(); ++CI) {
      const PruneCheck &PC = W.PruneChecks[CI];
      unsigned R1 = ~0u, R2 = ~0u;
      bool MoreRoots = false;
      for (const auto &[Reg, A] : PC.Regs) {
        if (A.K == AbsVal::Kind::Known)
          continue;
        if (R1 == ~0u || A.ReadEv == R1)
          R1 = A.ReadEv;
        else if (R2 == ~0u || A.ReadEv == R2)
          R2 = A.ReadEv;
        else {
          MoreRoots = true;
          break;
        }
      }
      if (MoreRoots || R2 == ~0u)
        continue; // Single-root checks were already rf-list-filtered.
      const EvInfo &E1 = W.Events[R1], &E2 = W.Events[R2];
      if (!E1.Op->Addr.isStatic() || !E2.Op->Addr.isStatic())
        continue;
      unsigned RI1 = W.ReadIndexOf[R1], RI2 = W.ReadIndexOf[R2];
      const std::vector<unsigned> &Cand1 = W.RfCand[RI1];
      const std::vector<unsigned> &Cand2 = W.RfCand[RI2];
      if (Cand1.size() * Cand2.size() > kMaxPairProduct)
        continue;
      std::vector<std::pair<unsigned, unsigned>> Violated;
      for (unsigned C1 = 0; C1 != Cand1.size(); ++C1) {
        const AbsVal &A1 = W.EvAbs[Cand1[C1]];
        if (A1.K != AbsVal::Kind::Known)
          continue;
        SimVal V1 = W.truncAt(E1.Loc, A1.V);
        for (unsigned C2 = 0; C2 != Cand2.size(); ++C2) {
          const AbsVal &A2 = W.EvAbs[Cand2[C2]];
          if (A2.K != AbsVal::Kind::Known)
            continue;
          SimVal V2 = W.truncAt(E2.Loc, A2.V);
          W.CheckRegs.resize(PC.Regs.size());
          for (size_t K = 0; K != PC.Regs.size(); ++K) {
            const AbsVal &A = PC.Regs[K].second;
            W.CheckRegs[K] = A.K == AbsVal::Kind::Known
                                 ? A.V
                                 : A.apply(A.ReadEv == R1 ? V1 : V2);
          }
          if (!W.checkSatisfied(CI))
            Violated.emplace_back(C1, C2);
        }
      }
      if (Violated.size() == Cand1.size() * Cand2.size())
        return false; // Every pair refutes the check: dead combo.
      for (const auto &[C1, C2] : Violated)
        DB.addNogood({{RI1, C1}, {RI2, C2}});
    }
    return true;
  }

  /// Chronological-backtracking DFS. Depth d decides read NR-1-d, so
  /// the deepest variable is RfChoice[0]: leaves appear in odometer
  /// order. Each decision draws one budget step, assigns through the
  /// database (propagation may conflict), then re-evaluates the path
  /// checks on the partial assignment, learning the violated check's
  /// support as a nogood before abandoning the subtree.
  void search() {
    const size_t NR = W.Reads.size();
    std::vector<unsigned> CandPos(NR, 0);
    size_t Depth = 0;
    ComboWorker::SupportVec Support;
    while (true) {
      if (W.shouldStop())
        return;
      unsigned Var = unsigned(NR - 1 - Depth);
      const unsigned NC = unsigned(W.RfCand[Var].size());
      unsigned C = CandPos[Depth];
      while (C < NC && !DB.candActive(Var, C))
        ++C;
      CandPos[Depth] = C;
      if (C >= NC) {
        if (Depth == 0)
          return; // Root exhausted: combo done.
        --Depth;
        DB.popLevel();
        W.RfChoice[NR - 1 - Depth] = ComboWorker::kNoChoice;
        ++CandPos[Depth];
        continue;
      }
      if (!W.budget())
        return;
      ++W.WR.Stats.SolveDecisions;
      DB.pushLevel();
      W.RfChoice[Var] = C;
      bool Ok = DB.assign(Var, C);
      if (Ok && W.violatedCheck(&Support)) {
        Ok = false;
        if (!Support.empty()) {
          std::vector<SolveLit> Lits;
          Lits.reserve(Support.size());
          for (const auto &[SV, SC] : Support)
            Lits.push_back({SV, SC});
          DB.addNogood(std::move(Lits));
        }
      }
      if (!Ok) {
        ++W.WR.Stats.SolveConflicts;
        DB.popLevel();
        W.RfChoice[Var] = ComboWorker::kNoChoice;
        ++CandPos[Depth];
        continue;
      }
      if (Depth + 1 == NR) {
        W.runAssignment(); // Complete: fixpoint + co + Cat.
        if (W.shouldStop())
          return;
        DB.popLevel();
        W.RfChoice[Var] = ComboWorker::kNoChoice;
        ++CandPos[Depth];
        continue;
      }
      ++Depth;
      CandPos[Depth] = 0;
    }
  }
};

} // namespace

SimResult telechat::solveExecutions(const SimProgram &Program,
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
  std::vector<std::unique_ptr<SolveWorker>> Workers;

  if (Jobs <= 1) {
    Workers.push_back(
        std::make_unique<SolveWorker>(Program, Model, Options, Shared));
    SolveWorker &SW = *Workers.front();
    for (uint64_t C = 0; C != ComboCount && !SW.W.shouldStop(); ++C)
      SW.processCombo(C, size_t(C));
  } else {
    for (unsigned J = 0; J != Jobs; ++J)
      Workers.push_back(
          std::make_unique<SolveWorker>(Program, Model, Options, Shared));
    // One combo = one shard: decision trees are independent, and unlike
    // the sweep a single combo's tree is not splittable mid-search, so
    // single-combo tests run sequentially even under -j (the solver's
    // parallelism is across combos and across campaign units).
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
  for (std::unique_ptr<SolveWorker> &SW : Workers)
    Merged.push_back(&SW->W);
  SimResult Result = mergeResults(Merged, Shared, Options);
  Result.Stats.BackendUsed = uint8_t(SimBackendKind::Solve);
  auto End = std::chrono::steady_clock::now();
  Result.Stats.Seconds =
      std::chrono::duration<double>(End - Shared.Start).count();
  return Result;
}
