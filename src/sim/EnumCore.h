//===--- EnumCore.h - Shared per-combo enumeration machinery ----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machinery both consistency backends share, factored out of the
/// sweep enumerator so the constraint solver (src/solve/) is an
/// alternative *driver* over the same per-combo engine rather than a
/// second implementation of the semantics:
///
///  - ComboWorker owns everything below the backend's search strategy:
///    skeleton construction, rf candidate lists, the abstract value
///    pass and its prune checks, the value-resolution fixpoint,
///    coherence enumeration and Cat filtering, stats and collection.
///    The sweep iterates its rf index space (processShard/runRfRange);
///    the solver drives a decision tree over the same candidate lists
///    and calls runAssignment() per surviving leaf. Because both visit
///    complete assignments in mixed-radix odometer order, completed
///    runs are byte-identical across backends.
///
///  - SharedState is the run-wide atomic step budget and stop flags;
///    WorkerResult / mergeResults reassemble per-shard results in
///    enumeration order (the solver treats each path combo as one
///    shard).
///
/// This header is an internal seam between src/sim/ and src/solve/,
/// not public API: everything is deliberately open (public members) and
/// may change shape between the backends' needs. External callers use
/// sim/Backend.h.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_ENUMCORE_H
#define TELECHAT_SIM_ENUMCORE_H

#include "sim/AbsDomain.h"
#include "sim/Enumerator.h"
#include "support/Interner.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace telechat {
namespace simcore {

/// "No location": an event whose location is unknown or unresolved.
constexpr unsigned kNoLoc = ~0u;
/// "No register" / "no expression" in an OpPlan.
constexpr unsigned kNoReg = ~0u;

/// Per-event mutable state during value resolution.
struct EvState {
  SimVal Val;             ///< Value written (W) or read (R).
  unsigned Loc = kNoLoc;  ///< Resolved location index (ComboWorker::LocNames).

  bool operator==(const EvState &RHS) const {
    return Loc == RHS.Loc && Val == RHS.Val;
  }
};

/// Static (per path-combo) description of one event.
struct EvInfo {
  unsigned Thread = 0;
  unsigned OpIndex = 0; ///< Index into the owning thread's op list.
  EventKind Kind = EventKind::Read;
  const SimOp *Op = nullptr; ///< Null for init writes.
  bool IsInit = false;
  /// Location index (ComboWorker::LocNames) when statically known: init
  /// writes and accesses with a static address; kNoLoc otherwise.
  unsigned Loc = kNoLoc;
};

/// A node of an expression compiled against a register numbering (a
/// thread's registers, or a prune check's snapshot). L and R index the
/// owning pool, where children are stored before their parent.
struct XNode {
  Expr::Kind K = Expr::Kind::Imm;
  unsigned Reg = kNoReg; ///< Kind::Reg: register index (kNoReg reads 0).
  unsigned L = 0, R = 0; ///< Binary kinds: operand nodes.
  Value Imm;             ///< Kind::Imm payload.
};

/// One op of a chosen path with every name resolved to an index, built
/// once per path combo so the value fixpoint does no string work.
struct OpPlan {
  unsigned Ev0 = ~0u, Ev1 = ~0u; ///< Events the op emits, in order.
  unsigned AddrReg = kNoReg;     ///< Dynamic address: base register.
  unsigned Dst = kNoReg, Dst2 = kNoReg;
  unsigned Val = kNoReg, ValHi = kNoReg; ///< Roots in ComboWorker::XPool.
  /// Registers whose taint flows into the op's value (Val, plus ValHi
  /// for stores): [UsesBegin, UsesEnd) of ComboWorker::UsePool.
  unsigned UsesBegin = 0, UsesEnd = 0;
  SimVal AddrOfVal; ///< AddrOf: the address constant.
};

/// A chosen path, compiled: its ops, its register count and the
/// registers the final state observes.
struct ThreadPlan {
  std::vector<OpPlan> Ops;
  unsigned NumRegs = 0;
  std::vector<unsigned> Observed; ///< Parallel to SimThread::Observed.
};

constexpr uint64_t kFullRange = ~uint64_t(0);

/// One unit of schedulable work: a contiguous range [RfLo, RfHi) of the
/// rf index space of one path combo. RfHi == kFullRange means "to the
/// end". Index is the shard's position in global enumeration order.
struct Shard {
  uint64_t Combo = 0;
  uint64_t RfLo = 0;
  uint64_t RfHi = kFullRange;
  size_t Index = 0;
};

/// Multiplication saturating at UINT64_MAX (candidate spaces overflow
/// 64 bits long before the step budget lets anyone visit them).
inline uint64_t satMul(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > kFullRange / B)
    return kFullRange;
  return A * B;
}

/// State shared by all workers of one enumeration run.
struct SharedState {
  uint64_t MaxSteps = 0;
  double TimeoutSeconds = 0.0;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint64_t> Steps{0};
  std::atomic<bool> TimedOut{false};
  std::atomic<bool> Aborted{false}; ///< Model error: stop all workers.

  /// Cross-worker cache of per-combo Cat stable layers. Enabled (by the
  /// driver) only when several workers split the rf space of the same
  /// combos; layers are immutable, so sharing them is read-only.
  bool ShareLayerCache = false;
  std::mutex LayerM;
  std::map<uint64_t, std::shared_ptr<const CatStableLayer>> Layers;

  bool stopped() const {
    return TimedOut.load(std::memory_order_relaxed) ||
           Aborted.load(std::memory_order_relaxed);
  }

  /// Draws one enumeration step from the shared budget. Mirrors the
  /// sequential semantics exactly: step MaxSteps succeeds, step
  /// MaxSteps+1 trips the timeout.
  bool take() {
    if (stopped())
      return false;
    uint64_t Old = Steps.fetch_add(1, std::memory_order_relaxed);
    if (Old >= MaxSteps) {
      TimedOut.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

/// Everything one worker accumulates; merged in shard order at the end.
struct WorkerResult {
  OutcomeSet Allowed;
  /// Interned: a flag fires once per allowed candidate, so merging
  /// symbols instead of strings keeps the per-candidate cost at a
  /// pointer compare. Converted to strings once, at the final merge.
  std::set<Symbol> Flags;
  SimStats Stats;
  /// Shard index -> executions collected from that shard, in enumeration
  /// order (each capped at MaxCollectedExecutions).
  std::map<size_t, std::vector<Execution>> Execs;
  std::string Error;
  size_t ErrorShard = ~size_t(0);
};

/// A worker: owns all per-combo scratch state plus the candidate test
/// pipeline (fixpoint, co, Cat). The sweep backend drives it by shard
/// (processShard); the solve backend prepares combos itself and calls
/// runAssignment() per complete rf assignment. The last-prepared combo
/// skeleton is cached, so a worker draining its contiguous shard range
/// re-prepares only on combo boundaries.
class ComboWorker {
public:
  /// RfChoice slot value for "this read is not assigned yet". Only the
  /// solve backend produces partial assignments; the sweep always runs
  /// with every slot filled.
  static constexpr size_t kNoChoice = ~size_t(0);

  /// The rf-chain support of one resolved check evaluation: the
  /// (read index, candidate index) assignments the evaluation actually
  /// used. A violated check's support is a nogood -- those assignments
  /// can never again appear together.
  using SupportVec = std::vector<std::pair<unsigned, unsigned>>;

  ComboWorker(const SimProgram &Program, const CatModel &Model,
              const SimOptions &Options, SharedState &Shared);

  WorkerResult WR;

  bool shouldStop() const { return LocalStop || Shared.stopped(); }

  /// Cat evaluations served from per-combo layers; folded into the
  /// merged stats after all shards finished.
  uint64_t catEvalsAvoided() const {
    return Eval.stats().BindingEvalsAvoided + Eval.stats().CheckEvalsAvoided;
  }

  /// Sweep driver: processes one shard of the rf index space.
  void processShard(const Shard &S);

  /// Builds the event skeleton and rf candidates for one path combo and
  /// returns the size of its rf index space (saturating, after
  /// constraint-based filtering). Used by shard processing, by the
  /// sweep driver's splitting pre-pass, and by the solve backend's
  /// per-combo setup; all must agree on the space.
  uint64_t prepareCombo(uint64_t Combo);

  /// Folds the prepared combo's space-reduction accounting into the
  /// stats. Call exactly once per combo (the sweep: from the shard at
  /// the origin of the combo's rf space).
  void accountCombo();

  /// Draws one step; on exhaustion (or another worker stopping) requests
  /// local unwinding.
  bool budget();

  /// Adopts a published Cat stable layer for this combo if another
  /// worker already computed one, else arranges lazy computation.
  void bindComboEvaluator(uint64_t Combo);

  /// Publishes this combo's computed stable layer for other workers
  /// splitting the same combo. First publisher wins; layers for one
  /// combo are interchangeable.
  void publishLayer();

  /// Tests the complete rf assignment in RfChoice: value-resolution
  /// fixpoint, then coherence enumeration and Cat filtering of the
  /// consistent candidate. One sweep inner-loop iteration without the
  /// budget draw and pre-fixpoint prune (the solve backend has already
  /// charged its decision and propagated its constraints).
  void runAssignment();

  /// O(events) rejection of the current rf assignment: true when
  /// ComboInfeasible, or some path constraint resolvable under the
  /// (possibly partial -- kNoChoice slots) RfChoice provably evaluates
  /// to the wrong truth value, i.e. every completion of this assignment
  /// would be rejected by the resolution fixpoint. With \p Support
  /// non-null, fills it with the assignments the violated check's
  /// evaluation traversed (empty for a constant violation).
  bool violatedCheck(SupportVec *Support) const;

  const SimProgram &Prog;
  const CatModel &Model;
  SimOptions Opts;
  SharedState &Shared;
  CatEvaluator Eval;

  bool LocalStop = false;
  uint64_t LocalSteps = 0;
  uint64_t CurCombo = kFullRange;
  size_t CurShardIdx = 0;
  uint64_t RfSpace = 0;
  bool LayerPublished = false;

  std::map<std::string, Value> LocAddr;

  /// The location table. Declared locations are interned first, in
  /// program order (the first of equal names wins, as findLocation
  /// does); derived "sym+off" names reached through dynamic addresses
  /// are appended on first use. Indices are private to this worker, so
  /// nothing order-sensitive may depend on them: coherence groups are
  /// ordered by name.
  std::vector<std::string> LocNames;
  std::vector<const SimLoc *> LocDecl; ///< Null for undeclared names.
  std::vector<SimVal> LocInit;         ///< Init-write value per location.
  std::unordered_map<std::string, unsigned> LocIndex;
  std::map<std::pair<unsigned, int64_t>, unsigned> DerivedLoc;
  /// Observed locations (Prog.ObservedLocs) as indices.
  std::vector<unsigned> ObservedLocIdx;

  // Per path-combo state.
  std::vector<EvInfo> Events;
  std::vector<SimPath> ResolvedStorage;
  std::vector<const SimPath *> Paths;
  /// Per thread: (op index, event id) pairs in creation order.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> OpEvents;
  std::vector<ThreadPlan> ThreadPlans;
  std::vector<XNode> XPool;         ///< Compiled expressions of the combo.
  std::vector<unsigned> UsePool;    ///< OpPlan use lists.
  /// Compiled prune checks: PruneChecks[i] is rooted at CheckRoots[i]
  /// of CheckPool, register k of its expression being its Regs[k].
  std::vector<XNode> CheckPool;
  std::vector<unsigned> CheckRoots;
  std::vector<unsigned> Reads;
  std::vector<unsigned> Writes;
  std::vector<unsigned> ReadIndexOf; ///< Event id -> index into Reads.
  std::vector<std::vector<unsigned>> RfCand;
  std::vector<size_t> RfChoice;
  bool AllStaticCombo = false;
  Execution SkelEx; ///< Candidate-invariant part of the execution.
  std::vector<unsigned> InitEvOfLoc; ///< Location index -> init event.
  // Constraint-propagation state (see computeAbstract / AbsDomain.h).
  std::vector<std::pair<unsigned, std::string>> InitWrites;
  std::vector<std::vector<AbsThreadOp>> ThreadOps;
  std::vector<AbsVal> EvAbs;
  std::vector<PruneCheck> PruneChecks;
  bool ComboInfeasible = false;
  bool ComboInfeasibleBaseline = false;
  uint64_t ComboRfSourcesPrunedCopy = 0;
  uint64_t ComboRfSourcesPrunedXform = 0;

  // Per rf-candidate state; every buffer keeps its capacity across
  // candidates, so the candidate loop does not allocate.
  std::vector<EvState> State;
  std::vector<SimVal> Regs;     ///< Register file of the swept thread.
  std::vector<Bitset> Taint;    ///< Per register: reads it depends on.
  /// Register snapshot of the prune check being evaluated (see
  /// checkSatisfied; mutable because violatedCheck is const).
  mutable std::vector<SimVal> CheckRegs;
  Bitset CtrlTaint;
  std::vector<Bitset> AddrDeps, DataDeps, CtrlDeps; ///< Per event: sources.
  std::vector<std::pair<Symbol, Value>> ObservedRegs;
  /// Outcome keys, interned once per run: observed registers flattened
  /// in thread order, and observed locations in program order.
  std::vector<Symbol> ObservedRegSym, ObservedLocSym;
  /// Skeleton + values + rf + deps; Co set per permutation. Copied from
  /// SkelEx once per combo and patched in place per candidate.
  Execution CandEx;
  std::vector<unsigned> CandLoc;   ///< Location index behind Events[i].Loc.
  std::vector<char> SkelConstWrite; ///< Skeleton tag of dynamic writes.
  std::vector<char> CandConstWrite; ///< Current tag of dynamic writes.
  /// Coherence groups: non-init writes per written location, ordered by
  /// location name; GroupOfLoc maps a location index to its group.
  std::vector<std::vector<unsigned>> Groups;
  std::vector<unsigned> GroupLoc;
  std::vector<unsigned> GroupOfLoc;
  size_t NumGroups = 0;
  Outcome CandOutcome;

  /// The value read event \p ReadEv observes under the current RfChoice,
  /// following rf through copy and transform writes; nullopt when it
  /// reaches untracked territory (Top, dynamic locations, rf cycles, an
  /// unassigned read). With \p Support non-null, records every
  /// (read index, candidate index) assignment traversed.
  std::optional<SimVal> resolveReadAbs(unsigned ReadEv, unsigned Depth,
                                       SupportVec *Support) const;
  std::optional<SimVal> resolveWriteAbs(unsigned W, unsigned Depth,
                                        SupportVec *Support) const;

  /// Sweep-path shorthand: violatedCheck without support collection.
  bool prunedByConstraints() const { return violatedCheck(nullptr); }

  /// Iterates rf assignments [Lo, Hi) of the prepared combo. The rf index
  /// space is mixed-radix with RfChoice[0] least significant, matching
  /// the sequential odometer order.
  void runRfRange(uint64_t Lo, uint64_t Hi);

  SimPath resolveStaticAddresses(const SimPath &In) const;
  /// Interns a location name; returns its index.
  unsigned internLoc(const std::string &Name);
  /// The index of location "Sym+Off" (SimAddr::locName).
  unsigned locAt(const std::string &Sym, int64_t Off);
  /// The width rule of truncAtLoc, by location index.
  SimVal truncAt(unsigned Loc, SimVal V) const {
    if (Loc != kNoLoc && LocDecl[Loc] && V.K == SimVal::Kind::Int)
      V.V = V.V.truncated(LocDecl[Loc]->Type);
    return V;
  }
  /// Resolves the prepared combo's registers, locations and
  /// expressions to indices (ThreadPlans).
  void compileCombo();
  /// Compiles PruneChecks into CheckPool/CheckRoots.
  void compileChecks();
  /// Drops the combo's prune checks.
  void clearChecks();
  /// Evaluates prune check \p CI over CheckRegs (filled in the order of
  /// PruneChecks[CI].Regs); true when the constraint has the truth value
  /// its path needs.
  bool checkSatisfied(size_t CI) const;
  /// Evaluates a compiled expression over a register file.
  static SimVal evalX(const std::vector<XNode> &Pool, unsigned Root,
                      const SimVal *RegFile);
  void computeAbstract();
  void filterRfCandidates(bool BaselineCountOnly);
  bool sweep(bool *Verify);
  unsigned rfSource(unsigned ReadEv) const {
    unsigned RI = ReadIndexOf[ReadEv];
    return RfCand[RI][RfChoice[RI]];
  }
  bool resolveValues();
  void buildSkeletonExecution();
  void buildCandidateExecution();
  void enumerateCo();
  void permuteGroups(size_t GI);
  void checkCandidate();
  void collectExecution(const Execution &Ex);
};

/// Merges per-worker results in shard order into one SimResult. Takes
/// non-owning pointers so each backend driver can hold its workers in
/// whatever structure wraps its own per-worker search state.
SimResult mergeResults(const std::vector<ComboWorker *> &Workers,
                       const SharedState &Shared, const SimOptions &Opts);

} // namespace simcore
} // namespace telechat

#endif // TELECHAT_SIM_ENUMCORE_H
