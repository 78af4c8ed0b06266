//===--- Enumerator.cpp - Candidate-execution enumeration -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumeration proceeds in four nested stages:
///   1. control-flow path combinations across threads,
///   2. reads-from assignments (per-read candidate writes; accesses with
///      *dynamic* addresses cannot be location-filtered, which is the
///      paper's §IV-E state explosion),
///   3. concrete value resolution by bounded fixpoint iteration, rejecting
///      assignments that are value-, address- or branch-inconsistent,
///   4. per-location coherence orders, then Cat-model filtering.
///
/// The candidate space is embarrassingly parallel: stage 1 and 2 form a
/// mixed-radix index space (path combo x rf assignment) that is cut into
/// contiguous *shards* and consumed by a work-stealing scheduler
/// (ShardScheduler.h). Workers keep private stats/outcome/flag state and
/// draw enumeration steps from one shared atomic budget; the merge step
/// reassembles per-shard results in enumeration order, so completed runs
/// are bit-identical for any SimOptions::Jobs value.
///
/// Two per-combo precomputations cut the per-candidate cost (see
/// Enumerator.h for the user-facing contracts):
///
///  - An *abstract value pass* (sim/AbsDomain.h) runs each chosen path
///    once over the single-source symbolic-transform domain: a value is
///    a known constant, a bounded transform f applied to one read
///    event's value (covering copies, affine arithmetic, bitwise ops,
///    truncations and 128-bit half slices), or Top. Branch constraints
///    whose inputs are all tracked become prune checks: candidate
///    writes with known values violating them are dropped from the rf
///    lists up front, and remaining assignments are checked in
///    O(events) (following rf chains through copy and transform writes)
///    before the expensive resolution fixpoint runs.
///
///  - The *skeleton execution* (events, po, rmw, tags) is built once
///    per combo and patched in place per candidate, and the Cat model's
///    stable layer is evaluated once per combo by CatEvaluator. When
///    several workers split one combo's rf space, the first computed
///    layer is published through the run's shared state and adopted by
///    the rest.
///
///  - Registers, locations and expressions are resolved to indices once
///    per combo (compileCombo), so the value fixpoint, the coherence
///    groups and the outcome build work on vectors and bitsets, not on
///    string-keyed maps, and the candidate loop does not allocate.
///
/// The per-combo machinery (ComboWorker and friends) lives in
/// sim/EnumCore.h so the constraint-solver backend (src/solve/) can
/// drive the same engine with a different search strategy; this file
/// defines the methods plus the sweep driver, enumerateExecutions.
///
//===----------------------------------------------------------------------===//

#include "sim/EnumCore.h"

#include "sim/ShardScheduler.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace telechat;
using namespace telechat::simcore;

ComboWorker::ComboWorker(const SimProgram &Program, const CatModel &Model,
                         const SimOptions &Options, SharedState &Shared)
    : Prog(Program), Model(Model), Opts(Options), Shared(Shared),
      Eval(Model) {
  Eval.setCaching(Opts.IncrementalCatEval);
  // Synthetic numeric addresses for locations (0x1000 apart, mirroring
  // an ELF data section layout).
  for (unsigned I = 0; I != Prog.Locations.size(); ++I)
    LocAddr[Prog.Locations[I].Name] = Value(0x1000 * (uint64_t(I) + 1));
  // Outcome keys are fixed per program: intern them once so the
  // per-allowed-execution outcome build does no hashing.
  for (const SimThread &T : Prog.Threads)
    for (const auto &[Reg, Key] : T.Observed)
      ObservedRegSym.push_back(internSymbol(Key));
  for (const std::string &Loc : Prog.ObservedLocs)
    ObservedLocSym.push_back(internSymbol(Outcome::locKey(Loc)));
  // The location table starts with the declared locations.
  for (const SimLoc &L : Prog.Locations) {
    unsigned Idx = internLoc(L.Name);
    if (LocDecl[Idx])
      continue;
    LocDecl[Idx] = &L;
    LocInit[Idx] = SimVal{SimVal::Kind::Int, L.Init, ""};
  }
  for (const std::string &Loc : Prog.ObservedLocs)
    ObservedLocIdx.push_back(internLoc(Loc));
}

unsigned ComboWorker::internLoc(const std::string &Name) {
  auto It = LocIndex.find(Name);
  if (It != LocIndex.end())
    return It->second;
  unsigned Idx = unsigned(LocNames.size());
  LocIndex.emplace(Name, Idx);
  LocNames.push_back(Name);
  LocDecl.push_back(nullptr);
  LocInit.emplace_back();
  return Idx;
}

unsigned ComboWorker::locAt(const std::string &Sym, int64_t Off) {
  unsigned Base = internLoc(Sym);
  if (Off == 0)
    return Base;
  auto It = DerivedLoc.find({Base, Off});
  if (It != DerivedLoc.end())
    return It->second;
  unsigned Idx = internLoc(SimAddr::locName(Sym, Off));
  DerivedLoc.emplace(std::make_pair(Base, Off), Idx);
  return Idx;
}

void ComboWorker::processShard(const Shard &S) {
  if (shouldStop())
    return;
  CurShardIdx = S.Index;
  if (S.Combo != CurCombo) {
    prepareCombo(S.Combo);
    CurCombo = S.Combo;
    bindComboEvaluator(S.Combo);
  }
  // The shard at the origin of the combo's rf space owns the
  // PathCombos count (exactly one such shard exists per combo), and
  // with it the combo's space-reduction accounting.
  if (S.RfLo == 0)
    accountCombo();
  uint64_t Hi = std::min(RfSpace, S.RfHi);
  if (S.RfLo < Hi)
    runRfRange(S.RfLo, Hi);
  publishLayer();
}

void ComboWorker::accountCombo() {
  ++WR.Stats.PathCombos;
  WR.Stats.RfSourcesPruned +=
      ComboRfSourcesPrunedCopy + ComboRfSourcesPrunedXform;
  WR.Stats.RfSourcesPrunedCopy += ComboRfSourcesPrunedCopy;
  WR.Stats.RfSourcesPrunedXform += ComboRfSourcesPrunedXform;
}

uint64_t ComboWorker::prepareCombo(uint64_t Combo) {
  std::vector<size_t> PathChoice(Prog.Threads.size(), 0);
  for (size_t T = 0; T != PathChoice.size(); ++T) {
    size_t N = Prog.Threads[T].Paths.size();
    PathChoice[T] = size_t(Combo % N);
    Combo /= N;
  }

  // --- Build the event skeleton. ---
  Events.clear();
  OpEvents.clear();
  Paths.clear();
  for (const SimLoc &L : Prog.Locations) {
    EvInfo Init;
    Init.Kind = EventKind::Write;
    Init.IsInit = true;
    Init.Loc = LocIndex.at(L.Name);
    Events.push_back(Init);
  }
  ResolvedStorage.clear();
  ResolvedStorage.reserve(Prog.Threads.size());
  for (unsigned T = 0; T != Prog.Threads.size(); ++T) {
    ResolvedStorage.push_back(
        resolveStaticAddresses(Prog.Threads[T].Paths[PathChoice[T]]));
  }
  for (unsigned T = 0; T != Prog.Threads.size(); ++T) {
    const SimPath &Path = ResolvedStorage[T];
    Paths.push_back(&Path);
    std::vector<std::pair<unsigned, unsigned>> PathEvents;
    for (unsigned I = 0; I != Path.Ops.size(); ++I) {
      const SimOp &Op = Path.Ops[I];
      auto AddEvent = [&](EventKind K) {
        EvInfo E;
        E.Thread = T;
        E.OpIndex = I;
        E.Kind = K;
        E.Op = &Op;
        if (K != EventKind::Fence && Op.Addr.isStatic())
          E.Loc = locAt(Op.Addr.Sym, Op.Addr.Off);
        Events.push_back(E);
        return unsigned(Events.size() - 1);
      };
      switch (Op.K) {
      case SimOp::Kind::Load:
        PathEvents.emplace_back(I, AddEvent(EventKind::Read));
        break;
      case SimOp::Kind::Store:
        PathEvents.emplace_back(I, AddEvent(EventKind::Write));
        break;
      case SimOp::Kind::Rmw:
        PathEvents.emplace_back(I, AddEvent(EventKind::Read));
        PathEvents.emplace_back(I, AddEvent(EventKind::Write));
        break;
      case SimOp::Kind::Fence:
        PathEvents.emplace_back(I, AddEvent(EventKind::Fence));
        break;
      case SimOp::Kind::Assign:
      case SimOp::Kind::AddrOf:
      case SimOp::Kind::Constraint:
        break;
      }
    }
    OpEvents.push_back(std::move(PathEvents));
  }
  unsigned N = Events.size();

  // Reads and writes of this skeleton.
  Reads.clear();
  Writes.clear();
  ReadIndexOf.assign(N, ~0u);
  AllStaticCombo = true;
  for (unsigned I = 0; I != N; ++I) {
    if (Events[I].Kind == EventKind::Read) {
      ReadIndexOf[I] = unsigned(Reads.size());
      Reads.push_back(I);
    } else if (Events[I].Kind == EventKind::Write) {
      Writes.push_back(I);
    }
    if (!Events[I].IsInit && Events[I].Kind != EventKind::Fence &&
        !Events[I].Op->Addr.isStatic())
      AllStaticCombo = false;
  }

  // --- rf candidates per read. ---
  // Static-address reads take writes that are statically same-location
  // (plus all dynamic-address writes); dynamic-address reads must
  // consider every write. This asymmetry is the whole scalability
  // story: optimised tests are all-static.
  RfCand.assign(Reads.size(), {});
  for (unsigned RI = 0; RI != Reads.size(); ++RI) {
    unsigned RLoc = Events[Reads[RI]].Loc;
    for (unsigned W : Writes) {
      // Init writes always have a location; a dynamic write has none.
      unsigned WLoc = Events[W].Loc;
      if (RLoc != kNoLoc && WLoc != kNoLoc && RLoc != WLoc)
        continue;
      RfCand[RI].push_back(W);
    }
  }

  ComboRfSourcesPrunedCopy = 0;
  ComboRfSourcesPrunedXform = 0;
  if (Opts.RfValuePruning) {
    computeAbstract();
    if (!ComboInfeasible)
      filterRfCandidates(/*BaselineCountOnly=*/false);
    else if (!ComboInfeasibleBaseline)
      // A combo only the transform domain can condemn: the copy-chain
      // baseline would instead have filtered pair-by-pair, so replay
      // its filtering for accounting (RfSourcesPrunedCopy stays equal
      // to the baseline's RfSourcesPruned) without touching the --
      // already collapsed -- candidate lists.
      filterRfCandidates(/*BaselineCountOnly=*/true);
  } else {
    clearChecks();
    ComboInfeasible = false;
    ComboInfeasibleBaseline = false;
  }
  buildSkeletonExecution();

  RfSpace = 1;
  for (const std::vector<unsigned> &C : RfCand)
    RfSpace = satMul(RfSpace, C.size());
  // A combo whose constant-only constraints already contradict the
  // chosen branch directions has no value-consistent assignment at
  // all: collapse its space instead of enumerating provably dead
  // work one budget step at a time (the combo still owns a shard so
  // PathCombos counts it).
  if (ComboInfeasible)
    RfSpace = 0;

  InitEvOfLoc.assign(LocNames.size(), ~0u);
  for (unsigned I = 0; I != N; ++I)
    if (Events[I].IsInit)
      InitEvOfLoc[Events[I].Loc] = I;
  compileCombo();
  // The candidate execution starts as the skeleton and is patched in
  // place per candidate (buildCandidateExecution).
  CandEx = SkelEx;
  CandLoc.assign(N, kNoLoc);
  SkelConstWrite.assign(N, 0);
  for (unsigned I = 0; I != N; ++I)
    SkelConstWrite[I] = SkelEx.Events[I].hasTag("ConstWrite");
  CandConstWrite = SkelConstWrite;
  return RfSpace;
}

namespace {

/// Compiles \p E into \p Pool with registers numbered by \p RegOf;
/// returns the root node.
template <typename RegOfT>
unsigned compileExpr(const Expr &E, std::vector<XNode> &Pool, RegOfT RegOf) {
  XNode X;
  X.K = E.K;
  switch (E.K) {
  case Expr::Kind::Imm:
    X.Imm = E.Imm;
    break;
  case Expr::Kind::Reg:
    X.Reg = RegOf(E.RegName);
    break;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Xor:
  case Expr::Kind::And:
    X.L = compileExpr(E.Ops[0], Pool, RegOf);
    X.R = compileExpr(E.Ops[1], Pool, RegOf);
    break;
  }
  Pool.push_back(X);
  return unsigned(Pool.size() - 1);
}

} // namespace

void ComboWorker::compileCombo() {
  XPool.clear();
  UsePool.clear();
  ThreadPlans.resize(Paths.size());
  std::map<std::string, unsigned> RegIdx;
  auto Reg = [&](const std::string &Name) {
    return RegIdx.emplace(Name, unsigned(RegIdx.size())).first->second;
  };
  std::vector<std::string> Used;
  for (unsigned T = 0; T != Paths.size(); ++T) {
    RegIdx.clear();
    ThreadPlan &TP = ThreadPlans[T];
    const SimPath &Path = *Paths[T];
    TP.Ops.assign(Path.Ops.size(), OpPlan());
    auto EvIt = OpEvents[T].begin();
    const auto EvEnd = OpEvents[T].end();
    for (unsigned I = 0; I != Path.Ops.size(); ++I) {
      const SimOp &Op = Path.Ops[I];
      OpPlan &P = TP.Ops[I];
      while (EvIt != EvEnd && EvIt->first == I) {
        (P.Ev0 == ~0u ? P.Ev0 : P.Ev1) = EvIt->second;
        ++EvIt;
      }
      bool Access = Op.K == SimOp::Kind::Load || Op.K == SimOp::Kind::Store ||
                    Op.K == SimOp::Kind::Rmw;
      if (Access && !Op.Addr.isStatic())
        P.AddrReg = Reg(Op.Addr.Reg);
      // Assign and AddrOf always write their destination; the access
      // ops only when one is named (a 128-bit load writes both halves).
      if (Op.K == SimOp::Kind::Assign || Op.K == SimOp::Kind::AddrOf ||
          (Access && !Op.Dst.empty()))
        P.Dst = Reg(Op.Dst);
      if (Op.K == SimOp::Kind::Load && Op.Is128 && !Op.Dst.empty())
        P.Dst2 = Reg(Op.Dst2);
      bool HasVal = Op.K == SimOp::Kind::Assign ||
                    Op.K == SimOp::Kind::Constraint ||
                    Op.K == SimOp::Kind::Store || Op.K == SimOp::Kind::Rmw;
      if (HasVal) {
        P.Val = compileExpr(Op.Val, XPool, Reg);
        if (Op.K == SimOp::Kind::Store && Op.Is128)
          P.ValHi = compileExpr(Op.ValHi, XPool, Reg);
        Used.clear();
        Op.Val.collectRegs(Used);
        if (Op.K == SimOp::Kind::Store)
          Op.ValHi.collectRegs(Used);
        P.UsesBegin = unsigned(UsePool.size());
        for (const std::string &U : Used)
          UsePool.push_back(Reg(U));
        P.UsesEnd = unsigned(UsePool.size());
      }
      if (Op.K == SimOp::Kind::AddrOf) {
        auto It = LocAddr.find(Op.Sym);
        // An unknown symbol leaves the Int default; sweep() then
        // reports it through LocAddr.at.
        if (It != LocAddr.end())
          P.AddrOfVal = SimVal{SimVal::Kind::Addr, It->second, Op.Sym};
      }
    }
    TP.Observed.clear();
    for (const auto &[R, Key] : Prog.Threads[T].Observed) {
      (void)Key;
      TP.Observed.push_back(Reg(R));
    }
    TP.NumRegs = unsigned(RegIdx.size());
  }
}

void ComboWorker::clearChecks() {
  PruneChecks.clear();
  CheckPool.clear();
  CheckRoots.clear();
}

void ComboWorker::compileChecks() {
  // Prune checks read their own register snapshot; a name the snapshot
  // lacks reads as zero, and a repeated name reads its last entry.
  CheckPool.clear();
  CheckRoots.resize(PruneChecks.size());
  std::map<std::string, unsigned> RegIdx;
  for (size_t CI = 0; CI != PruneChecks.size(); ++CI) {
    const PruneCheck &PC = PruneChecks[CI];
    RegIdx.clear();
    for (size_t K = 0; K != PC.Regs.size(); ++K)
      RegIdx[PC.Regs[K].first] = unsigned(K);
    CheckRoots[CI] =
        compileExpr(*PC.E, CheckPool, [&](const std::string &Name) {
          auto It = RegIdx.find(Name);
          return It == RegIdx.end() ? kNoReg : It->second;
        });
  }
}

bool ComboWorker::checkSatisfied(size_t CI) const {
  SimVal C = evalX(CheckPool, CheckRoots[CI], CheckRegs.data());
  bool NonZero = !C.V.isZero() || C.K == SimVal::Kind::Addr;
  return NonZero == PruneChecks[CI].ExpectNonZero;
}

SimVal ComboWorker::evalX(const std::vector<XNode> &Pool, unsigned Root,
                          const SimVal *RegFile) {
  const XNode &X = Pool[Root];
  switch (X.K) {
  case Expr::Kind::Imm:
    return SimVal{SimVal::Kind::Int, X.Imm, ""};
  case Expr::Kind::Reg:
    return X.Reg == kNoReg ? SimVal{} : RegFile[X.Reg];
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Xor:
  case Expr::Kind::And:
    break;
  }
  return combineSimVals(X.K, evalX(Pool, X.L, RegFile),
                        evalX(Pool, X.R, RegFile));
}

bool ComboWorker::budget() {
  if (!Shared.take()) {
    LocalStop = true;
    return false;
  }
  if (Shared.TimeoutSeconds > 0 && (++LocalSteps & 1023) == 0) {
    auto Now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(Now - Shared.Start).count() >
        Shared.TimeoutSeconds) {
      Shared.TimedOut.store(true, std::memory_order_relaxed);
      LocalStop = true;
      return false;
    }
  }
  return true;
}

void ComboWorker::bindComboEvaluator(uint64_t Combo) {
  if (!Opts.IncrementalCatEval)
    return;
  std::shared_ptr<const CatStableLayer> Cached;
  if (Shared.ShareLayerCache) {
    std::lock_guard<std::mutex> Lock(Shared.LayerM);
    auto It = Shared.Layers.find(Combo);
    if (It != Shared.Layers.end())
      Cached = It->second;
  }
  LayerPublished = Cached != nullptr;
  Eval.enterCombo(AllStaticCombo, std::move(Cached));
}

void ComboWorker::publishLayer() {
  if (!Opts.IncrementalCatEval || !Shared.ShareLayerCache || LayerPublished)
    return;
  std::shared_ptr<const CatStableLayer> Layer = Eval.stableLayer();
  if (!Layer)
    return;
  std::lock_guard<std::mutex> Lock(Shared.LayerM);
  Shared.Layers.emplace(CurCombo, std::move(Layer));
  LayerPublished = true;
}

void ComboWorker::runRfRange(uint64_t Lo, uint64_t Hi) {
  RfChoice.assign(Reads.size(), 0);
  uint64_t Tmp = Lo;
  for (size_t I = 0; I != RfChoice.size() && Tmp != 0; ++I) {
    RfChoice[I] = size_t(Tmp % RfCand[I].size());
    Tmp /= RfCand[I].size();
  }
  bool TryPrune =
      Opts.RfValuePruning && (ComboInfeasible || !PruneChecks.empty());
  for (uint64_t Count = Hi - Lo; Count != 0; --Count) {
    if (!budget())
      return;
    if (TryPrune && prunedByConstraints()) {
      ++WR.Stats.RfCandidates;
      ++WR.Stats.RfPruned;
    } else {
      runAssignment();
      if (shouldStop())
        return;
    }
    size_t I = 0;
    for (; I != RfChoice.size(); ++I) {
      if (++RfChoice[I] < RfCand[I].size())
        break;
      RfChoice[I] = 0;
    }
    if (I == RfChoice.size())
      return; // Wrapped: the whole space is exhausted.
  }
}

void ComboWorker::runAssignment() {
  ++WR.Stats.RfCandidates;
  if (resolveValues()) {
    ++WR.Stats.ValueConsistent;
    buildCandidateExecution();
    enumerateCo();
  }
}

/// Abstract address resolution: registers holding *statically known*
/// address constants (AddrOf, copies, constant offsets) turn their
/// accesses into static ones, which the rf-candidate filter can then
/// restrict by location. Addresses that flow through memory (GOT /
/// literal-pool loads in unoptimised compiled tests) stay dynamic --
/// the paper's §IV-E state explosion. This mirrors herd: symbolic
/// init-state addresses are constants, loaded values are not.
SimPath ComboWorker::resolveStaticAddresses(const SimPath &In) const {
  SimPath Out = In;
  std::map<std::string, std::pair<std::string, int64_t>> Known;
  auto EvalAddr =
      [&](const Expr &E) -> std::optional<std::pair<std::string, int64_t>> {
    if (E.K == Expr::Kind::Reg) {
      auto It = Known.find(E.RegName);
      if (It != Known.end())
        return It->second;
      return std::nullopt;
    }
    if (E.K == Expr::Kind::Add) {
      const Expr &L = E.Ops[0], &R = E.Ops[1];
      if (L.K == Expr::Kind::Reg && R.K == Expr::Kind::Imm) {
        auto It = Known.find(L.RegName);
        if (It != Known.end())
          return std::make_pair(It->second.first,
                                It->second.second +
                                    int64_t(R.Imm.Lo));
      }
    }
    return std::nullopt;
  };
  for (SimOp &Op : Out.Ops) {
    auto TryStatic = [&]() {
      if (Op.Addr.isStatic())
        return;
      auto It = Known.find(Op.Addr.Reg);
      if (It == Known.end())
        return;
      int64_t Off = Op.Addr.Off + It->second.second;
      Op.Addr = SimAddr::staticSym(It->second.first);
      Op.Addr.Off = Off;
    };
    switch (Op.K) {
    case SimOp::Kind::AddrOf:
      Known[Op.Dst] = {Op.Sym, 0};
      break;
    case SimOp::Kind::Assign:
      if (auto A = EvalAddr(Op.Val))
        Known[Op.Dst] = *A;
      else
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Load:
      TryStatic();
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      if (!Op.Dst2.empty())
        Known.erase(Op.Dst2);
      break;
    case SimOp::Kind::Rmw:
      TryStatic();
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Store:
      TryStatic();
      if (!Op.Dst.empty())
        Known.erase(Op.Dst);
      break;
    case SimOp::Kind::Fence:
    case SimOp::Kind::Constraint:
      break;
    }
  }
  return Out;
}

/// Runs the abstract value pass (sim/AbsDomain.h) over the prepared
/// combo, recording per write event what it stores (EvAbs) and which
/// path constraints are checkable without the fixpoint (PruneChecks /
/// ComboInfeasible). The pass itself lives in AbsInterpreter; this
/// wrapper flattens the per-combo skeleton into its input form.
void ComboWorker::computeAbstract() {
  // Flattening scratch lives on the worker: prepareCombo runs once
  // per path combo, so reuse capacity instead of reallocating.
  InitWrites.clear();
  for (unsigned I = 0; I != Events.size(); ++I)
    if (Events[I].IsInit)
      InitWrites.emplace_back(I, LocNames[Events[I].Loc]);
  ThreadOps.resize(Paths.size());
  for (unsigned T = 0; T != Paths.size(); ++T) {
    auto EvIt = OpEvents[T].begin();
    const auto EvEnd = OpEvents[T].end();
    ThreadOps[T].clear();
    ThreadOps[T].reserve(Paths[T]->Ops.size());
    for (unsigned I = 0; I != Paths[T]->Ops.size(); ++I) {
      AbsThreadOp TO;
      TO.Op = &Paths[T]->Ops[I];
      while (EvIt != EvEnd && EvIt->first == I) {
        (TO.Ev0 == ~0u ? TO.Ev0 : TO.Ev1) = EvIt->second;
        ++EvIt;
      }
      ThreadOps[T].push_back(TO);
    }
  }
  AbsInterpreter Interp(Prog, LocAddr);
  Interp.run(unsigned(Events.size()), InitWrites, ThreadOps,
             Opts.RfTransformDomain);
  EvAbs = Interp.takeEvAbs();
  PruneChecks = Interp.takeChecks();
  compileChecks();
  ComboInfeasible = Interp.infeasible();
  ComboInfeasibleBaseline = Interp.infeasibleForBaseline();
}

/// Drops candidate writes that can never satisfy a single-read
/// constraint: if a check's only symbolic input is read R and write W
/// stores a known value violating it, no execution pairs R with W.
/// Each dropped pair divides the rf index space. With
/// \p BaselineCountOnly the candidate lists are left intact and only
/// the prunes the copy-chain baseline would have made are counted
/// (used when the transform domain collapses a combo the baseline
/// cannot, so the copy attribution still matches the baseline's own
/// filtering of that combo).
void ComboWorker::filterRfCandidates(bool BaselineCountOnly) {
  for (unsigned RI = 0; RI != Reads.size(); ++RI) {
    unsigned ReadEv = Reads[RI];
    const EvInfo &R = Events[ReadEv];
    if (!R.Op->Addr.isStatic())
      continue; // Unknown width: values are not comparable yet.
    std::vector<size_t> Relevant;
    for (size_t CI = 0; CI != PruneChecks.size(); ++CI) {
      const PruneCheck &PC = PruneChecks[CI];
      bool Mine = false, OthersKnown = true;
      for (const auto &[Reg, A] : PC.Regs) {
        if (A.K == AbsVal::Kind::Known)
          continue;
        if (A.ReadEv == ReadEv)
          Mine = true;
        else
          OthersKnown = false;
      }
      if (Mine && OthersKnown)
        Relevant.push_back(CI);
    }
    if (Relevant.empty())
      continue;
    std::vector<unsigned> Kept;
    for (unsigned W : RfCand[RI]) {
      if (EvAbs[W].K != AbsVal::Kind::Known) {
        Kept.push_back(W);
        continue;
      }
      SimVal RV = truncAt(R.Loc, EvAbs[W].V);
      // Evaluate every relevant check (not just until the first hit)
      // so the prune can be attributed: a violation is what the
      // copy-chain-only domain (RfTransformDomain off) would also
      // have caught only when its check binds this read through the
      // identity transform, every other input is a constant the
      // baseline also knows (not algebraically Folded), and the
      // candidate write's own value is baseline-known too; anything
      // else is the symbolic domain's own win.
      bool Violated = false, ViolatedByCopy = false;
      for (size_t CI : Relevant) {
        const PruneCheck &PC = PruneChecks[CI];
        bool CopyOnly = !EvAbs[W].Folded;
        CheckRegs.resize(PC.Regs.size());
        for (size_t K = 0; K != PC.Regs.size(); ++K) {
          const AbsVal &A = PC.Regs[K].second;
          if (A.K == AbsVal::Kind::Known) {
            if (A.Folded)
              CopyOnly = false;
            CheckRegs[K] = A.V;
            continue;
          }
          if (!A.isIdentityCopy())
            CopyOnly = false;
          CheckRegs[K] = A.apply(RV);
        }
        if (BaselineCountOnly && !CopyOnly)
          continue; // The baseline never captured this check.
        if (!checkSatisfied(CI)) {
          Violated = true;
          ViolatedByCopy |= CopyOnly;
        }
      }
      if (Violated)
        ++(ViolatedByCopy ? ComboRfSourcesPrunedCopy
                          : ComboRfSourcesPrunedXform);
      else
        Kept.push_back(W);
    }
    if (!BaselineCountOnly)
      RfCand[RI] = std::move(Kept);
  }
}

std::optional<SimVal>
ComboWorker::resolveReadAbs(unsigned ReadEv, unsigned Depth,
                            SupportVec *Support) const {
  if (Depth > Reads.size())
    return std::nullopt; // rf copy cycle: the fixpoint must decide.
  const EvInfo &R = Events[ReadEv];
  if (!R.Op->Addr.isStatic())
    return std::nullopt;
  unsigned RI = ReadIndexOf[ReadEv];
  size_t Choice = RfChoice[RI];
  if (Choice == kNoChoice)
    return std::nullopt; // Partial assignment (solve backend).
  unsigned W = RfCand[RI][Choice];
  std::optional<SimVal> V = resolveWriteAbs(W, Depth, Support);
  if (!V)
    return std::nullopt;
  if (Support)
    Support->emplace_back(RI, unsigned(Choice));
  return truncAt(R.Loc, std::move(*V));
}

std::optional<SimVal>
ComboWorker::resolveWriteAbs(unsigned W, unsigned Depth,
                             SupportVec *Support) const {
  const AbsVal &A = EvAbs[W];
  if (A.K == AbsVal::Kind::Known)
    return A.V; // Pre-truncated at the store site (init: exact).
  if (A.K == AbsVal::Kind::Top)
    return std::nullopt;
  std::optional<SimVal> V = resolveReadAbs(A.ReadEv, Depth + 1, Support);
  if (!V)
    return std::nullopt;
  // The transform bakes in the store-site width rule (Xform
  // abstractions only survive for static destinations), so applying
  // it yields exactly the value the sweep would write.
  return A.apply(*V);
}

bool ComboWorker::violatedCheck(SupportVec *Support) const {
  if (ComboInfeasible) {
    if (Support)
      Support->clear(); // Constant violation: empty support.
    return true;
  }
  SupportVec Scratch;
  for (size_t CI = 0; CI != PruneChecks.size(); ++CI) {
    const PruneCheck &PC = PruneChecks[CI];
    bool Resolvable = true;
    Scratch.clear();
    CheckRegs.resize(PC.Regs.size());
    for (size_t K = 0; K != PC.Regs.size(); ++K) {
      const AbsVal &A = PC.Regs[K].second;
      if (A.K == AbsVal::Kind::Known) {
        CheckRegs[K] = A.V;
        continue;
      }
      std::optional<SimVal> V =
          resolveReadAbs(A.ReadEv, 0, Support ? &Scratch : nullptr);
      if (!V) {
        Resolvable = false;
        break;
      }
      CheckRegs[K] = A.apply(*V);
    }
    if (!Resolvable)
      continue;
    if (!checkSatisfied(CI)) {
      if (Support) {
        // Several registers may resolve through the same read: dedup so
        // the learned nogood has distinct literals.
        std::sort(Scratch.begin(), Scratch.end());
        Scratch.erase(std::unique(Scratch.begin(), Scratch.end()),
                      Scratch.end());
        *Support = std::move(Scratch);
      }
      return true;
    }
  }
  return false;
}

/// One evaluation sweep over all threads. Returns true if any event
/// state changed. When \p Verify is non-null, also checks constraints /
/// address resolution / rf location agreement, computes dependency
/// taints and records observed registers. Registers, locations and
/// expressions were resolved to indices by compileCombo, so a sweep
/// does no string work on all-static combos.
bool ComboWorker::sweep(bool *Verify) {
  bool Changed = false;
  const unsigned N = Events.size();
  if (Verify) {
    AddrDeps.assign(N, Bitset(N));
    DataDeps.assign(N, Bitset(N));
    CtrlDeps.assign(N, Bitset(N));
    ObservedRegs.clear();
  }
  for (unsigned T = 0; T != Paths.size(); ++T) {
    const ThreadPlan &TP = ThreadPlans[T];
    const SimPath &Path = *Paths[T];
    Regs.assign(TP.NumRegs, SimVal{});
    if (Verify) {
      Taint.assign(TP.NumRegs, Bitset(N));
      CtrlTaint = Bitset(N);
    }
    for (unsigned I = 0; I != Path.Ops.size(); ++I) {
      const SimOp &Op = Path.Ops[I];
      const OpPlan &P = TP.Ops[I];
      auto ResolveAddr = [&](unsigned Ev) -> unsigned {
        if (Op.Addr.isStatic())
          return Events[Ev].Loc;
        const SimVal &Base = Regs[P.AddrReg];
        if (Base.K == SimVal::Kind::Addr) {
          if (Verify)
            AddrDeps[Ev] |= Taint[P.AddrReg];
          return locAt(Base.Sym, Op.Addr.Off);
        }
        if (Verify)
          *Verify = false; // unresolvable dynamic address
        return kNoLoc;
      };
      auto Update = [&](unsigned Ev, const SimVal &Val, unsigned Loc) {
        EvState &S = State[Ev];
        if (S.Loc != Loc || !(S.Val == Val)) {
          S.Val = Val;
          S.Loc = Loc;
          Changed = true;
        }
      };
      // The union of the taints of the registers the op's value reads.
      auto UsesTaint = [&](Bitset &Into) {
        for (unsigned U = P.UsesBegin; U != P.UsesEnd; ++U)
          Into |= Taint[UsePool[U]];
      };
      auto TaintOnly = [&](unsigned Reg, unsigned Ev) {
        Taint[Reg].clear();
        Taint[Reg].set(Ev);
      };
      switch (Op.K) {
      case SimOp::Kind::Assign: {
        if (Verify) {
          Bitset T2(N);
          UsesTaint(T2);
          Taint[P.Dst] = T2;
        }
        Regs[P.Dst] = evalX(XPool, P.Val, Regs.data());
        break;
      }
      case SimOp::Kind::AddrOf: {
        Regs[P.Dst] = P.AddrOfVal.K == SimVal::Kind::Addr
                          ? P.AddrOfVal
                          : SimVal{SimVal::Kind::Addr, LocAddr.at(Op.Sym),
                                   Op.Sym};
        if (Verify)
          Taint[P.Dst].clear();
        break;
      }
      case SimOp::Kind::Constraint: {
        if (Verify) {
          SimVal C = evalX(XPool, P.Val, Regs.data());
          bool NonZero = !C.V.isZero() || C.K == SimVal::Kind::Addr;
          if (NonZero != Op.ConstraintNonZero)
            *Verify = false;
          UsesTaint(CtrlTaint);
        }
        break;
      }
      case SimOp::Kind::Fence: {
        if (Verify)
          CtrlDeps[P.Ev0] |= CtrlTaint;
        break;
      }
      case SimOp::Kind::Load: {
        unsigned ReadEv = P.Ev0;
        unsigned Loc = ResolveAddr(ReadEv);
        unsigned RfW = rfSource(ReadEv);
        SimVal V = State[RfW].Val;
        if (Loc != kNoLoc)
          V = truncAt(Loc, std::move(V));
        Update(ReadEv, V, Loc);
        if (P.Dst != kNoReg) {
          if (Op.Is128) {
            Regs[P.Dst] = SimVal{SimVal::Kind::Int, Value(V.V.Lo), ""};
            Regs[P.Dst2] = SimVal{SimVal::Kind::Int, Value(V.V.Hi), ""};
            if (Verify) {
              TaintOnly(P.Dst, ReadEv);
              TaintOnly(P.Dst2, ReadEv);
            }
          } else {
            Regs[P.Dst] = V;
            if (Verify)
              TaintOnly(P.Dst, ReadEv);
          }
        }
        if (Verify) {
          CtrlDeps[ReadEv] |= CtrlTaint;
          // rf source must be a write to the same resolved location.
          if (Loc == kNoLoc || State[RfW].Loc != Loc)
            *Verify = false;
        }
        break;
      }
      case SimOp::Kind::Store: {
        unsigned WriteEv = P.Ev0;
        unsigned Loc = ResolveAddr(WriteEv);
        SimVal V = evalX(XPool, P.Val, Regs.data());
        if (Op.Is128) {
          SimVal Hi = evalX(XPool, P.ValHi, Regs.data());
          V = SimVal{SimVal::Kind::Int, Value(V.V.Lo, Hi.V.Lo), ""};
        }
        if (Loc != kNoLoc)
          V = truncAt(Loc, std::move(V));
        Update(WriteEv, V, Loc);
        if (P.Dst != kNoReg) {
          // Exclusive-store status register: success (herd assumes
          // exclusive pairs succeed; failing paths are infeasible).
          Regs[P.Dst] =
              SimVal{SimVal::Kind::Int, Value(Op.StatusSuccess), ""};
          if (Verify)
            Taint[P.Dst].clear();
        }
        if (Verify) {
          UsesTaint(DataDeps[WriteEv]);
          CtrlDeps[WriteEv] |= CtrlTaint;
          if (Loc == kNoLoc)
            *Verify = false;
        }
        break;
      }
      case SimOp::Kind::Rmw: {
        unsigned ReadEv = P.Ev0, WriteEv = P.Ev1;
        unsigned Loc = ResolveAddr(ReadEv);
        unsigned RfW = rfSource(ReadEv);
        SimVal Old = State[RfW].Val;
        if (Loc != kNoLoc)
          Old = truncAt(Loc, std::move(Old));
        SimVal Operand = evalX(XPool, P.Val, Regs.data());
        SimVal New;
        New.K = SimVal::Kind::Int;
        switch (Op.RmwOp) {
        case SimOp::RmwOpKind::Xchg:
          New.V = Operand.V;
          break;
        case SimOp::RmwOpKind::Add:
          New.V = Old.V.add(Operand.V);
          break;
        case SimOp::RmwOpKind::Sub:
          New.V = Old.V.sub(Operand.V);
          break;
        }
        if (Loc != kNoLoc)
          New = truncAt(Loc, std::move(New));
        Update(ReadEv, Old, Loc);
        Update(WriteEv, New, Loc);
        if (P.Dst != kNoReg && !Op.NoRet) {
          Regs[P.Dst] = Old;
          if (Verify)
            TaintOnly(P.Dst, ReadEv);
        }
        if (Verify) {
          UsesTaint(DataDeps[WriteEv]);
          CtrlDeps[ReadEv] |= CtrlTaint;
          CtrlDeps[WriteEv] |= CtrlTaint;
          if (Loc == kNoLoc || State[RfW].Loc != Loc)
            *Verify = false;
        }
        break;
      }
      }
    }
    if (Verify)
      for (unsigned R : TP.Observed)
        ObservedRegs.emplace_back(ObservedRegSym[ObservedRegs.size()],
                                  Regs[R].V);
  }
  return Changed;
}

/// Fixpoint value resolution; true when this rf assignment is
/// consistent (stable values, feasible branches, matching addresses).
bool ComboWorker::resolveValues() {
  unsigned N = Events.size();
  State.assign(N, EvState());
  for (unsigned I = 0; I != N; ++I)
    if (Events[I].IsInit) {
      unsigned Loc = Events[I].Loc;
      const SimLoc *L = LocDecl[Loc];
      State[I].Loc = Loc;
      if (!L->InitAddrOf.empty())
        State[I].Val = SimVal{SimVal::Kind::Addr, LocAddr.at(L->InitAddrOf),
                              L->InitAddrOf};
      else
        State[I].Val = LocInit[Loc];
    }
  unsigned MaxRounds = N + 2;
  bool Stable = false;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    if (!sweep(nullptr)) {
      Stable = true;
      break;
    }
  }
  if (!Stable)
    return false;
  bool Consistent = true;
  sweep(&Consistent);
  return Consistent;
}

/// Builds the per-combo execution skeleton: events with kinds, threads
/// and tags (including ConstWrite for statically-located writes), po,
/// and rmw edges. Patched per candidate; only Loc/Val/rf/co/deps (and
/// ConstWrite on dynamically-located writes) vary within a combo.
void ComboWorker::buildSkeletonExecution() {
  unsigned N = Events.size();
  SkelEx = Execution();
  SkelEx.Events.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    Event &E = SkelEx.Events[I];
    E.Id = I;
    E.Kind = Events[I].Kind;
    if (Events[I].IsInit) {
      E.Thread = Event::InitThread;
      E.PoIndex = 0;
      E.Tags = {"IW"};
      continue;
    }
    E.Thread = Events[I].Thread;
    E.PoIndex = I; // globally increasing within a thread
    const SimOp *Op = Events[I].Op;
    if (Op->K == SimOp::Kind::Rmw) {
      E.Tags = Events[I].Kind == EventKind::Read ? Op->Tags : Op->WTags;
      if (Op->NoRet && Events[I].Kind == EventKind::Read)
        E.Tags.insert("NORET");
    } else if (Events[I].Kind == EventKind::Write) {
      E.Tags = Op->WTags;
    } else {
      E.Tags = Op->Tags;
    }
    if (Events[I].Kind == EventKind::Write && Op->Addr.isStatic())
      if (const SimLoc *L = LocDecl[Events[I].Loc]; L && L->Const)
        E.Tags.insert("ConstWrite");
  }
  SkelEx.resizeRelations();
  // po: init writes before every thread event; program order within
  // threads (transitive).
  for (unsigned A = 0; A != N; ++A) {
    for (unsigned B = 0; B != N; ++B) {
      if (A == B)
        continue;
      if (Events[A].IsInit && !Events[B].IsInit)
        SkelEx.Po.set(A, B);
      else if (!Events[A].IsInit && !Events[B].IsInit &&
               Events[A].Thread == Events[B].Thread && A < B)
        SkelEx.Po.set(A, B);
    }
  }
  // rmw edges: the two halves of an Rmw op, and LL/SC exclusive pairs
  // (an exclusive store pairs with the latest exclusive load).
  for (unsigned T = 0; T != Paths.size(); ++T) {
    unsigned PrevRead = ~0u;
    unsigned LastExclusiveRead = ~0u;
    for (const auto &[OpIdx, Ev] : OpEvents[T]) {
      const SimOp &Op = Paths[T]->Ops[OpIdx];
      if (Op.K == SimOp::Kind::Rmw) {
        if (Events[Ev].Kind == EventKind::Read)
          PrevRead = Ev;
        else
          SkelEx.Rmw.set(PrevRead, Ev);
        continue;
      }
      if (!Op.Exclusive)
        continue;
      if (Op.K == SimOp::Kind::Load)
        LastExclusiveRead = Ev;
      else if (Op.K == SimOp::Kind::Store && LastExclusiveRead != ~0u)
        SkelEx.Rmw.set(LastExclusiveRead, Ev);
    }
  }
}

/// Instantiates the skeleton for the current rf assignment: resolved
/// values/locations, rf edges and dependency relations. CandEx already
/// holds the combo's skeleton; only what varies between candidates is
/// rewritten, so no event is copied. Coherence is filled in per
/// permutation by checkCandidate.
void ComboWorker::buildCandidateExecution() {
  unsigned N = Events.size();
  for (unsigned I = 0; I != N; ++I) {
    Event &E = CandEx.Events[I];
    unsigned Loc = State[I].Loc;
    if (CandLoc[I] != Loc) {
      if (Loc == kNoLoc)
        E.Loc.clear();
      else
        E.Loc = LocNames[Loc];
      CandLoc[I] = Loc;
    }
    E.Val = State[I].Val.V;
    // Writes whose location only resolved now may hit a const
    // location (static ones were tagged in the skeleton).
    if (!Events[I].IsInit && Events[I].Kind == EventKind::Write &&
        !Events[I].Op->Addr.isStatic()) {
      char Want = SkelConstWrite[I] ||
                  (Loc != kNoLoc && LocDecl[Loc] && LocDecl[Loc]->Const);
      if (Want != CandConstWrite[I]) {
        if (Want)
          E.Tags.insert("ConstWrite");
        else
          E.Tags.erase("ConstWrite");
        CandConstWrite[I] = Want;
      }
    }
  }
  CandEx.Rf.clear();
  for (unsigned RI = 0; RI != Reads.size(); ++RI)
    CandEx.Rf.set(RfCand[RI][RfChoice[RI]], Reads[RI]);
  CandEx.Addr.clear();
  CandEx.Data.clear();
  CandEx.Ctrl.clear();
  for (unsigned Ev = 0; Ev != N; ++Ev) {
    AddrDeps[Ev].forEach([&](unsigned Src) { CandEx.Addr.set(Src, Ev); });
    DataDeps[Ev].forEach([&](unsigned Src) { CandEx.Data.set(Src, Ev); });
    CtrlDeps[Ev].forEach([&](unsigned Src) { CandEx.Ctrl.set(Src, Ev); });
  }
}

/// Enumerates per-location coherence orders and model-checks each
/// complete candidate.
void ComboWorker::enumerateCo() {
  // Group non-init writes by resolved location, in po order; groups
  // are permuted in location-name order.
  if (GroupOfLoc.size() < LocNames.size())
    GroupOfLoc.resize(LocNames.size(), kNoLoc);
  NumGroups = 0;
  for (unsigned W : Writes) {
    if (Events[W].IsInit)
      continue;
    unsigned Loc = State[W].Loc;
    assert(Loc != kNoLoc && "consistent candidates resolve every write");
    unsigned &G = GroupOfLoc[Loc];
    if (G == kNoLoc) {
      G = unsigned(NumGroups++);
      if (Groups.size() < NumGroups) {
        Groups.emplace_back();
        GroupLoc.push_back(0);
      }
      Groups[G].clear();
      GroupLoc[G] = Loc;
    }
    Groups[G].push_back(W);
  }
  for (size_t I = 1; I < NumGroups; ++I)
    for (size_t J = I;
         J != 0 && LocNames[GroupLoc[J]] < LocNames[GroupLoc[J - 1]]; --J) {
      std::swap(Groups[J], Groups[J - 1]);
      std::swap(GroupLoc[J], GroupLoc[J - 1]);
    }
  for (size_t G = 0; G != NumGroups; ++G)
    GroupOfLoc[GroupLoc[G]] = unsigned(G);
  // Recursively permute each group.
  permuteGroups(0);
  for (size_t G = 0; G != NumGroups; ++G)
    GroupOfLoc[GroupLoc[G]] = kNoLoc;
}

void ComboWorker::permuteGroups(size_t GI) {
  if (shouldStop())
    return;
  if (GI == NumGroups) {
    if (!budget())
      return;
    ++WR.Stats.CoCandidates;
    checkCandidate();
    return;
  }
  std::vector<unsigned> &G = Groups[GI];
  std::sort(G.begin(), G.end());
  do {
    permuteGroups(GI + 1);
    if (shouldStop())
      return;
  } while (std::next_permutation(G.begin(), G.end()));
}

/// Completes the candidate execution with the current coherence
/// permutation and runs the model.
void ComboWorker::checkCandidate() {
  // co: init write of each location first, then the group permutation.
  CandEx.Co.clear();
  for (size_t GI = 0; GI != NumGroups; ++GI) {
    const std::vector<unsigned> &G = Groups[GI];
    unsigned Loc = GroupLoc[GI];
    if (Loc < InitEvOfLoc.size() && InitEvOfLoc[Loc] != ~0u)
      for (unsigned W : G)
        CandEx.Co.set(InitEvOfLoc[Loc], W);
    for (size_t A = 0; A != G.size(); ++A)
      for (size_t B = A + 1; B != G.size(); ++B)
        CandEx.Co.set(G[A], G[B]);
  }
  // Locations written by nobody still have their init write in co
  // (singleton chains need no edges).

  // With IncrementalCatEval off, Eval runs in no-cache mode: full
  // re-evaluation per candidate, identical verdicts.
  const ModelVerdict &Verdict = Eval.evaluate(CandEx);
  if (!Verdict.ok()) {
    if (WR.Error.empty() || CurShardIdx < WR.ErrorShard) {
      WR.Error = Verdict.Error;
      WR.ErrorShard = CurShardIdx;
    }
    Shared.Aborted.store(true, std::memory_order_relaxed);
    LocalStop = true;
    return;
  }
  if (!Verdict.Allowed)
    return;
  ++WR.Stats.AllowedExecutions;
  // Outcome: observed registers + observed locations' final values (the
  // co-maximal write: the last of the location's group, else its init).
  Outcome &O = CandOutcome;
  O.clear();
  for (const auto &[Key, V] : ObservedRegs)
    O.set(Key, V);
  for (size_t L = 0; L != ObservedLocIdx.size(); ++L) {
    unsigned Loc = ObservedLocIdx[L];
    unsigned Last = ~0u;
    if (Loc < GroupOfLoc.size() && GroupOfLoc[Loc] != kNoLoc)
      Last = Groups[GroupOfLoc[Loc]].back();
    else if (Loc < InitEvOfLoc.size())
      Last = InitEvOfLoc[Loc];
    O.set(ObservedLocSym[L], Last == ~0u ? Value() : State[Last].Val.V);
  }
  WR.Allowed.insert(O);
  for (const std::string &F : Verdict.Flags)
    WR.Flags.insert(internSymbol(F));
  if (Opts.CollectExecutions)
    collectExecution(CandEx);
}

void ComboWorker::collectExecution(const Execution &Ex) {
  std::vector<Execution> &Bucket = WR.Execs[CurShardIdx];
  if (Bucket.size() < Opts.MaxCollectedExecutions)
    Bucket.push_back(Ex);
  // Prune buckets this worker can prove unreachable: once its own
  // lower-indexed shards alone hold MaxCollectedExecutions executions,
  // the shard-ordered merge can never select anything from its
  // higher-indexed buckets. Keeps memory bounded under stealing.
  size_t Cum = 0;
  auto It = WR.Execs.begin();
  for (; It != WR.Execs.end(); ++It) {
    Cum += It->second.size();
    if (Cum >= Opts.MaxCollectedExecutions) {
      ++It;
      break;
    }
  }
  WR.Execs.erase(It, WR.Execs.end());
}

SimResult
telechat::simcore::mergeResults(const std::vector<ComboWorker *> &Workers,
                                const SharedState &Shared,
                                const SimOptions &Opts) {
  SimResult R;
  size_t ErrorShard = ~size_t(0);
  std::map<size_t, std::vector<Execution>> Execs;
  for (ComboWorker *W : Workers) {
    WorkerResult &WRes = W->WR;
    R.Allowed.insert(WRes.Allowed.begin(), WRes.Allowed.end());
    for (Symbol F : WRes.Flags)
      R.Flags.insert(F.str());
    R.Stats.PathCombos += WRes.Stats.PathCombos;
    R.Stats.RfCandidates += WRes.Stats.RfCandidates;
    R.Stats.ValueConsistent += WRes.Stats.ValueConsistent;
    R.Stats.CoCandidates += WRes.Stats.CoCandidates;
    R.Stats.AllowedExecutions += WRes.Stats.AllowedExecutions;
    R.Stats.RfSourcesPruned += WRes.Stats.RfSourcesPruned;
    R.Stats.RfSourcesPrunedCopy += WRes.Stats.RfSourcesPrunedCopy;
    R.Stats.RfSourcesPrunedXform += WRes.Stats.RfSourcesPrunedXform;
    R.Stats.RfPruned += WRes.Stats.RfPruned;
    R.Stats.CatEvalsAvoided += W->catEvalsAvoided();
    R.Stats.SolveDecisions += WRes.Stats.SolveDecisions;
    R.Stats.SolvePropagations += WRes.Stats.SolvePropagations;
    R.Stats.SolveConflicts += WRes.Stats.SolveConflicts;
    R.Stats.SolveClauses += WRes.Stats.SolveClauses;
    R.Stats.ExploreIterations += WRes.Stats.ExploreIterations;
    R.Stats.ExploreSchedules += WRes.Stats.ExploreSchedules;
    if (!WRes.Error.empty() && WRes.ErrorShard < ErrorShard) {
      ErrorShard = WRes.ErrorShard;
      R.Error = WRes.Error;
    }
    for (auto &[Idx, Bucket] : WRes.Execs)
      Execs[Idx] = std::move(Bucket);
  }
  if (Opts.CollectExecutions)
    for (auto &[Idx, Bucket] : Execs)
      for (Execution &Ex : Bucket) {
        if (R.Executions.size() >= Opts.MaxCollectedExecutions)
          break;
        R.Executions.push_back(std::move(Ex));
      }
  R.TimedOut = Shared.TimedOut.load(std::memory_order_relaxed);
  return R;
}

SimResult telechat::enumerateExecutions(const SimProgram &Program,
                                        const CatModel &Model,
                                        const SimOptions &Options) {
  SharedState Shared;
  Shared.MaxSteps = Options.MaxSteps;
  Shared.TimeoutSeconds = Options.TimeoutSeconds;
  Shared.Start = std::chrono::steady_clock::now();

  // Path combos form a mixed-radix space over per-thread path counts
  // (index 0 least significant, matching the sequential odometer). The
  // empty product (no threads) is one combo: the init-only execution.
  uint64_t ComboCount = 1;
  for (const SimThread &T : Program.Threads)
    ComboCount = satMul(ComboCount, T.Paths.size());

  unsigned Jobs = resolveJobs(Options.Jobs);
  std::vector<std::unique_ptr<ComboWorker>> Workers;

  if (Jobs <= 1) {
    // Sequential: one worker walks every combo in order; shards are never
    // materialised. Identical code path, zero threading overhead.
    Workers.push_back(
        std::make_unique<ComboWorker>(Program, Model, Options, Shared));
    ComboWorker &W = *Workers.front();
    for (uint64_t C = 0; C != ComboCount && !W.shouldStop(); ++C) {
      Shard S;
      S.Combo = C;
      S.Index = size_t(C);
      W.processShard(S);
    }
  } else {
    for (unsigned J = 0; J != Jobs; ++J)
      Workers.push_back(
          std::make_unique<ComboWorker>(Program, Model, Options, Shared));

    // Shards are built in waves so combo-heavy programs (many branches)
    // never materialise an unbounded shard vector; each wave runs on the
    // work-stealing scheduler.
    constexpr uint64_t kWaveCombos = 1 << 18;
    // Splitting pre-pass scratch (prepares skeletons to size rf spaces).
    ComboWorker Scratch(Program, Model, Options, Shared);

    // Several workers share single combos only in the rf-splitting
    // regime below; that is the only case where publishing per-combo
    // Cat layers can save duplicate work.
    Shared.ShareLayerCache = ComboCount < uint64_t(Jobs) * 4;

    uint64_t NextCombo = 0;
    size_t NextIndex = 0;
    while (NextCombo < ComboCount && !Shared.stopped()) {
      std::vector<Shard> Wave;
      if (ComboCount < uint64_t(Jobs) * 4) {
        // Few combos: split each combo's rf space into chunks so all
        // workers share even a single-combo test (the common litmus
        // case, and the paper's §IV-E explosion case).
        for (uint64_t C = NextCombo; C != ComboCount; ++C) {
          uint64_t Space = Scratch.prepareCombo(C);
          uint64_t MaxChunks = uint64_t(Jobs) * 8;
          uint64_t Chunk =
              std::max<uint64_t>(16, Space / MaxChunks + (Space % MaxChunks
                                                              ? 1
                                                              : 0));
          uint64_t Lo = 0;
          do {
            Shard S;
            S.Combo = C;
            S.RfLo = Lo;
            S.RfHi = (Space - Lo <= Chunk) ? Space : Lo + Chunk;
            if (Space == 0)
              S.RfHi = 0; // Keep the PathCombos-owning shard.
            S.Index = NextIndex++;
            Wave.push_back(S);
            Lo = S.RfHi;
          } while (Lo < Space);
        }
        NextCombo = ComboCount;
      } else {
        uint64_t End = NextCombo + std::min<uint64_t>(
                                       kWaveCombos, ComboCount - NextCombo);
        for (uint64_t C = NextCombo; C != End; ++C) {
          Shard S;
          S.Combo = C;
          S.Index = NextIndex++;
          Wave.push_back(S);
        }
        NextCombo = End;
      }

      ShardScheduler::run(
          Wave.size(), Jobs,
          [&](unsigned W, size_t I) { Workers[W]->processShard(Wave[I]); },
          [&] { return Shared.stopped(); });
    }
  }

  std::vector<ComboWorker *> Merged;
  Merged.reserve(Workers.size());
  for (std::unique_ptr<ComboWorker> &W : Workers)
    Merged.push_back(W.get());
  SimResult Result = mergeResults(Merged, Shared, Options);
  Result.Stats.BackendUsed = uint8_t(SimBackendKind::Sweep);
  auto End = std::chrono::steady_clock::now();
  Result.Stats.Seconds =
      std::chrono::duration<double>(End - Shared.Start).count();
  return Result;
}

bool telechat::finalConditionHolds(const SimProgram &Program,
                                   const SimResult &Result) {
  const FinalCond &F = Program.Final;
  bool AnySatisfies = false;
  bool AllSatisfy = true;
  for (const Outcome &O : Result.Allowed) {
    if (F.P.eval(O))
      AnySatisfies = true;
    else
      AllSatisfy = false;
  }
  switch (F.Q) {
  case FinalCond::Quant::Exists:
    return AnySatisfies;
  case FinalCond::Quant::NotExists:
    return !AnySatisfies;
  case FinalCond::Quant::Forall:
    return AllSatisfy && !Result.Allowed.empty();
  }
  return false;
}
