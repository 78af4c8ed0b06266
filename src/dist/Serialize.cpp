//===--- Serialize.cpp - Wire serialization of campaign types -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/Serialize.h"

using namespace telechat;

namespace {

/// Litmus ASTs are shallow (branches nest a handful of levels), so any
/// deeper input is hostile or corrupt; the bound keeps recursive decode
/// off the untrusted-stack-depth path.
constexpr unsigned MaxDepth = 64;

/// Reads an enum stored as u8, failing the cursor on out-of-range input.
template <typename E> bool readEnum(WireCursor &C, E &Out, uint8_t Max) {
  uint8_t V = C.readU8();
  if (!C.ok() || V > Max)
    return false;
  Out = static_cast<E>(V);
  return true;
}

void encodeIntType(WireBuffer &B, const IntType &T) {
  B.appendU32(T.Bits);
  B.appendBool(T.Signed);
}

bool decodeIntType(WireCursor &C, IntType &T) {
  T.Bits = C.readU32();
  T.Signed = C.readBool();
  return C.ok();
}

void encodeExpr(WireBuffer &B, const Expr &E) {
  B.appendU8(uint8_t(E.K));
  encodeValue(B, E.Imm);
  B.appendString(E.RegName);
  B.appendU32(uint32_t(E.Ops.size()));
  for (const Expr &Op : E.Ops)
    encodeExpr(B, Op);
}

bool decodeExpr(WireCursor &C, Expr &E, unsigned Depth) {
  if (Depth > MaxDepth)
    return false;
  if (!readEnum(C, E.K, uint8_t(Expr::Kind::And)))
    return false;
  if (!decodeValue(C, E.Imm))
    return false;
  E.RegName = C.readString();
  uint32_t N = C.readCount(1);
  E.Ops.resize(N);
  for (Expr &Op : E.Ops)
    if (!decodeExpr(C, Op, Depth + 1))
      return false;
  return C.ok();
}

void encodeStmt(WireBuffer &B, const Stmt &S) {
  B.appendU8(uint8_t(S.K));
  B.appendString(S.Dst);
  B.appendString(S.Loc);
  B.appendU8(uint8_t(S.Order));
  encodeExpr(B, S.Val);
  B.appendU8(uint8_t(S.Rmw));
  B.appendBool(S.DstUsedNowhere);
  encodeExpr(B, S.Cond);
  B.appendU32(uint32_t(S.Then.size()));
  for (const Stmt &Sub : S.Then)
    encodeStmt(B, Sub);
  B.appendU32(uint32_t(S.Else.size()));
  for (const Stmt &Sub : S.Else)
    encodeStmt(B, Sub);
}

bool decodeStmt(WireCursor &C, Stmt &S, unsigned Depth) {
  if (Depth > MaxDepth)
    return false;
  if (!readEnum(C, S.K, uint8_t(Stmt::Kind::LocalAssign)))
    return false;
  S.Dst = C.readString();
  S.Loc = C.readString();
  if (!readEnum(C, S.Order, uint8_t(MemOrder::SeqCst)))
    return false;
  if (!decodeExpr(C, S.Val, Depth + 1))
    return false;
  if (!readEnum(C, S.Rmw, uint8_t(RmwKind::FetchSub)))
    return false;
  S.DstUsedNowhere = C.readBool();
  if (!decodeExpr(C, S.Cond, Depth + 1))
    return false;
  uint32_t NThen = C.readCount(1);
  S.Then.resize(NThen);
  for (Stmt &Sub : S.Then)
    if (!decodeStmt(C, Sub, Depth + 1))
      return false;
  uint32_t NElse = C.readCount(1);
  S.Else.resize(NElse);
  for (Stmt &Sub : S.Else)
    if (!decodeStmt(C, Sub, Depth + 1))
      return false;
  return C.ok();
}

void encodePredicate(WireBuffer &B, const Predicate &P) {
  B.appendU8(uint8_t(P.K));
  B.appendU8(uint8_t(P.A.K));
  B.appendString(P.A.Thread);
  B.appendString(P.A.Name);
  encodeValue(B, P.A.V);
  B.appendU32(uint32_t(P.Ops.size()));
  for (const Predicate &Op : P.Ops)
    encodePredicate(B, Op);
}

bool decodePredicate(WireCursor &C, Predicate &P, unsigned Depth) {
  if (Depth > MaxDepth)
    return false;
  if (!readEnum(C, P.K, uint8_t(Predicate::Kind::True)))
    return false;
  if (!readEnum(C, P.A.K, uint8_t(PredAtom::Kind::LocEq)))
    return false;
  P.A.Thread = C.readString();
  P.A.Name = C.readString();
  if (!decodeValue(C, P.A.V))
    return false;
  uint32_t N = C.readCount(1);
  P.Ops.resize(N);
  for (Predicate &Op : P.Ops)
    if (!decodePredicate(C, Op, Depth + 1))
      return false;
  return C.ok();
}

void encodeStringVector(WireBuffer &B, const std::vector<std::string> &V) {
  B.appendU32(uint32_t(V.size()));
  for (const std::string &S : V)
    B.appendString(S);
}

bool decodeStringVector(WireCursor &C, std::vector<std::string> &V) {
  uint32_t N = C.readCount(4);
  V.resize(N);
  for (std::string &S : V)
    S = C.readString();
  return C.ok();
}

} // namespace

void telechat::encodeValue(WireBuffer &B, const Value &V) {
  B.appendU64(V.Lo);
  B.appendU64(V.Hi);
}

bool telechat::decodeValue(WireCursor &C, Value &V) {
  V.Lo = C.readU64();
  V.Hi = C.readU64();
  return C.ok();
}

void telechat::encodeLitmusTest(WireBuffer &B, const LitmusTest &T) {
  B.appendString(T.Name);
  B.appendU32(uint32_t(T.Locations.size()));
  for (const LocDecl &L : T.Locations) {
    B.appendString(L.Name);
    encodeIntType(B, L.Type);
    B.appendBool(L.Atomic);
    B.appendBool(L.Const);
    encodeValue(B, L.Init);
  }
  B.appendU32(uint32_t(T.Threads.size()));
  for (const Thread &Th : T.Threads) {
    B.appendString(Th.Name);
    B.appendU32(uint32_t(Th.Body.size()));
    for (const Stmt &S : Th.Body)
      encodeStmt(B, S);
  }
  B.appendU8(uint8_t(T.Final.Q));
  encodePredicate(B, T.Final.P);
}

bool telechat::decodeLitmusTest(WireCursor &C, LitmusTest &T) {
  T.Name = C.readString();
  uint32_t NLocs = C.readCount(4);
  T.Locations.resize(NLocs);
  for (LocDecl &L : T.Locations) {
    L.Name = C.readString();
    if (!decodeIntType(C, L.Type))
      return false;
    L.Atomic = C.readBool();
    L.Const = C.readBool();
    if (!decodeValue(C, L.Init))
      return false;
  }
  uint32_t NThreads = C.readCount(4);
  T.Threads.resize(NThreads);
  for (Thread &Th : T.Threads) {
    Th.Name = C.readString();
    uint32_t NStmts = C.readCount(1);
    Th.Body.resize(NStmts);
    for (Stmt &S : Th.Body)
      if (!decodeStmt(C, S, 0))
        return false;
  }
  if (!readEnum(C, T.Final.Q, uint8_t(FinalCond::Quant::Forall)))
    return false;
  return decodePredicate(C, T.Final.P, 0) && C.ok();
}

void telechat::encodeProfile(WireBuffer &B, const Profile &P) {
  B.appendU8(uint8_t(P.Compiler));
  B.appendU8(uint8_t(P.Opt));
  B.appendU8(uint8_t(P.Target));
  uint8_t Features = (P.Features.Lse ? 1 : 0) | (P.Features.Rcpc ? 2 : 0) |
                     (P.Features.Lse2 ? 4 : 0);
  B.appendU8(Features);
  // The bug model must travel: profile *names* do not encode it, and a
  // worker reproducing llvm11's miscompilations needs the exact bits.
  uint8_t Bugs = (P.Bugs.StaddNoRet ? 1 : 0) |
                 (P.Bugs.DeadRegZeroing ? 2 : 0) |
                 (P.Bugs.XchgNoRet ? 4 : 0) | (P.Bugs.SeqCst128Ldp ? 8 : 0) |
                 (P.Bugs.Stp128WrongEndian ? 16 : 0) |
                 (P.Bugs.ConstAtomicStore ? 32 : 0) |
                 (P.Bugs.MipsFillAtomicDelaySlots ? 64 : 0);
  B.appendU8(Bugs);
}

bool telechat::decodeProfile(WireCursor &C, Profile &P) {
  if (!readEnum(C, P.Compiler, uint8_t(CompilerKind::Gcc)))
    return false;
  if (!readEnum(C, P.Opt, uint8_t(OptLevel::Og)))
    return false;
  if (!readEnum(C, P.Target, uint8_t(Arch::Mips)))
    return false;
  uint8_t Features = C.readU8();
  P.Features.Lse = Features & 1;
  P.Features.Rcpc = Features & 2;
  P.Features.Lse2 = Features & 4;
  uint8_t Bugs = C.readU8();
  P.Bugs.StaddNoRet = Bugs & 1;
  P.Bugs.DeadRegZeroing = Bugs & 2;
  P.Bugs.XchgNoRet = Bugs & 4;
  P.Bugs.SeqCst128Ldp = Bugs & 8;
  P.Bugs.Stp128WrongEndian = Bugs & 16;
  P.Bugs.ConstAtomicStore = Bugs & 32;
  P.Bugs.MipsFillAtomicDelaySlots = Bugs & 64;
  return C.ok();
}

void telechat::encodeSimOptions(WireBuffer &B, const SimOptions &O) {
  B.appendU64(O.MaxSteps);
  B.appendF64(O.TimeoutSeconds);
  B.appendBool(O.CollectExecutions);
  B.appendU32(O.MaxCollectedExecutions);
  B.appendU32(O.Jobs);
  B.appendBool(O.RfValuePruning);
  B.appendBool(O.RfTransformDomain);
  B.appendBool(O.IncrementalCatEval);
  B.appendU8(uint8_t(O.Backend));
  B.appendU64(O.ExploreIterations);
  B.appendU64(O.ExploreSeed);
  B.appendU32(O.ExploreMaxContextSwitches);
  B.appendU64(O.ExploreBudget);
}

bool telechat::decodeSimOptions(WireCursor &C, SimOptions &O) {
  O.MaxSteps = C.readU64();
  O.TimeoutSeconds = C.readF64();
  O.CollectExecutions = C.readBool();
  O.MaxCollectedExecutions = C.readU32();
  O.Jobs = C.readU32();
  O.RfValuePruning = C.readBool();
  O.RfTransformDomain = C.readBool();
  O.IncrementalCatEval = C.readBool();
  if (!readEnum(C, O.Backend, uint8_t(SimBackendKind::Explore)))
    return false;
  O.ExploreIterations = C.readU64();
  O.ExploreSeed = C.readU64();
  O.ExploreMaxContextSwitches = C.readU32();
  O.ExploreBudget = C.readU64();
  return C.ok();
}

void telechat::encodeTestOptions(WireBuffer &B, const TestOptions &O) {
  B.appendString(O.SourceModel);
  B.appendBool(O.AugmentLocals);
  B.appendBool(O.OptimiseCompiled);
  B.appendBool(O.ConstAugmentedModel);
  encodeSimOptions(B, O.Sim);
}

bool telechat::decodeTestOptions(WireCursor &C, TestOptions &O) {
  O.SourceModel = C.readString();
  O.AugmentLocals = C.readBool();
  O.OptimiseCompiled = C.readBool();
  O.ConstAugmentedModel = C.readBool();
  return decodeSimOptions(C, O.Sim);
}

void telechat::encodeCampaignConfig(WireBuffer &B, const CampaignConfig &C) {
  encodeProfile(B, C.P);
  encodeTestOptions(B, C.Opts);
  B.appendBool(C.SimulateOnly);
}

bool telechat::decodeCampaignConfig(WireCursor &C, CampaignConfig &Out) {
  if (!decodeProfile(C, Out.P))
    return false;
  if (!decodeTestOptions(C, Out.Opts))
    return false;
  Out.SimulateOnly = C.readBool();
  return C.ok();
}

namespace {

void encodeOrderPool(WireBuffer &B, const std::vector<MemOrder> &Pool) {
  B.appendU32(uint32_t(Pool.size()));
  for (MemOrder O : Pool)
    B.appendU8(uint8_t(O));
}

bool decodeOrderPool(WireCursor &C, std::vector<MemOrder> &Pool) {
  uint32_t N = C.readCount(1);
  // An empty pool cannot draw an order and a huge one is nothing the
  // encoder produces (pools repeat orders only to weight them, and 64
  // entries of 7 possible orders is already generous).
  if (!C.ok() || N == 0 || N > 64)
    return false;
  Pool.resize(N);
  for (MemOrder &O : Pool)
    if (!readEnum(C, O, uint8_t(MemOrder::SeqCst)))
      return false;
  return C.ok();
}

} // namespace

void telechat::encodeRandomGenOptions(WireBuffer &B,
                                      const RandomGenOptions &O) {
  B.appendU64(O.Seed);
  B.appendU32(O.Count);
  B.appendU32(O.MaxEdges);
  encodeOrderPool(B, O.LoadOrders);
  encodeOrderPool(B, O.StoreOrders);
}

bool telechat::decodeRandomGenOptions(WireCursor &C, RandomGenOptions &O) {
  O.Seed = C.readU64();
  O.Count = C.readU32();
  O.MaxEdges = C.readU32();
  // The edge cap sizes a per-attempt allocation in RandomTestStream; a
  // hostile header must not be able to demand multi-gigabyte chains.
  // 64 is far past any cycle worth simulating (Count only lengthens the
  // campaign, so it stays uncapped).
  if (!C.ok() || O.MaxEdges > 64)
    return false;
  if (!decodeOrderPool(C, O.LoadOrders))
    return false;
  return decodeOrderPool(C, O.StoreOrders);
}

void telechat::encodeCampaignUnit(WireBuffer &B, const CampaignUnit &U) {
  B.appendU64(U.Id);
  B.appendU32(U.Config);
  encodeLitmusTest(B, U.Test);
}

bool telechat::decodeCampaignUnit(WireCursor &C, CampaignUnit &U) {
  U.Id = C.readU64();
  U.Config = C.readU32();
  return decodeLitmusTest(C, U.Test);
}

void telechat::encodeSimStats(WireBuffer &B, const SimStats &S) {
  B.appendU64(S.PathCombos);
  B.appendU64(S.RfCandidates);
  B.appendU64(S.ValueConsistent);
  B.appendU64(S.CoCandidates);
  B.appendU64(S.AllowedExecutions);
  B.appendU64(S.RfSourcesPruned);
  B.appendU64(S.RfSourcesPrunedCopy);
  B.appendU64(S.RfSourcesPrunedXform);
  B.appendU64(S.RfPruned);
  B.appendU64(S.CatEvalsAvoided);
  B.appendU64(S.SolveDecisions);
  B.appendU64(S.SolvePropagations);
  B.appendU64(S.SolveConflicts);
  B.appendU64(S.SolveClauses);
  B.appendU64(S.ExploreIterations);
  B.appendU64(S.ExploreSchedules);
  B.appendU64(S.ExploreOutcomesFound);
  B.appendU8(S.BackendUsed);
  B.appendF64(S.Seconds);
}

bool telechat::decodeSimStats(WireCursor &C, SimStats &S) {
  S.PathCombos = C.readU64();
  S.RfCandidates = C.readU64();
  S.ValueConsistent = C.readU64();
  S.CoCandidates = C.readU64();
  S.AllowedExecutions = C.readU64();
  S.RfSourcesPruned = C.readU64();
  S.RfSourcesPrunedCopy = C.readU64();
  S.RfSourcesPrunedXform = C.readU64();
  S.RfPruned = C.readU64();
  S.CatEvalsAvoided = C.readU64();
  S.SolveDecisions = C.readU64();
  S.SolvePropagations = C.readU64();
  S.SolveConflicts = C.readU64();
  S.SolveClauses = C.readU64();
  S.ExploreIterations = C.readU64();
  S.ExploreSchedules = C.readU64();
  S.ExploreOutcomesFound = C.readU64();
  // Any byte is accepted: BackendUsed is descriptive, not dispatched
  // on, and a blob from a newer peer must not be rejected for having
  // run an engine this build does not know. backendUsedName() renders
  // unrecognised values as "unknown".
  S.BackendUsed = C.readU8();
  S.Seconds = C.readF64();
  return C.ok();
}

void telechat::encodeOutcome(WireBuffer &B, const Outcome &O) {
  B.appendU32(uint32_t(O.entries().size()));
  for (const auto &[Key, V] : O.entries()) {
    B.appendString(Key.str());
    encodeValue(B, V);
  }
}

bool telechat::decodeOutcome(WireCursor &C, Outcome &O) {
  uint32_t N = C.readCount(4 + 16);
  for (uint32_t I = 0; I != N; ++I) {
    std::string Key = C.readString();
    Value V;
    if (!decodeValue(C, V))
      return false;
    O.set(Key, V);
  }
  return C.ok();
}

void telechat::encodeOutcomeSet(WireBuffer &B, const OutcomeSet &S) {
  B.appendU32(uint32_t(S.size()));
  for (const Outcome &O : S)
    encodeOutcome(B, O);
}

bool telechat::decodeOutcomeSet(WireCursor &C, OutcomeSet &S) {
  uint32_t N = C.readCount(4);
  for (uint32_t I = 0; I != N; ++I) {
    Outcome O;
    if (!decodeOutcome(C, O))
      return false;
    S.insert(std::move(O));
  }
  return C.ok();
}

void telechat::encodeSimResult(WireBuffer &B, const SimResult &R) {
  encodeOutcomeSet(B, R.Allowed);
  B.appendU32(uint32_t(R.Flags.size()));
  for (const std::string &F : R.Flags)
    B.appendString(F);
  B.appendBool(R.TimedOut);
  B.appendString(R.Error);
  encodeSimStats(B, R.Stats);
}

bool telechat::decodeSimResult(WireCursor &C, SimResult &R) {
  if (!decodeOutcomeSet(C, R.Allowed))
    return false;
  uint32_t NFlags = C.readCount(4);
  for (uint32_t I = 0; I != NFlags; ++I)
    R.Flags.insert(C.readString());
  R.TimedOut = C.readBool();
  R.Error = C.readString();
  return decodeSimStats(C, R.Stats);
}

void telechat::encodeCompareResult(WireBuffer &B, const CompareResult &R) {
  B.appendU8(uint8_t(R.K));
  B.appendU32(uint32_t(R.Witnesses.size()));
  for (const Outcome &W : R.Witnesses)
    encodeOutcome(B, W);
  B.appendBool(R.SourceRace);
  encodeStringVector(B, R.TargetFlags);
}

bool telechat::decodeCompareResult(WireCursor &C, CompareResult &R) {
  if (!readEnum(C, R.K, uint8_t(CompareResult::Kind::CoverageGap)))
    return false;
  uint32_t NWit = C.readCount(4);
  R.Witnesses.resize(NWit);
  for (Outcome &W : R.Witnesses)
    if (!decodeOutcome(C, W))
      return false;
  R.SourceRace = C.readBool();
  return decodeStringVector(C, R.TargetFlags);
}

void telechat::encodeTelechatResult(WireBuffer &B, const TelechatResult &R) {
  B.appendString(R.Error);
  B.appendU32(R.OptStats.RemovedInstructions);
  B.appendU32(R.OptStats.RemovedLocations);
  encodeSimResult(B, R.SourceSim);
  encodeSimResult(B, R.TargetSim);
  encodeCompareResult(B, R.Compare);
}

bool telechat::decodeTelechatResult(WireCursor &C, TelechatResult &R) {
  R.Error = C.readString();
  R.OptStats.RemovedInstructions = C.readU32();
  R.OptStats.RemovedLocations = C.readU32();
  if (!decodeSimResult(C, R.SourceSim))
    return false;
  if (!decodeSimResult(C, R.TargetSim))
    return false;
  return decodeCompareResult(C, R.Compare);
}
