//===--- Eval.cpp - Cat model evaluator -----------------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// The incremental engine works in three phases:
//
//  1. Classification (once per CatEvaluator): every identifier occurrence
//     is resolved to a *slot* (a let/let-rec binding instance), a *base*
//     relation/set, or a *tag set*, SSA-style, and the occurrence records
//     the resolution's dense index (CatExpr::Ref), so evaluation does no
//     map lookups at all. Each binding and check is then marked
//     stable or dynamic by a bottom-up walk: an expression is stable iff
//     everything it references is. Two markings are kept -- one assuming
//     only the skeleton invariants (po, threads, kinds, rmw, IW), one
//     additionally assuming fixed locations and tags (all-static combos).
//
//  2. Layer build (once per path combo): all stable bases, tag sets,
//     bindings and check verdicts are materialised into an immutable
//     CatStableLayer, shareable across worker threads.
//
//  3. Candidate evaluation (per candidate execution): statements are
//     walked in order; stable work is served from the layer, dynamic
//     work (anything reachable from rf/co/fr/addr/data/ctrl) is
//     re-evaluated. Identifiers are read by reference into the layer or
//     the evaluator-owned scratch, so no binding is copied to be read,
//     and the scratch is reused across candidates. Error propagation
//     order matches the one-shot evaluator exactly: a stable
//     statement's error is reported at its statement position, after
//     any earlier dynamic error.
//
//===----------------------------------------------------------------------===//

#include "cat/Eval.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace telechat;

bool ModelVerdict::hasFlag(const std::string &Name) const {
  return std::find(Flags.begin(), Flags.end(), Name) != Flags.end();
}

CatValue CatValue::rel(Relation R) {
  CatValue V;
  V.K = Kind::Rel;
  V.R = std::move(R);
  return V;
}

CatValue CatValue::set(Bitset S) {
  CatValue V;
  V.K = Kind::Set;
  V.S = std::move(S);
  return V;
}

namespace {

/// The base environment, by fixed index. Order groups the stability
/// classes: the first block is derivable from the combo skeleton alone,
/// Loc/PoLoc additionally need fixed locations, the rest depend on the
/// candidate's rf/co/dependency choice.
enum BaseId : unsigned {
  B_Po,
  B_Rmw,
  B_Ext,
  B_Int,
  B_Id,
  B_Univ,
  B_Empty,
  B_R,
  B_W,
  B_M,
  B_F,
  B_IW,
  B_Loc,
  B_PoLoc,
  B_Rf,
  B_Co,
  B_Fr,
  B_Addr,
  B_Data,
  B_Ctrl,
  B_Rfe,
  B_Rfi,
  B_Coe,
  B_Coi,
  B_Fre,
  B_Fri,
  B_COUNT
};

/// Stable across all candidates of a combo (skeleton-derived only).
bool baseStableGen(unsigned B) { return B <= B_IW; }
/// Stable when the combo's access locations are all static.
bool baseStableStatic(unsigned B) { return B <= B_PoLoc; }

const std::map<std::string, unsigned> &baseNames() {
  static const std::map<std::string, unsigned> Names = {
      {"po", B_Po},       {"rf", B_Rf},     {"co", B_Co},
      {"fr", B_Fr},       {"rmw", B_Rmw},   {"addr", B_Addr},
      {"data", B_Data},   {"ctrl", B_Ctrl}, {"loc", B_Loc},
      {"po-loc", B_PoLoc}, {"ext", B_Ext},  {"int", B_Int},
      {"id", B_Id},       {"rfe", B_Rfe},   {"rfi", B_Rfi},
      {"coe", B_Coe},     {"coi", B_Coi},   {"fre", B_Fre},
      {"fri", B_Fri},     {"_", B_Univ},    {"emptyset", B_Empty},
      {"R", B_R},         {"W", B_W},       {"M", B_M},
      {"F", B_F},         {"IW", B_IW}};
  return Names;
}

/// Resolution of one identifier occurrence.
struct Res {
  enum class Kind { Base, Slot, Tag } K = Kind::Tag;
  unsigned Index = 0; ///< BaseId, slot index, or tag index.
};

/// (stable assuming skeleton invariants, stable also assuming all-static).
struct Stab {
  bool Gen = true;
  bool Stat = true;

  Stab meet(const Stab &O) const { return {Gen && O.Gen, Stat && O.Stat}; }
};

} // namespace

/// See Eval.h. Built once per path combo, then only read.
struct telechat::CatStableLayer {
  std::vector<CatValue> Bases;
  std::vector<char> BaseHas;
  std::vector<CatValue> Slots;
  std::vector<char> SlotHas;
  std::vector<CatValue> Tags; ///< By tag index; materialised iff AllStatic.
  std::vector<char> CheckHolds;
  std::vector<char> CheckHas;
  std::string Error;                 ///< First stable-statement error.
  size_t ErrorStmt = ~size_t(0);     ///< Statement index of that error.
  /// For an error in a multi-binding let: which binding, so the
  /// candidate walk can evaluate earlier dynamic bindings first and
  /// report whichever error the one-shot evaluator would hit first.
  size_t ErrorBind = ~size_t(0);
  bool AllStatic = false;
};

struct CatEvaluator::Impl {
  CatModel M; ///< Owned copy: its Id nodes carry indices into Refs.
  std::vector<Res> Refs; ///< By CatExpr::Ref.

  struct BindPlan {
    unsigned Slot = 0;
    Stab St;
  };
  struct StmtPlan {
    std::vector<BindPlan> Binds; ///< Let (per-binding) / LetRec (group St).
    Stab GroupSt;                ///< LetRec: stability of the whole group.
    unsigned CheckIdx = ~0u;
    Stab CheckSt;
  };
  std::vector<StmtPlan> Plans;
  std::vector<Stab> SlotSt;
  std::vector<std::string> TagNames; ///< Distinct tag identifiers used.
  unsigned NumSlots = 0;
  unsigned NumChecks = 0;

  /// Per-candidate scratch, sized once and reset (not reallocated) by
  /// every evaluation: bases and tag sets computed for this candidate,
  /// dynamic binding values, and the verdict.
  struct Scratch {
    std::vector<CatValue> Bases;
    std::vector<char> BaseHas;
    std::vector<CatValue> Slots;
    std::vector<CatValue> Tags;
    std::vector<char> TagHas;
    ModelVerdict Verdict;
  } Work;

  explicit Impl(const CatModel &Model) : M(Model) {
    classify();
    Work.Bases.resize(B_COUNT);
    Work.Slots.resize(NumSlots);
    Work.Tags.resize(TagNames.size());
  }

  bool slotStable(unsigned Slot, bool AllStatic) const {
    return AllStatic ? SlotSt[Slot].Stat : SlotSt[Slot].Gen;
  }
  static bool pick(const Stab &S, bool AllStatic) {
    return AllStatic ? S.Stat : S.Gen;
  }

private:
  /// Resolves identifiers and computes stability for every binding and
  /// check. Scope maps a name to its current resolution, starting from
  /// the base environment; unknown names are tag sets.
  void classify() {
    std::map<std::string, Res> Scope;
    for (const auto &[Name, B] : baseNames())
      Scope[Name] = Res{Res::Kind::Base, B};
    std::map<std::string, unsigned> TagIndex;

    for (CatStmt &S : M.Stmts) {
      StmtPlan P;
      switch (S.K) {
      case CatStmt::Kind::Let:
        for (CatBinding &B : S.Bindings) {
          BindPlan BP;
          BP.Slot = NumSlots++;
          BP.St = annotate(B.Body, Scope, TagIndex);
          SlotSt.push_back(BP.St);
          Scope[B.Name] = Res{Res::Kind::Slot, BP.Slot};
          P.Binds.push_back(BP);
        }
        break;
      case CatStmt::Kind::LetRec: {
        // Pre-register the group so mutual references resolve to slots;
        // group stability is the meet over all bodies' *external*
        // dependencies (self-references are provisionally stable).
        for (const CatBinding &B : S.Bindings) {
          BindPlan BP;
          BP.Slot = NumSlots++;
          SlotSt.push_back(Stab{true, true});
          Scope[B.Name] = Res{Res::Kind::Slot, BP.Slot};
          P.Binds.push_back(BP);
        }
        Stab Group;
        for (CatBinding &B : S.Bindings)
          Group = Group.meet(annotate(B.Body, Scope, TagIndex));
        P.GroupSt = Group;
        for (BindPlan &BP : P.Binds) {
          BP.St = Group;
          SlotSt[BP.Slot] = Group;
        }
        break;
      }
      case CatStmt::Kind::Check:
        P.CheckIdx = NumChecks++;
        P.CheckSt = annotate(S.Check.E, Scope, TagIndex);
        break;
      }
      Plans.push_back(std::move(P));
    }
  }

  Stab annotate(CatExpr &E, std::map<std::string, Res> &Scope,
                std::map<std::string, unsigned> &TagIndex) {
    switch (E.K) {
    case CatExpr::Kind::Zero:
      return Stab{true, true};
    case CatExpr::Kind::Id: {
      auto It = Scope.find(E.Name);
      Res R = It != Scope.end() ? It->second : Res{Res::Kind::Tag, 0};
      if (R.K == Res::Kind::Tag) {
        auto [TagIt, New] =
            TagIndex.emplace(E.Name, unsigned(TagNames.size()));
        if (New)
          TagNames.push_back(E.Name);
        R.Index = TagIt->second;
      }
      E.Ref = unsigned(Refs.size());
      Refs.push_back(R);
      switch (R.K) {
      case Res::Kind::Base:
        return Stab{baseStableGen(R.Index), baseStableStatic(R.Index)};
      case Res::Kind::Slot:
        return SlotSt[R.Index];
      case Res::Kind::Tag:
        // Tags come from the ops of the chosen paths; only ConstWrite
        // (resolved-location dependent) can vary, and only on combos
        // with dynamic addresses.
        return Stab{false, true};
      }
      return Stab{false, false};
    }
    default: {
      Stab St;
      for (CatExpr &Op : E.Ops)
        St = St.meet(annotate(Op, Scope, TagIndex));
      return St;
    }
    }
  }
};

namespace {

/// One evaluation pass: either builds a stable layer (Building != null,
/// visiting only stable statements) or evaluates a candidate (reading
/// the immutable layer, recomputing dynamic statements).
///
/// Values flow by pointer: eval() leaves its result either in the
/// caller's temporary or, for identifiers, points straight at the
/// layer's or the scratch's value, so reading a binding never copies it.
class Ctx {
public:
  Ctx(CatEvaluator::Impl &Impl, const Execution &Ex, bool AllStatic,
      const CatStableLayer *Stable, CatStableLayer *Building)
      : I(Impl), W(Impl.Work), Ex(Ex), N(Ex.size()), AllStatic(AllStatic),
        Stable(Stable), Building(Building) {
    W.BaseHas.assign(B_COUNT, 0);
    W.TagHas.assign(I.TagNames.size(), 0);
  }

  /// Build mode: materialise every stable base, tag set, binding and
  /// check into Building, stopping at the first error.
  void buildStable() {
    Building->Bases.resize(B_COUNT);
    Building->BaseHas.assign(B_COUNT, 0);
    Building->Slots.resize(I.NumSlots);
    Building->SlotHas.assign(I.NumSlots, 0);
    Building->CheckHolds.assign(I.NumChecks, 0);
    Building->CheckHas.assign(I.NumChecks, 0);
    Building->AllStatic = AllStatic;
    for (unsigned B = 0; B != B_COUNT; ++B)
      if (stableBase(B))
        (void)base(B);
    if (AllStatic)
      for (const std::string &Tag : I.TagNames)
        Building->Tags.push_back(CatValue::set(Ex.tagSet(Tag)));

    for (size_t SI = 0; SI != I.Plans.size(); ++SI) {
      const CatStmt &S = I.M.Stmts[SI];
      const CatEvaluator::Impl::StmtPlan &P = I.Plans[SI];
      std::string Err;
      size_t ErrBind = ~size_t(0);
      switch (S.K) {
      case CatStmt::Kind::Let:
        for (size_t BI = 0; BI != S.Bindings.size(); ++BI) {
          if (!stable(P.Binds[BI].St))
            continue;
          Err = evalBinding(S.Bindings[BI].Body, P.Binds[BI].Slot);
          if (!Err.empty()) {
            ErrBind = BI;
            break;
          }
        }
        break;
      case CatStmt::Kind::LetRec:
        if (stable(P.GroupSt))
          Err = evalRec(S, P);
        break;
      case CatStmt::Kind::Check:
        if (stable(P.CheckSt)) {
          bool Holds = false;
          Err = evalCheck(S.Check, Holds);
          if (Err.empty()) {
            Building->CheckHolds[P.CheckIdx] = Holds;
            Building->CheckHas[P.CheckIdx] = 1;
          }
        }
        break;
      }
      if (!Err.empty()) {
        Building->Error = Err;
        Building->ErrorStmt = SI;
        Building->ErrorBind = ErrBind;
        return;
      }
    }
  }

  /// Candidate mode: the full statement walk, serving stable work from
  /// the layer. A stable binding/check error recorded in the layer is
  /// reported at its exact statement *and binding* position, so any
  /// dynamic error the one-shot evaluator would hit first still wins.
  const ModelVerdict &run(CatEvaluator::CacheStats &Stats) {
    ModelVerdict &V = W.Verdict;
    V.Allowed = true;
    V.FailedChecks.clear();
    V.Flags.clear();
    V.Error.clear();
    for (size_t SI = 0; SI != I.Plans.size(); ++SI) {
      bool ErrHere = Stable && SI == Stable->ErrorStmt;
      if (ErrHere && Stable->ErrorBind == ~size_t(0)) {
        V.Error = Stable->Error;
        return V;
      }
      const CatStmt &S = I.M.Stmts[SI];
      const CatEvaluator::Impl::StmtPlan &P = I.Plans[SI];
      switch (S.K) {
      case CatStmt::Kind::Let:
        for (size_t BI = 0; BI != S.Bindings.size(); ++BI) {
          if (ErrHere && BI == Stable->ErrorBind) {
            V.Error = Stable->Error;
            return V;
          }
          if (stable(P.Binds[BI].St)) {
            ++Stats.BindingEvalsAvoided;
            continue;
          }
          if (std::string E = evalBinding(S.Bindings[BI].Body,
                                          P.Binds[BI].Slot);
              !E.empty()) {
            V.Error = E;
            return V;
          }
        }
        break;
      case CatStmt::Kind::LetRec:
        if (stable(P.GroupSt)) {
          Stats.BindingEvalsAvoided += S.Bindings.size();
          break;
        }
        if (std::string E = evalRec(S, P); !E.empty()) {
          V.Error = E;
          return V;
        }
        break;
      case CatStmt::Kind::Check: {
        bool Holds = false;
        if (stable(P.CheckSt)) {
          ++Stats.CheckEvalsAvoided;
          Holds = Stable->CheckHolds[P.CheckIdx] != 0;
        } else if (std::string E = evalCheck(S.Check, Holds); !E.empty()) {
          V.Error = E;
          return V;
        }
        if (S.Check.IsFlag) {
          if (Holds)
            V.Flags.push_back(S.Check.Name);
        } else if (!Holds) {
          V.Allowed = false;
          V.FailedChecks.push_back(S.Check.Name);
        }
        break;
      }
      }
    }
    return V;
  }

private:
  /// With neither a layer to read nor one being built (caching
  /// disabled), everything is dynamic: full re-evaluation per
  /// candidate, the pre-incremental behaviour.
  bool caching() const { return Building != nullptr || Stable != nullptr; }

  bool stable(const Stab &S) const {
    return caching() && CatEvaluator::Impl::pick(S, AllStatic);
  }
  bool stableBase(unsigned B) const {
    if (!caching())
      return false;
    return AllStatic ? baseStableStatic(B) : baseStableGen(B);
  }

  /// The storage of a binding: the layer being built, the layer being
  /// read (stable slots), or the candidate's scratch.
  CatValue &slotRef(unsigned Slot) {
    return Building ? Building->Slots[Slot] : W.Slots[Slot];
  }
  const CatValue &slot(unsigned Slot) {
    if (!Building && Stable && I.slotStable(Slot, AllStatic))
      return Stable->Slots[Slot];
    return slotRef(Slot);
  }

  /// Evaluates a let binding straight into its slot.
  std::string evalBinding(const CatExpr &Body, unsigned Slot) {
    CatValue &Dst = slotRef(Slot);
    const CatValue *V;
    if (std::string Err = eval(Body, Dst, V); !Err.empty())
      return Err;
    if (V != &Dst)
      Dst = *V;
    if (Building)
      Building->SlotHas[Slot] = 1;
    return "";
  }

  const Relation &relBase(unsigned B) { return base(B).R; }

  const CatValue &base(unsigned B) {
    if (stableBase(B)) {
      if (Stable && Stable->BaseHas[B])
        return Stable->Bases[B];
      if (Building) {
        if (!Building->BaseHas[B]) {
          CatValue V = computeBase(B);
          Building->Bases[B] = std::move(V);
          Building->BaseHas[B] = 1;
        }
        return Building->Bases[B];
      }
    }
    if (!W.BaseHas[B]) {
      CatValue V = computeBase(B);
      W.Bases[B] = std::move(V);
      W.BaseHas[B] = 1;
    }
    return W.Bases[B];
  }

  CatValue computeBase(unsigned B) {
    switch (B) {
    case B_Po:
      return CatValue::rel(Ex.Po);
    case B_Rmw:
      return CatValue::rel(Ex.Rmw);
    case B_Ext:
      return CatValue::rel(Ex.ext());
    case B_Int:
      return CatValue::rel(Ex.internal());
    case B_Id:
      return CatValue::rel(Relation::identity(N));
    case B_Univ:
      return CatValue::set(Ex.universe());
    case B_Empty:
      return CatValue::set(Bitset(N));
    case B_R:
      return CatValue::set(Ex.kindSet(EventKind::Read));
    case B_W:
      return CatValue::set(Ex.kindSet(EventKind::Write));
    case B_M: {
      Bitset M = Ex.kindSet(EventKind::Read);
      M |= Ex.kindSet(EventKind::Write);
      return CatValue::set(std::move(M));
    }
    case B_F:
      return CatValue::set(Ex.kindSet(EventKind::Fence));
    case B_IW:
      return CatValue::set(Ex.initWrites());
    case B_Loc:
      return CatValue::rel(Ex.loc());
    case B_PoLoc:
      return CatValue::rel(relBase(B_Po) & relBase(B_Loc));
    case B_Rf:
      return CatValue::rel(Ex.Rf);
    case B_Co:
      return CatValue::rel(Ex.Co);
    case B_Fr:
      return CatValue::rel(Ex.fr());
    case B_Addr:
      return CatValue::rel(Ex.Addr);
    case B_Data:
      return CatValue::rel(Ex.Data);
    case B_Ctrl:
      return CatValue::rel(Ex.Ctrl);
    case B_Rfe:
      return CatValue::rel(Ex.Rf & relBase(B_Ext));
    case B_Rfi:
      return CatValue::rel(Ex.Rf & relBase(B_Int));
    case B_Coe:
      return CatValue::rel(Ex.Co & relBase(B_Ext));
    case B_Coi:
      return CatValue::rel(Ex.Co & relBase(B_Int));
    case B_Fre:
      return CatValue::rel(relBase(B_Fr) & relBase(B_Ext));
    case B_Fri:
      return CatValue::rel(relBase(B_Fr) & relBase(B_Int));
    }
    return CatValue();
  }

  const CatValue &tag(unsigned Tag) {
    if (AllStatic && Stable)
      return Stable->Tags[Tag];
    if (AllStatic && Building)
      return Building->Tags[Tag];
    if (!W.TagHas[Tag]) {
      W.Tags[Tag] = CatValue::set(Ex.tagSet(I.TagNames[Tag]));
      W.TagHas[Tag] = 1;
    }
    return W.Tags[Tag];
  }

  /// An identifier's value, by reference.
  const CatValue *ident(const CatExpr &E) {
    const Res &R = I.Refs[E.Ref];
    switch (R.K) {
    case Res::Kind::Base:
      return &base(R.Index);
    case Res::Kind::Slot:
      return &slot(R.Index);
    case Res::Kind::Tag:
      break;
    }
    return &tag(R.Index);
  }

  std::string err(const CatExpr &E, const std::string &Msg) {
    return strFormat("cat eval:%u: %s", E.Line, Msg.c_str());
  }

  /// Kleene fixpoint for let rec groups: start from empty relations,
  /// re-evaluate bodies until stable. All Cat recursions are monotone
  /// (union/seq/inter of monotone operands), so this terminates. Each
  /// body is evaluated into one reused temporary and swapped into its
  /// slot when it grew, so iterating allocates nothing.
  std::string evalRec(const CatStmt &S,
                      const CatEvaluator::Impl::StmtPlan &P) {
    for (const CatEvaluator::Impl::BindPlan &BP : P.Binds) {
      CatValue &Dst = slotRef(BP.Slot);
      Dst.K = CatValue::Kind::Rel;
      Dst.R = Relation(N);
      if (Building)
        Building->SlotHas[BP.Slot] = 1;
    }
    // Each iteration adds at least one pair or stops; N^2 pairs per
    // binding bounds the iteration count.
    unsigned MaxIters = N * N * unsigned(S.Bindings.size()) + 2;
    CatValue Tmp;
    for (unsigned Iter = 0; Iter != MaxIters; ++Iter) {
      bool Changed = false;
      for (size_t BI = 0; BI != S.Bindings.size(); ++BI) {
        const CatValue *V;
        if (std::string E = eval(S.Bindings[BI].Body, Tmp, V); !E.empty())
          return E;
        if (V->K == CatValue::Kind::Set)
          return "let rec binding '" + S.Bindings[BI].Name +
                 "' is not a relation";
        CatValue &Dst = slotRef(P.Binds[BI].Slot);
        if (V->K == CatValue::Kind::Zero) {
          if (!Dst.R.empty()) {
            Dst.R.clear();
            Changed = true;
          }
          continue;
        }
        if (V->R == Dst.R)
          continue;
        if (V == &Tmp)
          std::swap(Dst.R, Tmp.R);
        else
          Dst.R = V->R;
        Changed = true;
      }
      if (!Changed)
        return "";
    }
    return "let rec fixpoint did not converge";
  }

  std::string evalCheck(const CatCheck &C, bool &Holds) {
    CatValue Tmp;
    const CatValue *V;
    if (std::string E = eval(C.E, Tmp, V); !E.empty())
      return E;
    switch (C.T) {
    case CatCheck::Test::Acyclic:
      if (V->K == CatValue::Kind::Set)
        return err(C.E, "acyclic requires a relation");
      Holds = V->K == CatValue::Kind::Zero || V->R.isAcyclic();
      break;
    case CatCheck::Test::Irreflexive:
      if (V->K == CatValue::Kind::Set)
        return err(C.E, "irreflexive requires a relation");
      Holds = V->K == CatValue::Kind::Zero || V->R.isIrreflexive();
      break;
    case CatCheck::Test::Empty:
      Holds = V->K == CatValue::Kind::Zero ||
              (V->K == CatValue::Kind::Rel ? V->R.empty() : V->S.empty());
      break;
    }
    if (C.Negated)
      Holds = !Holds;
    return "";
  }

  /// Zero adapts to the kind of the other operand of a binary set or
  /// relation operator: it becomes the empty value of that kind, held
  /// in \p Tmp.
  void adaptZero(const CatValue *&V, CatValue::Kind To, CatValue &Tmp) {
    Tmp.K = To;
    if (To == CatValue::Kind::Rel)
      Tmp.R = Relation(N);
    else
      Tmp.S = Bitset(N);
    V = &Tmp;
  }

  /// Result slot of an operator: \p Out holds a relation over N events.
  static const CatValue *relResult(CatValue &Out, Relation R) {
    Out.K = CatValue::Kind::Rel;
    Out.R = std::move(R);
    return &Out;
  }

  /// Evaluates \p E. On success \p Res points at the value: \p Out for
  /// computed expressions, the bound value itself for identifiers.
  std::string eval(const CatExpr &E, CatValue &Out, const CatValue *&Res) {
    Res = &Out;
    switch (E.K) {
    case CatExpr::Kind::Zero:
      Out.K = CatValue::Kind::Zero;
      return "";
    case CatExpr::Kind::Id:
      Res = ident(E);
      return "";
    case CatExpr::Kind::Union:
    case CatExpr::Kind::Inter:
    case CatExpr::Kind::Diff: {
      CatValue LT, RT;
      const CatValue *L, *R;
      if (std::string Err = eval(E.Ops[0], LT, L); !Err.empty())
        return Err;
      if (std::string Err = eval(E.Ops[1], RT, R); !Err.empty())
        return Err;
      if (L->K == CatValue::Kind::Zero && R->K == CatValue::Kind::Zero) {
        Out.K = CatValue::Kind::Zero;
        return "";
      }
      if (L->K == CatValue::Kind::Zero)
        adaptZero(L, R->K, LT);
      if (R->K == CatValue::Kind::Zero)
        adaptZero(R, L->K, RT);
      if (L->K != R->K)
        return err(E, "operands mix a set and a relation");
      Out.K = L->K;
      if (L->K == CatValue::Kind::Rel) {
        Out.R = L->R;
        if (E.K == CatExpr::Kind::Union)
          Out.R |= R->R;
        else if (E.K == CatExpr::Kind::Inter)
          Out.R &= R->R;
        else
          Out.R -= R->R;
      } else {
        Out.S = L->S;
        if (E.K == CatExpr::Kind::Union)
          Out.S |= R->S;
        else if (E.K == CatExpr::Kind::Inter)
          Out.S &= R->S;
        else
          Out.S -= R->S;
      }
      return "";
    }
    case CatExpr::Kind::Seq: {
      CatValue LT, RT;
      const CatValue *L, *R;
      if (std::string Err = eval(E.Ops[0], LT, L); !Err.empty())
        return Err;
      if (std::string Err = eval(E.Ops[1], RT, R); !Err.empty())
        return Err;
      // Sets in a sequence act as identity filters, as in herd stdlib:
      // a set on the left masks rows, a set on the right masks columns.
      bool LSet = L->K == CatValue::Kind::Set;
      bool RSet = R->K == CatValue::Kind::Set;
      if (L->K == CatValue::Kind::Zero || R->K == CatValue::Kind::Zero)
        relResult(Out, Relation(N));
      else if (LSet && RSet)
        relResult(Out, Relation::identityOn(L->S & R->S));
      else if (LSet)
        relResult(Out, R->R.restricted(L->S, base(B_Univ).S));
      else if (RSet)
        relResult(Out, L->R.restricted(base(B_Univ).S, R->S));
      else
        relResult(Out, L->R.seq(R->R));
      return "";
    }
    case CatExpr::Kind::Cross: {
      CatValue LT, RT;
      const CatValue *L, *R;
      if (std::string Err = eval(E.Ops[0], LT, L); !Err.empty())
        return Err;
      if (std::string Err = eval(E.Ops[1], RT, R); !Err.empty())
        return Err;
      if (L->K == CatValue::Kind::Zero || R->K == CatValue::Kind::Zero) {
        relResult(Out, Relation(N));
        return "";
      }
      if (L->K != CatValue::Kind::Set || R->K != CatValue::Kind::Set)
        return err(E, "'*' requires two sets");
      relResult(Out, Relation::cross(L->S, R->S));
      return "";
    }
    case CatExpr::Kind::Inverse:
    case CatExpr::Kind::Plus:
    case CatExpr::Kind::Star:
    case CatExpr::Kind::Opt: {
      CatValue T;
      const CatValue *V;
      if (std::string Err = eval(E.Ops[0], T, V); !Err.empty())
        return Err;
      if (V->K == CatValue::Kind::Set)
        return err(E, "expected a relation");
      if (V->K == CatValue::Kind::Zero)
        adaptZero(V, CatValue::Kind::Rel, T);
      switch (E.K) {
      case CatExpr::Kind::Inverse:
        relResult(Out, V->R.inverse());
        break;
      case CatExpr::Kind::Plus:
        relResult(Out, V->R.transitiveClosure());
        break;
      case CatExpr::Kind::Star:
        relResult(Out, V->R.reflexiveTransitiveClosure());
        break;
      default:
        relResult(Out, V->R.optional());
        break;
      }
      return "";
    }
    case CatExpr::Kind::Bracket: {
      CatValue T;
      const CatValue *V;
      if (std::string Err = eval(E.Ops[0], T, V); !Err.empty())
        return Err;
      if (V->K == CatValue::Kind::Zero) {
        relResult(Out, Relation(N));
        return "";
      }
      if (V->K != CatValue::Kind::Set)
        return err(E, "'[...]' requires a set");
      relResult(Out, Relation::identityOn(V->S));
      return "";
    }
    case CatExpr::Kind::Domain:
    case CatExpr::Kind::Range: {
      CatValue T;
      const CatValue *V;
      if (std::string Err = eval(E.Ops[0], T, V); !Err.empty())
        return Err;
      if (V->K == CatValue::Kind::Set)
        return err(E, "expected a relation");
      if (V->K == CatValue::Kind::Zero)
        adaptZero(V, CatValue::Kind::Rel, T);
      Out.K = CatValue::Kind::Set;
      Out.S = E.K == CatExpr::Kind::Domain ? V->R.domain() : V->R.range();
      return "";
    }
    case CatExpr::Kind::FenceRel: {
      CatValue T;
      const CatValue *V;
      if (std::string Err = eval(E.Ops[0], T, V); !Err.empty())
        return Err;
      if (V->K == CatValue::Kind::Zero) {
        relResult(Out, Relation(N));
        return "";
      }
      if (V->K != CatValue::Kind::Set)
        return err(E, "fencerel requires a set");
      relResult(Out, Ex.Po.restricted(base(B_Univ).S, V->S).seq(Ex.Po));
      return "";
    }
    }
    return err(E, "unhandled expression kind");
  }

  const CatEvaluator::Impl &I;
  CatEvaluator::Impl::Scratch &W;
  const Execution &Ex;
  unsigned N;
  bool AllStatic;
  const CatStableLayer *Stable;
  CatStableLayer *Building;
};

} // namespace

CatEvaluator::CatEvaluator(const CatModel &Model)
    : P(std::make_unique<Impl>(Model)) {}

CatEvaluator::~CatEvaluator() = default;

void CatEvaluator::enterCombo(bool NewAllStatic,
                              std::shared_ptr<const CatStableLayer> Cached) {
  AllStatic = NewAllStatic;
  assert((!Cached || Cached->AllStatic == NewAllStatic) &&
         "adopted layer was built under a different stability assumption");
  Layer = std::move(Cached);
}

void CatEvaluator::setCaching(bool Enabled) {
  CachingEnabled = Enabled;
  if (!Enabled)
    Layer = nullptr;
}

const ModelVerdict &CatEvaluator::evaluate(const Execution &Ex) {
  ++Stats.Evaluations;
  if (!CachingEnabled)
    return Ctx(*P, Ex, AllStatic, nullptr, nullptr).run(Stats);
  if (!Layer) {
    auto Built = std::make_shared<CatStableLayer>();
    Ctx(*P, Ex, AllStatic, nullptr, Built.get()).buildStable();
    Layer = std::move(Built);
  }
  return Ctx(*P, Ex, AllStatic, Layer.get(), nullptr).run(Stats);
}

ModelVerdict telechat::evaluateCat(const CatModel &Model,
                                   const Execution &Ex) {
  CatEvaluator E(Model);
  E.enterCombo(/*AllStatic=*/false);
  return E.evaluate(Ex);
}
