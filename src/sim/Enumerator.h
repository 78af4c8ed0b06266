//===--- Enumerator.h - Candidate-execution enumeration ---------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The herd-style enumerator: paths x rf x co, with concrete value
/// resolution by least fixpoint and Cat-model filtering. Bounded testing
/// exactly as the paper describes (fixed initial state, fixed unrolling,
/// no recursion), with a step budget standing in for herd's wall-clock
/// timeout (§IV-E).
///
/// Two hot-path optimisations, both on by default and both outcome-
/// preserving (see the field docs for the precise guarantees):
///
///  - *rf value pruning*: read-value constraints implied by the chosen
///    path (branch conditions over loaded values) are propagated onto
///    the rf candidate lists and checked per assignment in O(events),
///    so value-inconsistent rf assignments die before the resolution
///    fixpoint -- and often before ever entering the index space.
///
///  - *incremental Cat evaluation*: the model's po-only-derived layer is
///    evaluated once per path combo (CatEvaluator) instead of once per
///    candidate; rf/co-dependent bindings are the only per-candidate
///    work. Workers splitting one combo's rf space share the layer.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SIM_ENUMERATOR_H
#define TELECHAT_SIM_ENUMERATOR_H

#include "cat/Eval.h"
#include "events/Execution.h"
#include "litmus/Outcome.h"
#include "sim/Program.h"

#include <cstdint>
#include <set>

namespace telechat {

/// Which consistency engine runs a simulation (sim/Backend.h). Both
/// backends explore the same candidate space in the same enumeration
/// order and produce byte-identical outcomes, flags and collected
/// executions on completed runs; they differ in *how* the space is
/// covered, which the work counters in SimStats measure.
enum class SimBackendKind : uint8_t {
  /// The explicit sweep: every rf index is drawn from the mixed-radix
  /// space and tested (Enumerator.cpp). Lowest per-candidate overhead;
  /// cost is proportional to the whole (filtered) space.
  Sweep = 0,
  /// The constraint solver (src/solve/): rf choices become decision
  /// variables, branch/value constraints compile to nogood clauses, and
  /// watched-literal propagation prunes dead subtrees of the decision
  /// tree instead of visiting them. Wins when constraints correlate
  /// several reads; pays a small per-node overhead when they do not.
  Solve = 1,
  /// Pick per program by estimated rf-space size (sim/Backend.h):
  /// small spaces sweep, explosion-prone ones solve.
  Auto = 2,
  /// The dynamic exploration oracle (src/explore/): runs the program
  /// under an instrumented cooperative scheduler with iteration- and
  /// context-switch-bounded search and per-atomic visibility-history
  /// tracking. Unlike the other backends it reports a sound *subset*
  /// of the exhaustive outcome set (every reported outcome is in it;
  /// some may be missed within budget) -- the only backend for which
  /// the byte-identity contract is relaxed to subset inclusion.
  Explore = 3,
};

/// Budgets and collection knobs for one simulation.
struct SimOptions {
  /// Budget in enumeration steps (rf/co candidates tried). Exceeding it
  /// reports a timeout, the simulator's analogue of herd's 1-hour limit.
  uint64_t MaxSteps = 2'000'000;
  /// Optional wall-clock limit; 0 disables.
  double TimeoutSeconds = 0.0;
  /// Keep allowed executions (for figures/DOT output).
  bool CollectExecutions = false;
  unsigned MaxCollectedExecutions = 64;
  /// Worker threads for sharded enumeration. 1 = sequential, 0 = one per
  /// hardware thread. The candidate space (path combos x rf assignments)
  /// is partitioned into shards consumed by a work-stealing scheduler;
  /// results merge in enumeration order, so a run that completes within
  /// budget is bit-identical for every Jobs value. Timed-out runs share
  /// one atomic step budget: total work stays bounded by MaxSteps, but
  /// *which* prefix of the space was explored depends on scheduling.
  /// Model-error runs likewise stop all workers at the first *observed*
  /// error; with several distinct error sites the reported Error text
  /// may differ across Jobs values (the run is aborted either way).
  unsigned Jobs = 1;
  /// Reject value-inconsistent rf assignments before the resolution
  /// fixpoint, and drop candidate writes that can never satisfy a path's
  /// read-value constraints from the rf lists. Pruning is conservative:
  /// an assignment is rejected only when the fixpoint provably would
  /// reject it, so Allowed/Flags/Executions and the ValueConsistent /
  /// CoCandidates / AllowedExecutions counters are bit-identical with
  /// the option on or off. Dropping writes shrinks the enumerated index
  /// space, so RfCandidates (and therefore step consumption) is smaller
  /// with pruning on: a budget-bounded run can complete under pruning
  /// where it would have timed out without.
  bool RfValuePruning = true;
  /// Sub-switch of RfValuePruning: track values through arithmetic with
  /// the single-source symbolic-transform domain (sim/AbsDomain.h).
  /// When false the abstract pass degrades to the copy-chain-only
  /// domain (constants and plain copies of one read's value; anything
  /// arithmetic becomes Top) -- the pre-transform baseline. Outcomes
  /// are bit-identical either way; the switch exists to measure the
  /// extra pruning and to pin the differential in tests
  /// (RfSourcesPrunedCopy with the domain on equals RfSourcesPruned
  /// with it off).
  bool RfTransformDomain = true;
  /// Evaluate the Cat model incrementally: cache the model's stable
  /// (po-only-derived) layer per path combo and re-evaluate only the
  /// rf/co-dependent layer per candidate. Verdicts are bit-identical to
  /// full evaluation for every candidate; this switch exists to measure
  /// the speedup and to pin that equivalence in tests.
  bool IncrementalCatEval = true;
  /// Which consistency engine runs (see SimBackendKind). Outcomes,
  /// flags and collected executions are byte-identical across backends
  /// on completed runs; each backend draws budget steps for its own
  /// unit of work (rf indexes drawn for the sweep, decisions for the
  /// solver), so a budget-bounded run may complete under one backend
  /// and time out under the other -- that asymmetry is the point.
  /// Backend::Explore relaxes the identity contract to subset
  /// inclusion: its outcome set is always contained in the exhaustive
  /// one, but may be smaller (see SimBackendKind::Explore).
  SimBackendKind Backend = SimBackendKind::Sweep;
  /// Scheduled iterations per path combo for the explore backend. Each
  /// iteration runs the program once under one schedule; distinct rf
  /// assignments discovered across iterations are validated through the
  /// exhaustive per-assignment machinery, so raising the budget widens
  /// coverage without ever admitting an unsound outcome.
  uint64_t ExploreIterations = 512;
  /// Seed of the deterministic per-iteration PRNG. The schedule of
  /// iteration i of combo c is a pure function of (seed, c, i), so
  /// explore results are bit-identical across Jobs values and runs.
  uint64_t ExploreSeed = 1;
  /// Preemption bound for the randomized schedules (even iterations): a
  /// schedule may switch away from a runnable thread at most this many
  /// times before degenerating to run-to-completion. Small bounds focus
  /// iterations on the low-preemption schedules where most weak-memory
  /// bugs live (the CHESS observation); 0 means unpreempted only.
  unsigned ExploreMaxContextSwitches = 8;
  /// Campaign budget split: when nonzero and Backend is not Explore,
  /// simulate() reroutes programs whose estimatedRfSpace() is at least
  /// this to the explore backend -- exhaustive work for small spaces,
  /// bounded dynamic coverage where enumeration would time out. A pure
  /// function of the program, so every party of a distributed campaign
  /// splits identically. 0 (default) disables the split.
  uint64_t ExploreBudget = 0;
};

/// Counters for one simulation run. All counters except Seconds are
/// deterministic for a fixed (program, model, options) on completed
/// runs, regardless of Jobs (the parallel merge reassembles them in
/// enumeration order).
struct SimStats {
  uint64_t PathCombos = 0;
  uint64_t RfCandidates = 0;      ///< rf assignments drawn from the space.
  uint64_t ValueConsistent = 0;   ///< ... that survived value resolution.
  uint64_t CoCandidates = 0;
  uint64_t AllowedExecutions = 0;
  /// (read, candidate write) pairs removed from rf candidate lists by
  /// constraint propagation, summed over path combos. Each removed pair
  /// divides the enumerated space, so small numbers here can mean large
  /// space reductions. Always RfSourcesPrunedCopy + RfSourcesPrunedXform.
  uint64_t RfSourcesPruned = 0;
  /// ... of which pairs a copy-chain-only domain already catches: some
  /// violated constraint binds the read through the identity transform
  /// (a plain copy of the loaded value).
  uint64_t RfSourcesPrunedCopy = 0;
  /// ... of which pairs only the symbolic-transform domain catches:
  /// every violated constraint sees the read through arithmetic
  /// (r^1, r+1, width truncations, 128-bit half slices, RMW combines).
  uint64_t RfSourcesPrunedXform = 0;
  /// Enumerated rf assignments rejected by the O(events) constraint
  /// check before the value-resolution fixpoint (each of these skipped
  /// one fixpoint).
  uint64_t RfPruned = 0;
  /// Cat binding and check evaluations served from the per-combo stable
  /// layer instead of being recomputed per candidate -- the work a
  /// non-incremental evaluator would have done.
  uint64_t CatEvalsAvoided = 0;
  // --- Solver-only work counters (src/solve/; zero under the sweep).
  // Deterministic for a fixed (program, model, options) on completed
  // runs regardless of Jobs, like every other counter here.
  /// Decision-tree nodes visited: one rf candidate tried at one read.
  /// The solver's budget currency -- compare against RfCandidates to
  /// see how much of the swept space the decision tree skipped.
  uint64_t SolveDecisions = 0;
  /// (read, candidate write) pairs removed from open domains by
  /// watched-literal unit propagation.
  uint64_t SolvePropagations = 0;
  /// Dead subtrees abandoned: a clause fully matched, a violated
  /// branch/value check, or a propagation wiped an open domain.
  uint64_t SolveConflicts = 0;
  /// Nogood clauses in play: pair constraints compiled up front plus
  /// support nogoods learned from violated checks during search.
  uint64_t SolveClauses = 0;
  // --- Explore-only work counters (src/explore/; zero elsewhere).
  // Deterministic for a fixed (program, model, options) regardless of
  // Jobs: per-combo work is a pure function of (seed, combo, i).
  /// Scheduled program executions attempted, summed over path combos
  /// (aborted-stuck iterations included: they spent the schedule).
  uint64_t ExploreIterations = 0;
  /// Distinct complete rf assignments the schedules reached -- the
  /// exploration's effective coverage currency. Compare against
  /// RfCandidates (the assignments actually validated) and the sweep's
  /// space to see how much of it the scheduler found.
  uint64_t ExploreSchedules = 0;
  /// Outcomes in the reported (sound-subset) set; stamped post-merge so
  /// subset-mode consumers can read coverage without the outcome set.
  uint64_t ExploreOutcomesFound = 0;
  /// Which backend actually ran (SimBackendKind::Sweep, ::Solve or
  /// ::Explore; Auto resolves before the run). Reported per unit in
  /// stats lines and campaign JSON so mixed-backend campaigns stay
  /// attributable -- and so subset-mode comparison (core/MCompare.h)
  /// knows the target set is a sound subset, not the full set.
  uint8_t BackendUsed = 0;
  double Seconds = 0.0;
};

/// The result of simulating a program under a model.
struct SimResult {
  OutcomeSet Allowed;           ///< Outcomes of model-allowed executions.
  std::set<std::string> Flags;  ///< Flags fired on allowed executions
                                ///< ("race", "const-violation", ...).
  bool TimedOut = false;
  std::string Error;            ///< Model evaluation error, empty if ok.
  SimStats Stats;
  std::vector<Execution> Executions; ///< If requested: allowed executions.

  bool ok() const { return Error.empty(); }
};

/// Enumerates all candidate executions of \p Program, filters them through
/// \p Model, and collects outcomes of the allowed ones. This is the
/// *sweep* backend's entry point; call sim/Backend.h's simulate() instead
/// unless you specifically want the sweep regardless of
/// SimOptions::Backend.
SimResult enumerateExecutions(const SimProgram &Program,
                              const CatModel &Model,
                              const SimOptions &Options = SimOptions());

/// True when the final condition of \p Program holds for \p Result
/// (exists: some allowed outcome satisfies it; forall: all do; ~exists:
/// none does).
bool finalConditionHolds(const SimProgram &Program, const SimResult &Result);

} // namespace telechat

#endif // TELECHAT_SIM_ENUMERATOR_H
