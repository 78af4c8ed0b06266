//===--- Bench.h - The campaign benchmark's shared declarations -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign benchmark drives the telechat library from outside, the
/// way a compiler team running campaigns in CI does: it builds a
/// workload's corpus, runs it through runCampaignUnits (local
/// workloads) or a WorkServer with in-process runCampaignWorker
/// connections (served-gen), checks every verdict, and reports
/// end-to-end metrics. The traced run (Trace.cpp) re-runs the units
/// stage by stage through the public Fig. 5 stage functions for the
/// per-layer numbers. README.md documents the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/Campaign.h"
#include "diy/RealWorld.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using telechat::CampaignUnit;

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Process CPU time (all threads), in seconds.
double processCpuSeconds();

/// Quantile by linear interpolation between closest ranks; 0 for an
/// empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

enum class Workload { C11Xarch, RealworldSim, ServedGen };

/// Parsed command line (main.cpp refuses anything malformed).
struct Args {
  Workload W = Workload::C11Xarch;
  std::string WorkloadName;
  uint64_t Seed = 0;
  unsigned Seconds = 10;
  bool Trace = false;
  unsigned Jobs = 0;                            ///< Lanes, <= nproc.
  std::string RefDir = "perfbench/reference";   ///< Reference results.
  std::string OutDir = ".";                     ///< Journals and traces.
  bool WriteReference = false;
};

/// Verdict gate over every pass of a run: units the passes had to run,
/// and those that failed (error, timeout, coverage gap, a broken
/// realworld contract, a reference mismatch, or never run at all).
struct Gate {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Run-level faults (a source or server error, a traced result that
  /// differs from runCampaignUnit's): any of these fails the run.
  std::vector<std::string> Faults;
  std::vector<std::string> Samples; ///< First few per-unit failures.
  void unitFailed(const std::string &Why);
  void fault(const std::string &Why) { Faults.push_back(Why); }
  bool ok() const { return Failed == 0 && Faults.empty(); }
};

/// One workload's inputs, rebuilt by every pass's set-up.
struct Corpus {
  std::vector<telechat::CampaignConfig> Configs;
  /// Units in execution order (the seed's shuffle); ids are corpus
  /// positions. Empty for served-gen until materialise() is called.
  std::vector<CampaignUnit> Units;
  /// Realworld only: the RC11 contract of test i (unit id / configs).
  std::vector<telechat::WeakStatus> Contract;
  /// Served-gen only: the generator stream the server leases from.
  telechat::RandomGenOptions Gen;
  double GenSeconds = 0;    ///< Building the tests (diy layer).
  double ModelSeconds = 0;  ///< Cold parse of every model.
  double SetupSeconds = 0;  ///< The whole set-up.
};

/// Builds the corpus of \p A's workload (timed into the Corpus fields).
/// The local workloads' unit order is a shuffle drawn from the seed and
/// \p Pass, so a run's passes together cover several orders and the
/// figures depend less on which heavy units one order puts side by side.
Corpus setUp(const Args &A, unsigned Pass);

/// Served-gen: drains the generator stream into Corpus::Units (id order)
/// and returns the seconds it took.
double materialise(Corpus &C);

/// Name and config of every unit of a materialised corpus, by unit id.
std::vector<telechat::CampaignUnitMeta> metaById(const Corpus &C);

/// The reference results of a workload: one verdict and one digest of
/// its campaignResultsJson line per unit.
struct Reference {
  uint64_t Units = 0;
  uint64_t ConfigsDigest = 0;
  std::vector<std::string> Verdicts;
  std::vector<uint64_t> Digests;
};

/// Loads the reference results of \p A's workload (and generator seed).
/// Empty string on success.
std::string loadReference(const Args &A, const Corpus &C, Reference &Out);

/// Writes the reference file for these results (maintenance mode).
std::string writeReference(const Args &A, const Corpus &C,
                           const std::vector<telechat::CampaignUnitMeta> &M,
                           const std::vector<telechat::TelechatResult> &R);

/// The verdict gate of one pass: \p Results (corpus order, \p Ran[i]
/// true iff unit i produced a result) against the reference and, for
/// realworld, the contract.
void checkPass(const Corpus &C, const Reference &Ref,
               const std::vector<telechat::CampaignUnitMeta> &Meta,
               const std::vector<telechat::TelechatResult> &Results,
               const std::vector<uint8_t> &Ran, Gate &G);

/// What one timed pass measured.
struct PassStats {
  uint64_t Units = 0;
  double Wall = 0;   ///< Seconds from the first unit handed out to done.
  double Cpu = 0;    ///< Process CPU seconds over the same interval.
  double HandshakeSeconds = 0; ///< Served: server start -> first lease.
  std::vector<double> UnitMs;  ///< Time to verdict per unit.
  // Served-gen telemetry (zero for local passes).
  uint64_t Batches = 0, PollWakeups = 0, Requeues = 0, LeaseSizeMax = 0;
};

/// Runs the corpus locally over \p Pool lanes; results in corpus order.
PassStats runLocalPass(const Corpus &C, telechat::ThreadPool &Pool,
                       std::vector<telechat::TelechatResult> &Results,
                       std::vector<uint8_t> &Ran);

/// Serves the generator stream to two in-process workers with \p Lanes
/// lanes between them (dedupe and journal on, CLI default server
/// options); results and meta in corpus order.
PassStats runServedPass(const Args &A, const Corpus &C, unsigned Lanes,
                        std::vector<telechat::TelechatResult> &Results,
                        std::vector<telechat::CampaignUnitMeta> &Meta,
                        std::vector<uint8_t> &Ran, Gate &G);

/// A metric as printed in the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The traced run (Trace.cpp): per-layer metrics for \p A's workload;
/// verdict and equivalence failures are recorded in \p G.
std::vector<Metric> tracedRun(const Args &A, telechat::ThreadPool &Pool,
                              Gate &G);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
