//===--- main.cpp - The campaign benchmark driver -------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload c11-xarch|realworld-sim|served-gen --seed N
///           [--seconds S] [--trace 0|1] [--jobs J]
///           [--ref-dir DIR] [--out-dir DIR] [--write-reference]
///
/// Repeats the workload's campaign (set-up, timed run, verdict gate)
/// until --seconds have passed and prints every metric by name with its
/// unit; the last stdout line is one JSON object. Exit 1 when any
/// verdict check failed, 2 on a bad command line, 3 when the run stops
/// making progress.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace telechat;
using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  fprintf(stderr,
          "perfbench: %s\n"
          "usage: perfbench --workload c11-xarch|realworld-sim|served-gen "
          "--seed N [--seconds S] [--trace 0|1] [--jobs J] [--ref-dir DIR] "
          "[--out-dir DIR] [--write-reference]\n",
          Why.c_str());
  exit(2);
}

/// A whole-string unsigned decimal in [Lo, Hi]; anything else refuses.
uint64_t parseNumber(const char *Flag, const char *V, uint64_t Lo,
                     uint64_t Hi) {
  size_t Len = strlen(V);
  bool Digits = Len > 0 && Len <= 19;
  for (size_t I = 0; Digits && I != Len; ++I)
    Digits = isdigit(static_cast<unsigned char>(V[I]));
  uint64_t N = Digits ? strtoull(V, nullptr, 10) : 0;
  if (!Digits || N < Lo || N > Hi)
    usage(std::string(Flag) + " expects a whole number in [" +
          std::to_string(Lo) + ", " + std::to_string(Hi) + "], got '" + V +
          "'");
  return N;
}

unsigned onlineCpus() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? unsigned(N) : 1;
}

Args parseArgs(int argc, char **argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false, HaveJobs = false;
  std::vector<std::string> Seen;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    for (const std::string &S : Seen)
      if (S == Flag)
        usage(Flag + " given twice");
    Seen.push_back(Flag);
    if (Flag == "--write-reference") {
      A.WriteReference = true;
      continue;
    }
    if (I + 1 >= argc)
      usage(Flag + " needs a value");
    const char *V = argv[++I];
    if (Flag == "--workload") {
      A.WorkloadName = V;
      if (A.WorkloadName == "c11-xarch")
        A.W = Workload::C11Xarch;
      else if (A.WorkloadName == "realworld-sim")
        A.W = Workload::RealworldSim;
      else if (A.WorkloadName == "served-gen")
        A.W = Workload::ServedGen;
      else
        usage("unknown workload '" + A.WorkloadName + "'");
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = parseNumber("--seed", V, 0, UINT64_MAX / 2);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      A.Seconds = unsigned(parseNumber("--seconds", V, 1, 600));
    } else if (Flag == "--trace") {
      A.Trace = parseNumber("--trace", V, 0, 1) == 1;
    } else if (Flag == "--jobs") {
      A.Jobs = unsigned(parseNumber("--jobs", V, 1, 1024));
      HaveJobs = true;
    } else if (Flag == "--ref-dir") {
      A.RefDir = V;
    } else if (Flag == "--out-dir") {
      A.OutDir = V;
    } else {
      usage("unknown option '" + Flag + "'");
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (!HaveSeed)
    usage("--seed is required");
  unsigned Cpus = onlineCpus();
  if (!HaveJobs)
    A.Jobs = Cpus < 4 ? Cpus : 4;
  if (A.Jobs > Cpus)
    usage("--jobs " + std::to_string(A.Jobs) + " is wider than the " +
          std::to_string(Cpus) + " online processors");
  // The server thread plus at least one lane on each of two workers.
  if (A.W == Workload::ServedGen && A.Jobs < 3)
    usage("served-gen needs --jobs >= 3 (server + two worker lanes)");
  return A;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// Prints the result line, the last line of stdout, and returns the exit
/// code. A run that attempted nothing (no reference results) prints no
/// result line.
int printResult(const Gate &G, const std::vector<Metric> &Metrics) {
  if (G.Attempted == 0)
    return 1;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         G.ok() ? "true" : "false", (unsigned long long)G.Attempted,
         (unsigned long long)G.Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", I ? ", " : "",
           Metrics[I].Name.c_str(), Metrics[I].Value,
           Metrics[I].Unit.c_str());
  printf("}}\n");
  return G.ok() ? 0 : 1;
}

void printGate(const Gate &G) {
  printf("verdict gate: %llu of %llu units failed (failed_share %.6f)\n",
         (unsigned long long)G.Failed, (unsigned long long)G.Attempted,
         G.Attempted ? double(G.Failed) / double(G.Attempted) : 1.0);
  for (const std::string &S : G.Samples)
    printf("  FAILED %s\n", S.c_str());
  for (const std::string &F : G.Faults)
    printf("  FAULT  %s\n", F.c_str());
}

/// Maintenance: one pass, written as the workload's reference file.
int writeReferenceMode(const Args &A, ThreadPool &Pool) {
  Corpus C = setUp(A, 0);
  std::vector<TelechatResult> Results;
  std::vector<CampaignUnitMeta> Meta;
  std::vector<uint8_t> Ran;
  Gate G;
  if (A.W == Workload::ServedGen) {
    runServedPass(A, C, A.Jobs - 1, Results, Meta, Ran, G);
  } else {
    runLocalPass(C, Pool, Results, Ran);
    Meta = metaById(C);
  }
  if (!G.ok()) {
    printGate(G);
    return 1;
  }
  std::string E = writeReference(A, C, Meta, Results);
  if (!E.empty()) {
    fprintf(stderr, "perfbench: %s\n", E.c_str());
    return 1;
  }
  printf("wrote the %s reference (%zu units)\n", A.WorkloadName.c_str(),
         Results.size());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  // A program that stops making progress (a lease never answered, a
  // simulation that never ends) must fail the run, not hang it.
  std::thread([Limit = A.Seconds + 120u] {
    std::this_thread::sleep_for(std::chrono::seconds(Limit));
    fprintf(stderr, "perfbench: no result after %u s; giving up\n", Limit);
    _exit(3);
  }).detach();
  ThreadPool Pool(A.Jobs);
  if (A.WriteReference)
    return writeReferenceMode(A, Pool);
  printf("perfbench %s seed=%llu jobs=%u seconds=%u trace=%d\n",
         A.WorkloadName.c_str(), (unsigned long long)A.Seed, A.Jobs,
         A.Seconds, int(A.Trace));

  Gate G;
  if (A.Trace) {
    std::vector<Metric> Layers = tracedRun(A, Pool, G);
    for (const Metric &M : Layers)
      printf("  %-34s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
    printGate(G);
    return printResult(G, Layers);
  }

  // End-to-end: whole campaigns, each with its own set-up, until the
  // time is up. The first pass is the warm-up for the timed figures.
  // Rates are medians over the passes after it: a burst of outside load
  // during one pass moves a median less than a pooled figure. Latency
  // percentiles are taken over each unit's best time across those
  // passes: a tail of a dozen long units moves with whatever a noisy
  // neighbour does while they run, and the best of several passes,
  // each in its own unit order, leaves the time the unit itself needs.
  Clock::time_point RunStart = Clock::now();
  std::vector<double> Setup, UnitsPerS, CpuMsPerUnit, BestMs;
  unsigned TimedPasses = 0;
  for (unsigned Pass = 0;; ++Pass) {
    // Hand the last pass's freed memory back, so the peak RSS is one
    // pass's working set rather than accumulated fragmentation.
    malloc_trim(0);
    Corpus C = setUp(A, Pass);
    Reference Ref;
    std::string E = loadReference(A, C, Ref);
    if (!E.empty()) {
      G.fault(E);
      break;
    }
    std::vector<TelechatResult> Results;
    std::vector<CampaignUnitMeta> Meta;
    std::vector<uint8_t> Ran;
    PassStats S;
    if (A.W == Workload::ServedGen) {
      S = runServedPass(A, C, A.Jobs - 1, Results, Meta, Ran, G);
    } else {
      S = runLocalPass(C, Pool, Results, Ran);
      Meta = metaById(C);
    }
    checkPass(C, Ref, Meta, Results, Ran, G);
    Setup.push_back(C.SetupSeconds + S.HandshakeSeconds);
    if (Pass == 1) {
      UnitsPerS.clear();
      CpuMsPerUnit.clear();
      BestMs.clear();
      TimedPasses = 0;
    }
    printf("pass %u: set-up %.4f s, %llu units in %.3f s (%.1f units/s), "
           "cpu %.3f ms/unit\n",
           Pass, Setup.back(), (unsigned long long)S.Units, S.Wall,
           S.Wall > 0 ? double(S.Units) / S.Wall : 0.0,
           S.Units ? 1e3 * S.Cpu / double(S.Units) : 0.0);
    if (S.Units && S.Wall > 0) {
      UnitsPerS.push_back(double(S.Units) / S.Wall);
      CpuMsPerUnit.push_back(1e3 * S.Cpu / double(S.Units));
      // Unit ids are corpus positions, the same in every pass.
      if (BestMs.empty())
        BestMs = S.UnitMs;
      for (size_t I = 0; I != BestMs.size() && I != S.UnitMs.size(); ++I)
        BestMs[I] = std::min(BestMs[I], S.UnitMs[I]);
      ++TimedPasses;
    }
    if (!G.ok() || secondsBetween(RunStart, Clock::now()) >= A.Seconds)
      break;
  }

  std::vector<Metric> Metrics = {
      {"units_per_s", median(UnitsPerS), "1/s"},
      {"unit_ms_p50", quantile(BestMs, 0.5), "ms"},
      {"unit_ms_p99", quantile(BestMs, 0.99), "ms"},
      {"cpu_ms_per_unit", median(CpuMsPerUnit), "ms"},
      {"setup_s", median(Setup), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  printf("passes: %zu (%u timed after the warm-up), unit latency samples "
         "(best of %u passes each): %zu (%zu beyond p99)\n",
         Setup.size(), TimedPasses, TimedPasses, BestMs.size(),
         BestMs.size() / 100);
  for (const Metric &M : Metrics)
    printf("  %-16s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  printGate(G);
  return printResult(G, Metrics);
}
