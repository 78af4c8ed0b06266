//===--- BenchUtil.h - Shared helpers for bench binaries --------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small shared utilities for the bench/ binaries that regenerate the
/// paper's tables and figures. Scale with TELECHAT_BENCH_SCALE=full for
/// the unscaled sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_BENCH_BENCHUTIL_H
#define TELECHAT_BENCH_BENCHUTIL_H

#include "sim/Enumerator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace telechat_bench {

inline bool fullScale() {
  const char *Env = getenv("TELECHAT_BENCH_SCALE");
  return Env && strcmp(Env, "full") == 0;
}

/// Worker threads for the campaign-style benches; TELECHAT_BENCH_JOBS
/// overrides, default 0 = one per hardware thread.
inline unsigned benchJobs() {
  const char *Env = getenv("TELECHAT_BENCH_JOBS");
  return Env ? unsigned(strtoul(Env, nullptr, 0)) : 0;
}

inline void header(const std::string &Title) {
  printf("\n============================================================\n");
  printf("%s\n", Title.c_str());
  printf("============================================================\n");
}

/// Exports every SimStats counter into the benchmark JSON under its
/// campaign-JSON key, so CI artifacts track the work split over time.
inline void exportCounters(benchmark::State &State,
                           const telechat::SimStats &S) {
  for (const telechat::SimCounter &C : telechat::kSimCounters)
    State.counters[C.Key] = double(S.*C.Field);
}

} // namespace telechat_bench

#endif // TELECHAT_BENCH_BENCHUTIL_H
