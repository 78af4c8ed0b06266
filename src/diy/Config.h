//===--- Config.h - Test-suite configuration (Table III) --------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration-driven suite generation, the analogue of the artefact's
/// c11.conf / c11_acq.conf. Enumerates Table III's construct grid:
/// (atomic | non-atomic | fences | control-flow | straight-line code)
/// over signed/unsigned integers of 8..64 bits, crossed with memory
/// orders.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIY_CONFIG_H
#define TELECHAT_DIY_CONFIG_H

#include "litmus/Ast.h"

#include <string>
#include <vector>

namespace telechat {

/// A suite configuration.
struct SuiteConfig {
  /// Base relaxation cycles (diy syntax; see parseCycle).
  std::vector<std::string> Cycles;
  std::vector<MemOrder> LoadOrders;
  std::vector<MemOrder> StoreOrders;
  std::vector<IntType> Types;
  /// Include plain-access variants (these race: the UB filter must
  /// discard their positive differences, paper §IV-D).
  bool IncludeNonAtomic = false;
  /// Maximum number of tests; 0 = unlimited.
  unsigned Limit = 0;

  /// The paper's c11.conf: all straight-line, fence, dependency and
  /// control-flow patterns with relaxed..seq_cst orders, 8..64-bit types.
  static SuiteConfig c11();
  /// The LDAPR case study corpus (§IV-F): acquire-load-heavy patterns.
  static SuiteConfig c11Acq();
};

/// Expands a configuration into concrete litmus tests.
std::vector<LitmusTest> generateSuite(const SuiteConfig &Config);

/// The generated suites a --suite flag names: c11, c11acq, realworld, and
/// realworld:<family> for each of realWorldFamilies().
std::vector<std::string> suiteNames();

/// The tests of suite \p Name (one of suiteNames(); empty for any other
/// name), at most \p Limit of them when it is nonzero.
std::vector<LitmusTest> suiteTests(const std::string &Name, unsigned Limit);

} // namespace telechat

#endif // TELECHAT_DIY_CONFIG_H
