//===--- Outcome.h - Outcomes of litmus-test executions ---------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Def. II.2 of the paper: an outcome is the result of an execution as a set
/// of assignments to shared memory ("[y]" = 2) and thread-local data
/// ("P1:r0" = 1). Outcome sets are what mcompare compares.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_LITMUS_OUTCOME_H
#define TELECHAT_LITMUS_OUTCOME_H

#include "litmus/Value.h"
#include "support/Interner.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace telechat {

/// A single outcome: a canonical (sorted, deduplicated) assignment from
/// observable keys to values. Keys use "P0:r0" for registers and "[x]"
/// for final memory.
///
/// Keys are interned (Symbol): copying an outcome copies no strings, and
/// the set-merges campaign drivers do on OutcomeSet compare pointers on
/// the equality fast path. Entries stay ordered by key *contents*, so
/// iteration order -- and therefore toString() and every campaign report
/// derived from it -- is identical in every process regardless of
/// interning order.
class Outcome {
public:
  static std::string regKey(const std::string &Thread,
                            const std::string &Reg) {
    return Thread + ":" + Reg;
  }
  static std::string locKey(const std::string &Loc) { return "[" + Loc + "]"; }

  /// Sets a key; overwrites an existing binding.
  void set(const std::string &Key, Value V) { set(internSymbol(Key), V); }
  void set(Symbol Key, Value V);

  /// Removes every binding (keeps the storage for reuse).
  void clear() { Entries.clear(); }

  /// Value of \p Key if bound.
  std::optional<Value> lookup(const std::string &Key) const;
  std::optional<Value> lookup(Symbol Key) const;

  /// Projection onto a subset of keys (used by state mappings; unbound
  /// keys are dropped).
  Outcome projected(const std::vector<std::string> &Keys) const;

  /// Renames keys via the given (from,to) pairs; unmapped keys are dropped.
  /// This is the mcompare state mapping m of paper §III-A step 5.
  Outcome renamed(
      const std::vector<std::pair<std::string, std::string>> &Map) const;

  /// Entries sorted by key contents.
  const std::vector<std::pair<Symbol, Value>> &entries() const {
    return Entries;
  }

  /// Lexicographic by (key contents, value): Symbol's operator< compares
  /// contents, so this matches the pre-interning ordering exactly.
  bool operator<(const Outcome &RHS) const { return Entries < RHS.Entries; }
  bool operator==(const Outcome &RHS) const { return Entries == RHS.Entries; }

  /// herd-style rendering: "[P1:r0=0; [y]=2;]".
  std::string toString() const;

private:
  std::vector<std::pair<Symbol, Value>> Entries; // sorted by key contents
};

/// The set of outcomes of a test under a model.
using OutcomeSet = std::set<Outcome>;

/// Renders an outcome set one outcome per line.
std::string outcomeSetToString(const OutcomeSet &S);

} // namespace telechat

#endif // TELECHAT_LITMUS_OUTCOME_H
