//===--- Relation.h - Binary relations over small universes ----*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense bit-matrix binary relations with the relational algebra needed by
/// Cat memory models: union, intersection, difference, sequential
/// composition, inverse, transitive/reflexive closures, acyclicity and
/// emptiness checks, domain/range, and restriction.
///
/// Candidate executions have tens of events, so an O(N^2/64)-per-row dense
/// representation beats sparse structures in both time and simplicity.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_RELATION_H
#define TELECHAT_SUPPORT_RELATION_H

#include "support/Bitset.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace telechat {

/// A binary relation over {0..N-1}, stored as a row-major bit matrix.
///
/// Universes of at most kInlineEvents events (every litmus test of the
/// suites) keep their N one-word rows inline, so building, copying and
/// combining relations never allocates; larger universes spill to a heap
/// vector. Copies touch only the words in use.
class Relation {
public:
  /// Universes up to this size are stored inline, one word per row.
  static constexpr unsigned kInlineEvents = 64;

  Relation() = default;
  explicit Relation(unsigned UniverseSize);

  Relation(const Relation &RHS) { copyFrom(RHS); }
  Relation &operator=(const Relation &RHS) {
    if (this != &RHS)
      copyFrom(RHS);
    return *this;
  }
  /// A moved-from relation is the empty relation over the empty universe.
  Relation(Relation &&RHS) noexcept { moveFrom(RHS); }
  Relation &operator=(Relation &&RHS) noexcept {
    if (this != &RHS)
      moveFrom(RHS);
    return *this;
  }

  /// The identity relation {(i,i)}.
  static Relation identity(unsigned N);
  /// The full relation {0..N-1} x {0..N-1}.
  static Relation full(unsigned N);
  /// The cartesian product A x B of two sets over the same universe.
  static Relation cross(const Bitset &A, const Bitset &B);
  /// The identity restricted to a set: [S] = {(i,i) | i in S}.
  static Relation identityOn(const Bitset &S);

  unsigned universeSize() const { return N; }

  bool test(unsigned A, unsigned B) const {
    assert(A < N && B < N && "Relation::test out of range");
    return (row(A)[B / 64] >> (B % 64)) & 1;
  }

  void set(unsigned A, unsigned B) {
    assert(A < N && B < N && "Relation::set out of range");
    row(A)[B / 64] |= uint64_t(1) << (B % 64);
  }

  void reset(unsigned A, unsigned B) {
    assert(A < N && B < N && "Relation::reset out of range");
    row(A)[B / 64] &= ~(uint64_t(1) << (B % 64));
  }

  /// Removes every pair (the universe stays).
  void clear();

  /// Number of pairs in the relation.
  unsigned count() const;
  bool empty() const;

  Relation &operator|=(const Relation &RHS);
  Relation &operator&=(const Relation &RHS);
  /// Pair-wise difference.
  Relation &operator-=(const Relation &RHS);

  friend Relation operator|(Relation L, const Relation &R) { return L |= R; }
  friend Relation operator&(Relation L, const Relation &R) { return L &= R; }
  friend Relation operator-(Relation L, const Relation &R) { return L -= R; }

  bool operator==(const Relation &RHS) const;
  bool operator!=(const Relation &RHS) const { return !(*this == RHS); }

  /// Sequential composition: (a,c) iff exists b with (a,b) and (b,c).
  Relation seq(const Relation &RHS) const;

  /// The inverse relation r^-1.
  Relation inverse() const;

  /// Transitive closure r^+ (warshall over bit rows, O(N^2 * N/64)).
  Relation transitiveClosure() const;

  /// Reflexive-transitive closure r^*.
  Relation reflexiveTransitiveClosure() const;

  /// r? = r union identity.
  Relation optional() const;

  /// True iff the relation, read as a graph, has no cycle. Peels
  /// sources level by level (Kahn) instead of closing the relation.
  bool isAcyclic() const;

  /// True iff no (i,i) pair is present (does not close transitively).
  bool isIrreflexive() const;

  /// Pairs (a,b) with a in Dom and b in Ran: [Dom]; r; [Ran].
  Relation restricted(const Bitset &Dom, const Bitset &Ran) const;

  /// The set {a | exists b. (a,b)}.
  Bitset domain() const;
  /// The set {b | exists a. (a,b)}.
  Bitset range() const;

  /// All pairs as (from,to), in row-major order.
  std::vector<std::pair<unsigned, unsigned>> pairs() const;

  /// Calls \p Fn(a, b) for every pair.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (unsigned A = 0; A != N; ++A) {
      const uint64_t *Row = row(A);
      for (unsigned WI = 0; WI != WordsPerRow; ++WI) {
        uint64_t W = Row[WI];
        while (W) {
          unsigned Bit = __builtin_ctzll(W);
          Fn(A, WI * 64 + Bit);
          W &= W - 1;
        }
      }
    }
  }

private:
  bool isInline() const { return N <= kInlineEvents; }
  /// Words in use: N rows of WordsPerRow words.
  std::size_t numWords() const { return std::size_t(N) * WordsPerRow; }
  uint64_t *data() { return isInline() ? Inline : Spill.data(); }
  const uint64_t *data() const { return isInline() ? Inline : Spill.data(); }
  uint64_t *row(unsigned A) { return data() + std::size_t(A) * WordsPerRow; }
  const uint64_t *row(unsigned A) const {
    return data() + std::size_t(A) * WordsPerRow;
  }
  void copyFrom(const Relation &RHS);
  void moveFrom(Relation &RHS);
  /// Adds (i,i) for every i.
  void addDiagonal();

  unsigned N = 0;
  unsigned WordsPerRow = 0;
  /// The rows when N <= kInlineEvents; only the first N words are
  /// meaningful (and initialised).
  uint64_t Inline[kInlineEvents];
  /// The rows when N > kInlineEvents.
  std::vector<uint64_t> Spill;
};

} // namespace telechat

#endif // TELECHAT_SUPPORT_RELATION_H
