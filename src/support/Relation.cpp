//===--- Relation.cpp - Binary relations over small universes ------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// Every kernel has a single-word fast path for universes of at most 64
// events, where a row is one uint64_t and a set is one word; the general
// loops handle the spilled representation.
//
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

#include <cstddef>
#include <cstring>

using namespace telechat;
using std::size_t;

Relation::Relation(unsigned UniverseSize)
    : N(UniverseSize), WordsPerRow((UniverseSize + 63) / 64) {
  if (isInline())
    std::memset(Inline, 0, N * sizeof(uint64_t));
  else
    Spill.assign(numWords(), 0);
}

void Relation::copyFrom(const Relation &RHS) {
  N = RHS.N;
  WordsPerRow = RHS.WordsPerRow;
  if (isInline()) {
    std::memcpy(Inline, RHS.Inline, N * sizeof(uint64_t));
    Spill.clear();
  } else {
    Spill = RHS.Spill;
  }
}

void Relation::moveFrom(Relation &RHS) {
  N = RHS.N;
  WordsPerRow = RHS.WordsPerRow;
  if (isInline())
    std::memcpy(Inline, RHS.Inline, N * sizeof(uint64_t));
  else
    Spill = std::move(RHS.Spill);
  RHS.N = 0;
  RHS.WordsPerRow = 0;
  RHS.Spill.clear();
}

Relation Relation::identity(unsigned N) {
  Relation R(N);
  R.addDiagonal();
  return R;
}

Relation Relation::full(unsigned N) {
  Relation R(N);
  for (unsigned A = 0; A != N; ++A)
    for (unsigned WI = 0; WI != R.WordsPerRow; ++WI)
      R.row(A)[WI] = ~uint64_t(0);
  // Clear bits beyond N in the last word of every row.
  if (N % 64 != 0) {
    uint64_t Mask = (uint64_t(1) << (N % 64)) - 1;
    for (unsigned A = 0; A != N; ++A)
      R.row(A)[R.WordsPerRow - 1] &= Mask;
  }
  return R;
}

Relation Relation::cross(const Bitset &A, const Bitset &B) {
  assert(A.universeSize() == B.universeSize() && "universe mismatch");
  Relation R(A.universeSize());
  const uint64_t *BW = B.words();
  A.forEach([&](unsigned I) {
    uint64_t *Row = R.row(I);
    for (unsigned WI = 0; WI != R.WordsPerRow; ++WI)
      Row[WI] = BW[WI];
  });
  return R;
}

Relation Relation::identityOn(const Bitset &S) {
  Relation R(S.universeSize());
  S.forEach([&](unsigned I) { R.set(I, I); });
  return R;
}

void Relation::clear() {
  uint64_t *D = data();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    D[I] = 0;
}

unsigned Relation::count() const {
  unsigned Total = 0;
  const uint64_t *D = data();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    Total += __builtin_popcountll(D[I]);
  return Total;
}

bool Relation::empty() const {
  const uint64_t *D = data();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    if (D[I])
      return false;
  return true;
}

bool Relation::operator==(const Relation &RHS) const {
  return N == RHS.N &&
         std::memcmp(data(), RHS.data(), numWords() * sizeof(uint64_t)) == 0;
}

Relation &Relation::operator|=(const Relation &RHS) {
  assert(N == RHS.N && "universe mismatch");
  uint64_t *D = data();
  const uint64_t *R = RHS.data();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    D[I] |= R[I];
  return *this;
}

Relation &Relation::operator&=(const Relation &RHS) {
  assert(N == RHS.N && "universe mismatch");
  uint64_t *D = data();
  const uint64_t *R = RHS.data();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    D[I] &= R[I];
  return *this;
}

Relation &Relation::operator-=(const Relation &RHS) {
  assert(N == RHS.N && "universe mismatch");
  uint64_t *D = data();
  const uint64_t *R = RHS.data();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    D[I] &= ~R[I];
  return *this;
}

Relation Relation::seq(const Relation &RHS) const {
  assert(N == RHS.N && "universe mismatch");
  Relation Out(N);
  if (WordsPerRow == 1) {
    for (unsigned A = 0; A != N; ++A) {
      uint64_t W = Inline[A], Acc = 0;
      while (W) {
        Acc |= RHS.Inline[__builtin_ctzll(W)];
        W &= W - 1;
      }
      Out.Inline[A] = Acc;
    }
    return Out;
  }
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *RowA = row(A);
    uint64_t *RowOut = Out.row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI) {
      uint64_t W = RowA[WI];
      while (W) {
        unsigned B = WI * 64 + __builtin_ctzll(W);
        W &= W - 1;
        const uint64_t *RowB = RHS.row(B);
        for (unsigned WJ = 0; WJ != WordsPerRow; ++WJ)
          RowOut[WJ] |= RowB[WJ];
      }
    }
  }
  return Out;
}

Relation Relation::inverse() const {
  Relation Out(N);
  forEach([&](unsigned A, unsigned B) { Out.set(B, A); });
  return Out;
}

Relation Relation::transitiveClosure() const {
  // Warshall's algorithm with bit-parallel row unions: if (A,K) then
  // row(A) |= row(K). Iterating K in the outer loop preserves correctness.
  Relation Out = *this;
  if (WordsPerRow == 1) {
    uint64_t *R = Out.Inline;
    for (unsigned K = 0; K != N; ++K) {
      const uint64_t Bit = uint64_t(1) << K, RowK = R[K];
      for (unsigned A = 0; A != N; ++A)
        if (R[A] & Bit)
          R[A] |= RowK;
    }
    return Out;
  }
  for (unsigned K = 0; K != N; ++K) {
    const uint64_t *RowK = Out.row(K);
    for (unsigned A = 0; A != N; ++A) {
      if (A == K || !Out.test(A, K))
        continue;
      uint64_t *RowA = Out.row(A);
      for (unsigned WI = 0; WI != WordsPerRow; ++WI)
        RowA[WI] |= RowK[WI];
    }
  }
  return Out;
}

void Relation::addDiagonal() {
  for (unsigned I = 0; I != N; ++I)
    set(I, I);
}

Relation Relation::reflexiveTransitiveClosure() const {
  Relation Out = transitiveClosure();
  Out.addDiagonal();
  return Out;
}

Relation Relation::optional() const {
  Relation Out = *this;
  Out.addDiagonal();
  return Out;
}

bool Relation::isAcyclic() const {
  // Kahn, one level at a time: the sources of the remaining subgraph are
  // the remaining nodes no remaining node points at. Peeling them cannot
  // create a cycle, so the relation is acyclic iff peeling empties it. A
  // self-loop keeps its node a target forever.
  if (WordsPerRow == 1) {
    uint64_t Remaining = N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1;
    while (Remaining) {
      uint64_t Targets = 0;
      for (uint64_t W = Remaining; W; W &= W - 1)
        Targets |= Inline[__builtin_ctzll(W)];
      uint64_t Sources = Remaining & ~Targets;
      if (!Sources)
        return false;
      Remaining &= ~Sources;
    }
    return true;
  }
  Bitset Remaining = Bitset::all(N);
  Bitset Targets(N);
  uint64_t *TW = Targets.words();
  while (!Remaining.empty()) {
    Targets.clear();
    Remaining.forEach([&](unsigned A) {
      const uint64_t *Row = row(A);
      for (unsigned WI = 0; WI != WordsPerRow; ++WI)
        TW[WI] |= Row[WI];
    });
    Targets &= Remaining;
    if (Targets == Remaining)
      return false;
    Remaining = Targets;
  }
  return true;
}

bool Relation::isIrreflexive() const {
  for (unsigned I = 0; I != N; ++I)
    if (test(I, I))
      return false;
  return true;
}

Relation Relation::restricted(const Bitset &Dom, const Bitset &Ran) const {
  assert(Dom.universeSize() == N && Ran.universeSize() == N &&
         "universe mismatch");
  Relation Out(N);
  if (WordsPerRow == 1) {
    const uint64_t RanW = Ran.words()[0];
    for (uint64_t W = Dom.words()[0]; W; W &= W - 1) {
      unsigned A = __builtin_ctzll(W);
      Out.Inline[A] = Inline[A] & RanW;
    }
    return Out;
  }
  const uint64_t *RanW = Ran.words();
  Dom.forEach([&](unsigned A) {
    const uint64_t *Row = row(A);
    uint64_t *RowOut = Out.row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI)
      RowOut[WI] = Row[WI] & RanW[WI];
  });
  return Out;
}

Bitset Relation::domain() const {
  Bitset Out(N);
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *Row = row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI)
      if (Row[WI]) {
        Out.set(A);
        break;
      }
  }
  return Out;
}

Bitset Relation::range() const {
  Bitset Out(N);
  uint64_t *OW = Out.words();
  for (unsigned A = 0; A != N; ++A) {
    const uint64_t *Row = row(A);
    for (unsigned WI = 0; WI != WordsPerRow; ++WI)
      OW[WI] |= Row[WI];
  }
  return Out;
}

std::vector<std::pair<unsigned, unsigned>> Relation::pairs() const {
  std::vector<std::pair<unsigned, unsigned>> Out;
  forEach([&](unsigned A, unsigned B) { Out.emplace_back(A, B); });
  return Out;
}
