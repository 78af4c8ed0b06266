//===--- Bitset.h - Dense set over small ids --------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bitset over ids 0..Size-1 used for event sets in candidate
/// executions and Cat model evaluation.
///
/// Candidate executions of litmus tests have tens of events, so a set
/// over a universe of at most 64 ids lives in one inline word and never
/// touches the heap; larger universes spill to a heap vector.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_BITSET_H
#define TELECHAT_SUPPORT_BITSET_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace telechat {

/// Dense set of small unsigned ids with value semantics.
///
/// All binary operations require both operands to have the same universe
/// size; this is asserted, not checked at runtime in release builds.
class Bitset {
public:
  /// Universes up to this size are stored inline, in one word.
  static constexpr unsigned kInlineBits = 64;

  Bitset() = default;
  explicit Bitset(unsigned UniverseSize) : Size(UniverseSize) {
    if (Size > kInlineBits)
      Spill.assign(numWords(), 0);
  }

  Bitset(const Bitset &) = default;
  Bitset &operator=(const Bitset &) = default;
  /// A moved-from set is the empty set over the empty universe.
  Bitset(Bitset &&RHS) noexcept
      : Size(RHS.Size), Inline(RHS.Inline), Spill(std::move(RHS.Spill)) {
    RHS.Size = 0;
  }
  Bitset &operator=(Bitset &&RHS) noexcept {
    if (this == &RHS)
      return *this;
    Size = RHS.Size;
    Inline = RHS.Inline;
    Spill = std::move(RHS.Spill);
    RHS.Size = 0;
    return *this;
  }

  /// Returns the set {0, ..., UniverseSize-1}.
  static Bitset all(unsigned UniverseSize) {
    Bitset S(UniverseSize);
    uint64_t *W = S.words();
    for (unsigned I = 0, E = S.numWords(); I != E; ++I)
      W[I] = ~uint64_t(0);
    S.clearTail();
    return S;
  }

  unsigned universeSize() const { return Size; }

  bool test(unsigned I) const {
    assert(I < Size && "Bitset::test out of range");
    return (words()[I / 64] >> (I % 64)) & 1;
  }

  void set(unsigned I) {
    assert(I < Size && "Bitset::set out of range");
    words()[I / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(unsigned I) {
    assert(I < Size && "Bitset::reset out of range");
    words()[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  /// Removes every element (the universe stays).
  void clear() {
    uint64_t *W = words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      W[I] = 0;
  }

  /// Number of elements in the set.
  unsigned count() const {
    unsigned N = 0;
    const uint64_t *W = words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      N += __builtin_popcountll(W[I]);
    return N;
  }

  bool empty() const {
    const uint64_t *W = words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      if (W[I])
        return false;
    return true;
  }

  Bitset &operator|=(const Bitset &RHS) {
    assert(Size == RHS.Size && "universe mismatch");
    uint64_t *W = words();
    const uint64_t *R = RHS.words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      W[I] |= R[I];
    return *this;
  }

  Bitset &operator&=(const Bitset &RHS) {
    assert(Size == RHS.Size && "universe mismatch");
    uint64_t *W = words();
    const uint64_t *R = RHS.words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      W[I] &= R[I];
    return *this;
  }

  /// Set difference: removes every element of \p RHS from this set.
  Bitset &operator-=(const Bitset &RHS) {
    assert(Size == RHS.Size && "universe mismatch");
    uint64_t *W = words();
    const uint64_t *R = RHS.words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      W[I] &= ~R[I];
    return *this;
  }

  friend Bitset operator|(Bitset LHS, const Bitset &RHS) { return LHS |= RHS; }
  friend Bitset operator&(Bitset LHS, const Bitset &RHS) { return LHS &= RHS; }
  friend Bitset operator-(Bitset LHS, const Bitset &RHS) { return LHS -= RHS; }

  /// Complement relative to the universe.
  Bitset complement() const {
    Bitset S = all(Size);
    S -= *this;
    return S;
  }

  bool operator==(const Bitset &RHS) const {
    if (Size != RHS.Size)
      return false;
    const uint64_t *L = words(), *R = RHS.words();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      if (L[I] != R[I])
        return false;
    return true;
  }
  bool operator!=(const Bitset &RHS) const { return !(*this == RHS); }

  /// Calls \p Fn for every element, in increasing order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    const uint64_t *Ws = words();
    for (unsigned WI = 0, WE = numWords(); WI != WE; ++WI) {
      uint64_t W = Ws[WI];
      while (W) {
        unsigned Bit = __builtin_ctzll(W);
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Elements as a vector, in increasing order.
  std::vector<unsigned> elements() const {
    std::vector<unsigned> Out;
    Out.reserve(count());
    forEach([&](unsigned I) { Out.push_back(I); });
    return Out;
  }

  /// Raw word access for the relation kernels: word I holds ids
  /// 64*I .. 64*I+63; bits past the universe are always zero.
  unsigned numWords() const { return (Size + 63) / 64; }
  const uint64_t *words() const {
    return Size <= kInlineBits ? &Inline : Spill.data();
  }
  uint64_t *words() { return Size <= kInlineBits ? &Inline : Spill.data(); }

private:
  void clearTail() {
    if (Size % 64 != 0)
      words()[numWords() - 1] &= (uint64_t(1) << (Size % 64)) - 1;
  }

  unsigned Size = 0;
  uint64_t Inline = 0;         ///< The set when Size <= kInlineBits.
  std::vector<uint64_t> Spill; ///< The set when Size > kInlineBits.
};

} // namespace telechat

#endif // TELECHAT_SUPPORT_BITSET_H
