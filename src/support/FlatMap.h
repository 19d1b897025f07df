//===- support/FlatMap.h - Swiss-table hash map -----------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A swiss-table open-addressing hash map for the detector hot path. The
/// per-event cost of Algorithm 1 is dominated by table probes — the object
/// table, the bindings table, each object's active-point table, and (since
/// the Table 1 rework) the lock-clock table — and node-based
/// std::unordered_map turns every probe into a pointer chase. FlatMap keeps
/// entries inline in one contiguous slot array with a parallel control-byte
/// array, so a probe touches the control bytes first and only visits slots
/// whose 7-bit hash fragment already matches.
///
/// Layout (the swiss-table trick, after Abseil's raw_hash_set):
///   * one control byte per slot: 0b1000'0000 = empty, 0b1111'1110 =
///     tombstone, 0b0hhh'hhhh = occupied by a key whose hash fragment
///     (top 7 bits of the mixed hash) is hhhhhhh;
///   * probing compares GroupWidth = 16 control bytes per step — a single
///     SSE2 _mm_cmpeq_epi8/_mm_movemask_epi8 pair when available, a
///     portable scalar loop otherwise (selected at compile time; both are
///     always compiled so tests can diff them);
///   * the control array carries GroupWidth cloned bytes past the end that
///     mirror the first GroupWidth entries, so group loads never wrap;
///   * probe windows advance by triangular strides (16, 48, 96, ...); with
///     a power-of-two capacity the sequence visits every window, and the
///     invariant "at least one empty byte exists" (enforced by the 7/8 max
///     load factor) guarantees termination;
///   * erase marks a tombstone only when the slot's neighborhood was ever
///     full; otherwise it re-empties the byte directly, so churny
///     insert/erase cycles at moderate load never accrete tombstones. When
///     tombstones do pile up, the table rehashes in place at the same
///     capacity instead of growing.
///
/// Unlike the previous robin-hood layout, entries never move except on
/// rehash, so references are stable under erase and under inserts that do
/// not grow the table; any insertion may still rehash, so callers that
/// cache pointers across insertions must hold values behind unique_ptr.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_FLATMAP_H
#define CRD_SUPPORT_FLATMAP_H

#include "support/Hashing.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SSE2__) && !defined(CRD_DISABLE_SIMD)
#include <emmintrin.h>
#define CRD_FLATMAP_HAVE_SSE2 1
#endif

namespace crd {

namespace flatmap_detail {

/// Control byte values. Occupied slots store the 7-bit hash fragment
/// (0..127); the two specials have the sign bit set so "occupied" is
/// exactly "byte >= 0".
enum Ctrl : int8_t {
  CtrlEmpty = -128,  // 0b1000'0000
  CtrlDeleted = -2,  // 0b1111'1110
};

constexpr size_t GroupWidth = 16;

/// Portable group-of-16 probe: computes the same bitmasks as the SSE2
/// group, one control byte at a time. Kept unconditionally so the SIMD
/// path can be differentially tested against it on any host.
struct GroupScalar {
  const int8_t *P;

  explicit GroupScalar(const int8_t *P) : P(P) {}

  uint32_t match(int8_t Fragment) const {
    uint32_t Mask = 0;
    for (size_t I = 0; I != GroupWidth; ++I)
      Mask |= uint32_t(P[I] == Fragment) << I;
    return Mask;
  }
  uint32_t matchEmpty() const {
    uint32_t Mask = 0;
    for (size_t I = 0; I != GroupWidth; ++I)
      Mask |= uint32_t(P[I] == CtrlEmpty) << I;
    return Mask;
  }
  uint32_t matchEmptyOrDeleted() const {
    uint32_t Mask = 0;
    for (size_t I = 0; I != GroupWidth; ++I)
      Mask |= uint32_t(P[I] < -1) << I; // Empty and deleted are < -1.
    return Mask;
  }
};

#ifdef CRD_FLATMAP_HAVE_SSE2
/// SSE2 group-of-16 probe: one unaligned load, one byte-compare, one
/// movemask per window.
struct GroupSse2 {
  __m128i Ctrl;

  explicit GroupSse2(const int8_t *P)
      : Ctrl(_mm_loadu_si128(reinterpret_cast<const __m128i *>(P))) {}

  uint32_t match(int8_t Fragment) const {
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_set1_epi8(Fragment), Ctrl)));
  }
  uint32_t matchEmpty() const { return match(CtrlEmpty); }
  uint32_t matchEmptyOrDeleted() const {
    // Signed compare: empty (-128) and deleted (-2) are < -1, fragments
    // (0..127) are not.
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpgt_epi8(_mm_set1_epi8(-1), Ctrl)));
  }
};
using GroupDefault = GroupSse2;
#else
using GroupDefault = GroupScalar;
#endif

} // namespace flatmap_detail

template <typename KeyT, typename ValueT, typename HashT = std::hash<KeyT>>
class FlatMap {
public:
  using value_type = std::pair<KeyT, ValueT>;

  static constexpr size_t GroupWidth = flatmap_detail::GroupWidth;

  FlatMap() = default;

  /// Grows so \p N entries fit without rehashing.
  void reserve(size_t N) {
    size_t Needed = capacityFor(N);
    if (Needed > Slots.size())
      rehash(Needed);
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  size_t capacity() const { return Slots.size(); }

  void clear() {
    std::fill(Ctrl.begin(), Ctrl.end(),
              static_cast<int8_t>(flatmap_detail::CtrlEmpty));
    for (value_type &Slot : Slots)
      Slot = value_type();
    Count = 0;
    GrowthLeft = maxLoad(Slots.size());
  }

  /// Returns the value mapped to \p K, or nullptr when absent. Probes 16
  /// control bytes per step (SIMD when available).
  ValueT *find(const KeyT &K) {
    return const_cast<ValueT *>(std::as_const(*this).find(K));
  }
  const ValueT *find(const KeyT &K) const {
    return findImpl<flatmap_detail::GroupDefault>(K);
  }

  /// The portable scalar probe over the same table. Exposed so tests can
  /// check the SIMD and scalar paths agree byte-for-byte; identical to
  /// find() on hosts without SSE2.
  ValueT *findScalar(const KeyT &K) {
    return const_cast<ValueT *>(std::as_const(*this).findScalar(K));
  }
  const ValueT *findScalar(const KeyT &K) const {
    return findImpl<flatmap_detail::GroupScalar>(K);
  }

  bool contains(const KeyT &K) const { return find(K) != nullptr; }

  /// Inserts a default-constructed value for \p K unless present. Returns
  /// the value slot and whether an insertion happened.
  std::pair<ValueT *, bool> tryEmplace(const KeyT &K) {
    uint64_t H = hashOf(K);
    if (!Slots.empty())
      if (const ValueT *Existing = findHashed<flatmap_detail::GroupDefault>(
              K, H))
        return {const_cast<ValueT *>(Existing), false};
    size_t I = prepareInsert(H);
    Slots[I].first = K;
    return {&Slots[I].second, true};
  }

  ValueT &operator[](const KeyT &K) { return *tryEmplace(K).first; }

  /// Erases \p K; returns whether it was present. Re-empties the control
  /// byte when the surrounding probe window still has empties (so no probe
  /// chain can have crossed this slot); otherwise leaves a tombstone.
  bool erase(const KeyT &K) {
    if (Count == 0)
      return false;
    uint64_t H = hashOf(K);
    size_t Mask = Slots.size() - 1;
    size_t Offset = static_cast<size_t>(H) & Mask;
    size_t Stride = 0;
    int8_t Fragment = fragmentOf(H);
    for (;;) {
      flatmap_detail::GroupDefault G(Ctrl.data() + Offset);
      uint32_t Matches = G.match(Fragment);
      while (Matches) {
        size_t I = (Offset + static_cast<size_t>(std::countr_zero(Matches))) &
                   Mask;
        if (Slots[I].first == K) {
          eraseAt(I);
          return true;
        }
        Matches &= Matches - 1;
      }
      if (G.matchEmpty())
        return false;
      Stride += GroupWidth;
      Offset = (Offset + Stride) & Mask;
      assert(Stride <= Slots.size() && "probe sequence cycled");
    }
  }

  /// Forward iteration over occupied slots; order unspecified. Stable under
  /// erase (entries never move), invalidated by insertion (rehash).
  template <bool Const> class IteratorImpl {
    using MapT = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type &, value_type &>;

  public:
    IteratorImpl(MapT *M, size_t I) : M(M), I(I) { skipNonFull(); }

    Ref operator*() const { return M->Slots[I]; }
    auto *operator->() const { return &M->Slots[I]; }
    IteratorImpl &operator++() {
      ++I;
      skipNonFull();
      return *this;
    }
    friend bool operator==(const IteratorImpl &A, const IteratorImpl &B) {
      return A.I == B.I;
    }

  private:
    void skipNonFull() {
      while (I != M->Slots.size() && M->Ctrl[I] < 0)
        ++I;
    }
    MapT *M;
    size_t I;
  };
  using iterator = IteratorImpl<false>;
  using const_iterator = IteratorImpl<true>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, Slots.size()}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, Slots.size()}; }

  /// Test/debug hook: checks the control-byte invariants — every occupied
  /// control byte equals its resident key's hash fragment, the cloned tail
  /// mirrors the head, every key is reachable through both probe paths,
  /// and the live count matches. Returns false on any violation.
  bool verifyControlInvariants() const {
    if (Slots.empty())
      return Count == 0;
    size_t Cap = Slots.size();
    size_t Live = 0;
    for (size_t I = 0; I != Cap; ++I) {
      if (Ctrl[I] >= 0) {
        ++Live;
        if (Ctrl[I] != fragmentOf(hashOf(Slots[I].first)))
          return false;
        if (findImpl<flatmap_detail::GroupDefault>(Slots[I].first) !=
            &Slots[I].second)
          return false;
        if (findImpl<flatmap_detail::GroupScalar>(Slots[I].first) !=
            &Slots[I].second)
          return false;
      }
    }
    for (size_t I = 0; I != GroupWidth; ++I)
      if (Ctrl[Cap + I] != Ctrl[I])
        return false;
    return Live == Count;
  }

private:
  static constexpr size_t MinCapacity = 16;
  static_assert(MinCapacity >= flatmap_detail::GroupWidth,
                "a capacity must cover at least one probe window");

  /// Max load factor 7/8: with at least capacity/8 empty control bytes the
  /// probe loop always terminates on matchEmpty.
  static size_t maxLoad(size_t Cap) { return Cap - Cap / 8; }

  static size_t capacityFor(size_t N) {
    size_t Cap = MinCapacity;
    while (N > maxLoad(Cap))
      Cap *= 2;
    return Cap;
  }

  uint64_t hashOf(const KeyT &K) const {
    return hashMix64(static_cast<uint64_t>(HashT{}(K)));
  }

  /// The 7-bit control fragment: top bits of the mixed hash, independent of
  /// the low bits that pick the probe window.
  static int8_t fragmentOf(uint64_t H) {
    return static_cast<int8_t>(H >> 57);
  }

  void setCtrl(size_t I, int8_t V) {
    Ctrl[I] = V;
    if (I < GroupWidth)
      Ctrl[Slots.size() + I] = V; // Keep the cloned tail in sync.
  }

  template <typename GroupT>
  const ValueT *findImpl(const KeyT &K) const {
    if (Count == 0)
      return nullptr;
    return findHashed<GroupT>(K, hashOf(K));
  }

  template <typename GroupT>
  const ValueT *findHashed(const KeyT &K, uint64_t H) const {
    size_t Mask = Slots.size() - 1;
    size_t Offset = static_cast<size_t>(H) & Mask;
    size_t Stride = 0;
    int8_t Fragment = fragmentOf(H);
    for (;;) {
      GroupT G(Ctrl.data() + Offset);
      uint32_t Matches = G.match(Fragment);
      while (Matches) {
        size_t I = (Offset + static_cast<size_t>(std::countr_zero(Matches))) &
                   Mask;
        if (Slots[I].first == K)
          return &Slots[I].second;
        Matches &= Matches - 1;
      }
      if (G.matchEmpty())
        return nullptr;
      Stride += GroupWidth;
      Offset = (Offset + Stride) & Mask;
      assert(Stride <= Slots.size() && "probe sequence cycled");
    }
  }

  /// Finds the slot for a key known to be absent (hash \p H), growing or
  /// purging tombstones when the table is at max load. Claims the slot
  /// (control byte, count, growth budget) and returns its index; the caller
  /// writes the entry.
  size_t prepareInsert(uint64_t H) {
    if (Slots.empty())
      rehash(MinCapacity);
    size_t I = findInsertSlot(H);
    if (Ctrl[I] == flatmap_detail::CtrlEmpty && GrowthLeft == 0) {
      // At max load counting tombstones. If the live count is at most half
      // the capacity the table is tombstone-bound: rehash in place at the
      // same capacity (dropping tombstones) instead of growing.
      rehash(Count * 2 <= Slots.size() ? Slots.size() : Slots.size() * 2);
      I = findInsertSlot(H);
    }
    if (Ctrl[I] == flatmap_detail::CtrlEmpty)
      --GrowthLeft;
    setCtrl(I, fragmentOf(H));
    ++Count;
    return I;
  }

  /// First empty-or-deleted slot along \p H's probe sequence.
  size_t findInsertSlot(uint64_t H) const {
    size_t Mask = Slots.size() - 1;
    size_t Offset = static_cast<size_t>(H) & Mask;
    size_t Stride = 0;
    for (;;) {
      flatmap_detail::GroupDefault G(Ctrl.data() + Offset);
      if (uint32_t M = G.matchEmptyOrDeleted())
        return (Offset + static_cast<size_t>(std::countr_zero(M))) & Mask;
      Stride += GroupWidth;
      Offset = (Offset + Stride) & Mask;
      assert(Stride <= Slots.size() && "probe sequence cycled");
    }
  }

  void eraseAt(size_t I) {
    // "Was never full" check (Abseil): a probe for any key passing through
    // slot I must have entered through the window before it or the window
    // starting at it. If both windows still contain an empty byte close
    // enough that every 16-wide window covering I sees one, no probe can
    // ever have skipped past I, and the slot can return to empty instead
    // of becoming a tombstone.
    size_t Mask = Slots.size() - 1;
    size_t Before = (I - GroupWidth) & Mask;
    uint32_t EmptyAfter =
        flatmap_detail::GroupDefault(Ctrl.data() + I).matchEmpty();
    uint32_t EmptyBefore =
        flatmap_detail::GroupDefault(Ctrl.data() + Before).matchEmpty();
    bool WasNeverFull =
        EmptyBefore && EmptyAfter &&
        static_cast<size_t>(std::countr_zero(EmptyAfter)) +
                static_cast<size_t>(std::countl_zero(EmptyBefore << 16)) <
            GroupWidth;
    setCtrl(I, WasNeverFull ? flatmap_detail::CtrlEmpty
                            : flatmap_detail::CtrlDeleted);
    if (WasNeverFull)
      ++GrowthLeft;
    Slots[I] = value_type(); // Release the entry's resources.
    --Count;
  }

  void rehash(size_t NewCap) {
    std::vector<value_type> OldSlots = std::move(Slots);
    std::vector<int8_t> OldCtrl = std::move(Ctrl);
    Slots = std::vector<value_type>(NewCap);
    Ctrl.assign(NewCap + GroupWidth,
                static_cast<int8_t>(flatmap_detail::CtrlEmpty));
    Count = 0;
    GrowthLeft = maxLoad(NewCap);
    for (size_t I = 0; I != OldSlots.size(); ++I)
      if (OldCtrl[I] >= 0) {
        size_t J = prepareInsert(hashOf(OldSlots[I].first));
        Slots[J] = std::move(OldSlots[I]);
      }
  }

  std::vector<value_type> Slots;
  /// One control byte per slot plus GroupWidth cloned bytes mirroring the
  /// first window, so unaligned group loads never wrap.
  std::vector<int8_t> Ctrl;
  size_t Count = 0;
  /// Empty slots that may still be converted to occupied before the table
  /// hits max load (tombstones count against the budget until a rehash
  /// reclaims them).
  size_t GrowthLeft = 0;
};

} // namespace crd

#endif // CRD_SUPPORT_FLATMAP_H
