//===- support/VectorClock.h - Vector clocks (paper §3.2) -------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector clocks: maps Tid -> N ordered pointwise, forming a lattice with
/// bottom ⊥V = λτ.0 (paper §3.2). Clocks are stored densely, indexed by
/// thread index, with implicit zero extension so that clocks over different
/// thread universes compose.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_VECTORCLOCK_H
#define CRD_SUPPORT_VECTORCLOCK_H

#include "support/Ids.h"
#include "support/SmallVec.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

// SIMD clock kernels: pointwise max (join) and pointwise ≤ (leq) over the
// dense uint32_t component arrays, 4 lanes per step. Mirrors the KindScan.h
// pattern: the scalar variants are always compiled (and differentially
// tested against the SIMD ones), and CRD_DISABLE_SIMD forces them
// everywhere. SSE2 has no unsigned 32-bit max/compare, so the kernels bias
// by 0x80000000 to map unsigned order onto signed compares.
#if defined(__SSE2__) && !defined(CRD_DISABLE_SIMD)
#define CRD_VECTORCLOCK_HAVE_SSE2 1
#include <emmintrin.h>
#endif

namespace crd {

/// A vector clock c ∈ Tid -> N with the pointwise lattice operations of
/// paper §3.2: ⊑ (leq), ⊔ (joinWith), ⊥ (default constructed) and inc_τ.
///
/// Entries for threads beyond the stored size are implicitly zero, so the
/// representation never needs to know the total number of threads up front.
/// Trailing zeros are kept normalized away, making equality structural.
class VectorClock {
public:
  /// Constructs ⊥V (all components zero).
  VectorClock() = default;

  /// Constructs a clock from explicit components (index i = thread i).
  explicit VectorClock(const std::vector<uint32_t> &Init) {
    Components.assign(Init.data(), Init.size());
    normalize();
  }

  /// Returns component c(τ); zero for threads beyond the stored size.
  uint32_t get(ThreadId Thread) const {
    return Thread.index() < Components.size() ? Components[Thread.index()] : 0;
  }

  /// Sets component c(τ) := Time.
  void set(ThreadId Thread, uint32_t Time);

  /// inc_τ: increments this clock's τ component by one.
  void increment(ThreadId Thread);

  /// c := c ⊔ Other (pointwise max). Returns true when any component grew
  /// — i.e. the representation changed. The chunk-memoization layer keys
  /// "this chunk was a state no-op" on exactly this signal.
  bool joinWith(const VectorClock &Other) {
#if defined(CRD_VECTORCLOCK_HAVE_SSE2)
    bool Changed = false;
    size_t N = Other.Components.size();
    if (N > Components.size()) {
      Components.resize(N);
      Changed = true; // Other is normalized, so its last component is > 0.
    }
    uint32_t *Dst = Components.data();
    const uint32_t *Src = Other.Components.data();
    size_t I = 0;
    if (N >= 4) {
      // Full 4-lane groups; the ≤ 3 trailing components go through the
      // scalar tail (lanes past size() hold garbage, never load them).
      __m128i Grew = _mm_setzero_si128();
      for (; I + 4 <= N; I += 4) {
        __m128i A =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(Dst + I));
        __m128i B =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(Src + I));
        const __m128i Bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
        __m128i BGtA = _mm_cmpgt_epi32(_mm_xor_si128(B, Bias),
                                       _mm_xor_si128(A, Bias));
        __m128i M = _mm_or_si128(_mm_and_si128(BGtA, B),
                                 _mm_andnot_si128(BGtA, A));
        Grew = _mm_or_si128(Grew, _mm_xor_si128(M, A));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(Dst + I), M);
      }
      Changed |= _mm_movemask_epi8(
                     _mm_cmpeq_epi32(Grew, _mm_setzero_si128())) != 0xFFFF;
    }
    for (; I != N; ++I)
      if (Src[I] > Dst[I]) {
        Dst[I] = Src[I];
        Changed = true;
      }
    // Join never introduces trailing zeros if neither operand had them, so
    // no normalize() is needed; both operands are kept normalized.
    return Changed;
#else
    return joinWithScalar(Other);
#endif
  }

  /// Scalar reference implementation of joinWith(); always compiled and
  /// bit-identical to the SIMD kernel (differentially tested).
  bool joinWithScalar(const VectorClock &Other) {
    bool Changed = false;
    if (Other.Components.size() > Components.size()) {
      Components.resize(Other.Components.size());
      Changed = true;
    }
    for (size_t I = 0, E = Other.Components.size(); I != E; ++I)
      if (Other.Components[I] > Components[I]) {
        Components[I] = Other.Components[I];
        Changed = true;
      }
    return Changed;
  }

  /// Returns c1 ⊔ c2 without mutating either operand.
  static VectorClock join(const VectorClock &A, const VectorClock &B);

  /// c1 ⊑ c2: pointwise less-or-equal.
  bool leq(const VectorClock &Other) const {
#if defined(CRD_VECTORCLOCK_HAVE_SSE2)
    size_t N = Components.size();
    if (N > Other.Components.size())
      return false; // Some component here is nonzero past Other's extent.
    const uint32_t *A = Components.data();
    const uint32_t *B = Other.Components.data();
    size_t I = 0;
    const __m128i Bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
    for (; I + 4 <= N; I += 4) {
      __m128i Va = _mm_loadu_si128(reinterpret_cast<const __m128i *>(A + I));
      __m128i Vb = _mm_loadu_si128(reinterpret_cast<const __m128i *>(B + I));
      __m128i AGtB = _mm_cmpgt_epi32(_mm_xor_si128(Va, Bias),
                                     _mm_xor_si128(Vb, Bias));
      if (_mm_movemask_epi8(AGtB) != 0)
        return false;
    }
    for (; I != N; ++I)
      if (A[I] > B[I])
        return false;
    return true;
#else
    return leqScalar(Other);
#endif
  }

  /// Scalar reference implementation of leq(); always compiled and
  /// bit-identical to the SIMD kernel (differentially tested).
  bool leqScalar(const VectorClock &Other) const {
    if (Components.size() > Other.Components.size())
      return false;
    for (size_t I = 0, E = Components.size(); I != E; ++I)
      if (Components[I] > Other.Components[I])
        return false;
    return true;
  }

  /// True when neither c1 ⊑ c2 nor c2 ⊑ c1: events with such clocks may
  /// happen in parallel (the ‖ relation).
  bool concurrentWith(const VectorClock &Other) const {
    return !leq(Other) && !Other.leq(*this);
  }

  /// True when every component is zero.
  bool isBottom() const { return Components.empty(); }

  /// Number of stored (non-implicit) components.
  size_t size() const { return Components.size(); }

  /// The stored components, index i = thread i.
  const uint32_t *data() const { return Components.data(); }

  friend bool operator==(const VectorClock &A, const VectorClock &B) {
    return A.Components == B.Components;
  }
  friend bool operator!=(const VectorClock &A, const VectorClock &B) {
    return !(A == B);
  }

  /// Renders e.g. ⟨3,0,1⟩ as "<3,0,1>".
  std::string toString() const;

  /// Upper bound of the bytes renderText() writes (support/TextRender.h).
  size_t textBound() const { return componentsTextBound(size()); }
  /// Writes toString()'s text at \p Out; returns the end.
  char *renderText(char *Out) const {
    return renderComponents(Out, data(), size());
  }

  /// The shared clock text rules, also used by race-record clocks: \p N
  /// components rendered as "<c0,c1,...>".
  static size_t componentsTextBound(size_t N) { return 2 + 11 * N; }
  static char *renderComponents(char *Out, const uint32_t *C, size_t N);

private:
  void normalize();

  /// Most traces sync across a handful of threads, so 8 inline components
  /// keep clock copies (race snapshots, Table 1 lock clocks) off the
  /// allocator entirely.
  SmallVec<uint32_t, 8> Components;
};

std::ostream &operator<<(std::ostream &OS, const VectorClock &VC);

} // namespace crd

#endif // CRD_SUPPORT_VECTORCLOCK_H
