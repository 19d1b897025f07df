//===- support/KindScan.h - SIMD scan over event-kind bytes -----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vectorized scan for "interesting" kind bytes in a contiguous array.
/// The batched detection kernel only needs to know *where* the
/// synchronization events and invokes sit inside a batch; everything
/// between two sync events is a run over which every thread's clock is
/// constant. The trace layer encodes kinds so the sync kinds
/// (fork/join/acquire/release) are exactly the bytes below a small
/// threshold, and invokes the next byte up, which turns the scan into one
/// byte-compare.
///
/// Mirrors the FlatMap swiss-table pattern: an SSE2 group-of-16 path
/// (compare + movemask, one load per 16 kinds) selected at compile time,
/// with a scalar fallback that computes bit-identical output and is always
/// compiled so the two can be differentially tested on any host
/// (tests/KindScanTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_KINDSCAN_H
#define CRD_SUPPORT_KINDSCAN_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__) && !defined(CRD_DISABLE_SIMD)
#include <emmintrin.h>
#define CRD_KINDSCAN_HAVE_SSE2 1
#endif

namespace crd {

/// Appends `Base + i` to \p Out for every i in [0, N) with Kinds[i] <
/// \p Below, in increasing order. Portable reference implementation; the
/// SIMD path below must produce byte-identical output.
/// \pre every kind byte is < 128 (the compare is signed).
inline void appendKindPositionsScalar(const uint8_t *Kinds, size_t N,
                                      uint8_t Below, uint32_t Base,
                                      std::vector<uint32_t> &Out) {
  for (size_t I = 0; I != N; ++I)
    if (Kinds[I] < Below)
      Out.push_back(Base + static_cast<uint32_t>(I));
}

#ifdef CRD_KINDSCAN_HAVE_SSE2

/// SSE2 scan: one unaligned load, one signed byte-compare against the
/// threshold, one movemask per 16 kinds; set bits are drained in index
/// order so the output matches the scalar scan exactly. The tail shorter
/// than a group falls back to the scalar loop.
inline void appendKindPositions(const uint8_t *Kinds, size_t N, uint8_t Below,
                                uint32_t Base, std::vector<uint32_t> &Out) {
  const __m128i Limit = _mm_set1_epi8(static_cast<char>(Below));
  size_t I = 0;
  for (; I + 16 <= N; I += 16) {
    __m128i Group = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(Kinds + I));
    // Signed compare is safe: kind bytes stay far below 128.
    uint32_t Mask = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmplt_epi8(Group, Limit)));
    while (Mask != 0) {
      unsigned Bit = static_cast<unsigned>(std::countr_zero(Mask));
      Out.push_back(Base + static_cast<uint32_t>(I) + Bit);
      Mask &= Mask - 1;
    }
  }
  appendKindPositionsScalar(Kinds + I, N - I, Below,
                            Base + static_cast<uint32_t>(I), Out);
}

#else

inline void appendKindPositions(const uint8_t *Kinds, size_t N, uint8_t Below,
                                uint32_t Base, std::vector<uint32_t> &Out) {
  appendKindPositionsScalar(Kinds, N, Below, Base, Out);
}

#endif // CRD_KINDSCAN_HAVE_SSE2

} // namespace crd

#endif // CRD_SUPPORT_KINDSCAN_H
