//===- wire/Crc32.cpp - CRC-32 checksums -------------------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "wire/Crc32.h"

#include <array>

// The fold is compiled for x86 only, with a per-function target attribute:
// the default flags never enable PCLMULQDQ, so a compile-time feature test
// would always pick the table loop. Whether the CPU has it is decided at
// run time (cpuHasPclmul()).
#if (defined(__x86_64__) || defined(__i386__)) && !defined(CRD_DISABLE_SIMD)
#define CRD_CRC32_HAVE_FOLD 1
#include <emmintrin.h>
#include <wmmintrin.h>
#endif

using namespace crd;

namespace {

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> Table{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    Table[I] = C;
  }
  return Table;
}

constexpr std::array<uint32_t, 256> Crc32Table = makeTable();

/// Advances the running (inverted) CRC state \p C over \p Size bytes.
uint32_t tableUpdate(uint32_t C, const uint8_t *P, size_t Size) {
  for (size_t I = 0; I != Size; ++I)
    C = Crc32Table[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C;
}

#if defined(CRD_CRC32_HAVE_FOLD)
#define CRD_PCLMUL __attribute__((target("pclmul")))

CRD_PCLMUL __m128i loadLane(const uint8_t *At) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(At));
}

/// Folds the 128-bit lane \p X forward by the distance \p K encodes and
/// adds the lane \p Next it lands on: hi(X)*hi(K) ^ lo(X)*lo(K) ^ Next.
CRD_PCLMUL __m128i foldLane(__m128i X, __m128i K, __m128i Next) {
  __m128i Lo = _mm_clmulepi64_si128(X, K, 0x00);
  __m128i Hi = _mm_clmulepi64_si128(X, K, 0x11);
  return _mm_xor_si128(_mm_xor_si128(Hi, Lo), Next);
}

/// Advances the running (inverted) CRC state \p C over \p Size bytes, a
/// multiple of 16 and at least 64, by carry-less multiplication: four
/// 128-bit lanes fold forward 64 bytes at a time, merge into one lane that
/// folds 16 bytes at a time, and the last lane reduces 128 -> 64 -> 32
/// bits, the final step by Barrett reduction. The constants are powers of
/// x modulo the bit-reflected polynomial, from Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009): k1,k2 fold 512 bits, k3,k4 fold 128 bits, k5 folds
/// 64 bits, and P', mu drive the Barrett step.
CRD_PCLMUL uint32_t foldUpdate(uint32_t C, const uint8_t *P, size_t Size) {
  const __m128i K1K2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i K3K4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i K5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i PMu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i Low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i X1 =
      _mm_xor_si128(loadLane(P), _mm_cvtsi32_si128(static_cast<int>(C)));
  __m128i X2 = loadLane(P + 16), X3 = loadLane(P + 32),
          X4 = loadLane(P + 48);
  for (P += 64, Size -= 64; Size >= 64; P += 64, Size -= 64) {
    X1 = foldLane(X1, K1K2, loadLane(P));
    X2 = foldLane(X2, K1K2, loadLane(P + 16));
    X3 = foldLane(X3, K1K2, loadLane(P + 32));
    X4 = foldLane(X4, K1K2, loadLane(P + 48));
  }
  X1 = foldLane(foldLane(foldLane(X1, K3K4, X2), K3K4, X3), K3K4, X4);
  for (; Size >= 16; P += 16, Size -= 16)
    X1 = foldLane(X1, K3K4, loadLane(P));

  // 128 -> 64 bits, then 64 -> 32 bits.
  X1 = _mm_xor_si128(_mm_srli_si128(X1, 8),
                     _mm_clmulepi64_si128(X1, K3K4, 0x10));
  X1 = _mm_xor_si128(_mm_srli_si128(X1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(X1, Low32), K5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i T = _mm_clmulepi64_si128(_mm_and_si128(X1, Low32), PMu, 0x10);
  T = _mm_clmulepi64_si128(_mm_and_si128(T, Low32), PMu, 0x00);
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(X1, T), 4)));
}

bool cpuHasPclmul() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return Has;
}
#endif

} // namespace

uint32_t wire::crc32(const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t C = 0xFFFFFFFFu;
#if defined(CRD_CRC32_HAVE_FOLD)
  if (Size >= 64 && cpuHasPclmul()) {
    size_t Prefix = Size & ~size_t(15);
    C = foldUpdate(C, P, Prefix);
    P += Prefix;
    Size -= Prefix;
  }
#endif
  return tableUpdate(C, P, Size) ^ 0xFFFFFFFFu;
}

uint32_t wire::crc32Table(const void *Data, size_t Size) {
  return tableUpdate(0xFFFFFFFFu, static_cast<const uint8_t *>(Data), Size) ^
         0xFFFFFFFFu;
}

bool wire::crc32Folds() {
#if defined(CRD_CRC32_HAVE_FOLD)
  return cpuHasPclmul();
#else
  return false;
#endif
}
