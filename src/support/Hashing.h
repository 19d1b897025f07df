//===- support/Hashing.h - Hash combination utilities -----------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hash-combining helpers used by the value domain and access points.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_HASHING_H
#define CRD_SUPPORT_HASHING_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>

namespace crd {

/// Mixes \p Value into the running hash \p Seed (boost::hash_combine style,
/// with a 64-bit golden-ratio constant).
inline size_t hashCombine(size_t Seed, size_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// Hashes all arguments into a single value.
template <typename... Ts> size_t hashAll(const Ts &...Values) {
  size_t Seed = 0;
  ((Seed = hashCombine(Seed, std::hash<Ts>{}(Values))), ...);
  return Seed;
}

/// Finalizing 64-bit mixer (splitmix64). Id-like keys hash to their raw
/// index, which clusters catastrophically in power-of-two tables; running
/// the value through this fixed-point-free permutation spreads every input
/// bit across the whole output word.
inline uint64_t hashMix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Content digest over a byte range: an 8-byte-stride multiply-mix with a
/// splitmix64 finalizer. Unlike std::hash, the result is pinned by this
/// definition — it must stay stable across processes, library versions and
/// writer runs, because the wire format records it in chunk headers and
/// readers key the chunk memo by it (docs/trace-format.md).
inline uint64_t hashBytes64(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0x2545f4914f6cdd1dULL ^ (uint64_t(Size) * 0x9e3779b97f4a7c15ULL);
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    // One word load, read little-endian: identical on every host.
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    if constexpr (std::endian::native == std::endian::big)
      W = __builtin_bswap64(W);
    H = (H ^ hashMix64(W)) * 0xff51afd7ed558ccdULL;
  }
  uint64_t Tail = 0;
  for (unsigned B = 0; I != Size; ++I, ++B)
    Tail |= uint64_t(P[I]) << (8 * B);
  if (Size % 8)
    H = (H ^ hashMix64(Tail)) * 0xc4ceb9fe1a85ec53ULL;
  return hashMix64(H);
}

} // namespace crd

#endif // CRD_SUPPORT_HASHING_H
