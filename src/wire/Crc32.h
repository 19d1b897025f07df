//===- wire/Crc32.h - CRC-32 checksums --------------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CRC-32 (IEEE 802.3, polynomial 0xEDB88320) used to checksum every
/// chunk payload of the binary wire format, so a reader detects truncation
/// and corruption before decoding a single event.
///
/// Two kernels compute the same value. On x86 CPUs with PCLMULQDQ (picked
/// once at run time), crc32() folds the payload's 16-byte-multiple prefix
/// with carry-less multiplies and finishes the tail with the byte-at-a-time
/// table loop; everywhere else, including CRD_DISABLE_SIMD builds, the table
/// loop does all of it. crc32Table() is that loop on its own, always
/// compiled, and is the reference the fold is tested against.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_WIRE_CRC32_H
#define CRD_WIRE_CRC32_H

#include <cstddef>
#include <cstdint>

namespace crd {
namespace wire {

/// CRC-32 of \p Size bytes at \p Data.
uint32_t crc32(const void *Data, size_t Size);

/// The same CRC-32, computed one byte at a time from a 256-entry table.
uint32_t crc32Table(const void *Data, size_t Size);

/// True when crc32() folds with PCLMULQDQ in this build on this CPU.
bool crc32Folds();

} // namespace wire
} // namespace crd

#endif // CRD_WIRE_CRC32_H
