//===- support/Arena.h - Bump allocator with chunk reset --------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump allocator for short-lived, trivially destructible payloads —
/// the decoded Value sequences of wire events. WireReader carves each
/// invoke's argument/return values out of an arena instead of two heap
/// vectors, and reset() at the next chunk boundary rewinds the arena
/// without returning memory to the OS, so after the first trace chunk
/// warms the arena the decode loop performs zero heap allocations.
///
/// Lifetime rule: everything allocated since the last reset() dies
/// together at the next reset(). Holders that must outlive the reset
/// (event batches, materialized races) deep-copy out first —
/// Action's copy constructor does exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_ARENA_H
#define CRD_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace crd {

class Arena {
public:
  /// \p ChunkBytes is the granularity of growth; single allocations larger
  /// than it get a dedicated chunk.
  explicit Arena(size_t ChunkBytes = 64 * 1024) : ChunkBytes(ChunkBytes) {}

  Arena(Arena &&) = default;
  Arena &operator=(Arena &&) = default;

  /// Allocates uninitialized storage for \p Count objects of \p T, aligned
  /// for T. T must be trivially destructible: reset() rewinds without
  /// running destructors.
  template <typename T> T *allocate(size_t Count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without destructors");
    return static_cast<T *>(allocateBytes(Count * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, retaining every chunk for reuse. All outstanding
  /// allocations become dangling.
  void reset() {
    Cur = 0;
    Pos = 0;
  }

  /// Chunks currently held (retained across resets). A steady-state
  /// workload stops growing this after warmup — the property ArenaTest
  /// and the bench allocation counter check.
  size_t chunkCount() const { return Chunks.size(); }

  /// Bytes handed out since the last reset (excluding alignment padding of
  /// skipped chunk tails).
  size_t bytesUsed() const {
    size_t Used = Pos;
    for (size_t I = 0; I != Cur; ++I)
      Used += Chunks[I].Size;
    return Used;
  }

  /// Total chunk bytes held, including chunks retained across resets —
  /// the arena's actual resident footprint, which is what per-session
  /// memory ceilings must budget (bytesUsed() drops to zero at reset()
  /// while the chunks live on).
  size_t bytesReserved() const {
    size_t Total = 0;
    for (const Chunk &C : Chunks)
      Total += C.Size;
    return Total;
  }

private:
  struct Chunk {
    std::unique_ptr<std::byte[]> Data;
    size_t Size;
  };

  void *allocateBytes(size_t Bytes, size_t Align) {
    assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
    while (Cur != Chunks.size()) {
      size_t Aligned = alignUp(Pos, Align);
      if (Aligned + Bytes <= Chunks[Cur].Size) {
        Pos = Aligned + Bytes;
        return Chunks[Cur].Data.get() + Aligned;
      }
      ++Cur; // Chunk tail too small; move on (the tail is reclaimed by
      Pos = 0; // the next reset, not leaked).
    }
    // Out of retained chunks: grow. Chunk starts are new[]-aligned, which
    // covers every T the arena is used for.
    size_t Size = Bytes > ChunkBytes ? Bytes : ChunkBytes;
    Chunks.push_back({std::make_unique<std::byte[]>(Size), Size});
    Pos = Bytes;
    return Chunks.back().Data.get();
  }

  static size_t alignUp(size_t N, size_t Align) {
    return (N + Align - 1) & ~(Align - 1);
  }

  std::vector<Chunk> Chunks;
  size_t Cur = 0;  // Chunk currently being bumped.
  size_t Pos = 0;  // Bump offset within Chunks[Cur].
  size_t ChunkBytes;
};

} // namespace crd

#endif // CRD_SUPPORT_ARENA_H
