//===- perfbench/src/Alloc.cpp - Counting global operator new --------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces the global allocation functions of the benchmark binary so
/// detect.allocs_per_event can be measured from outside the library. The
/// replacement lives in this executable only; the `crd` tool and the
/// libraries keep the stock allocator.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Allocs{0};

void *countedAlloc(std::size_t Size) {
  Allocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::size_t Align) {
  Allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  std::size_t Rounded = (Size + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

} // namespace

uint64_t perfbench::allocCount() {
  return Allocs.load(std::memory_order_relaxed);
}

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, static_cast<std::size_t>(Align));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
