//===- support/SpscRing.h - Bounded SPSC ring buffer ------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded single-producer/single-consumer ring buffer carrying events
/// from a live producer thread to the ingestion collector. Blocking on
/// both ends (C++20 atomic wait/notify — futex-backed, no spinning), with
/// a close() that wakes a waiting consumer exactly once the queue drains.
///
/// The closed flag is folded into the tail word (ClosedBit) rather than
/// kept as a separate atomic: a consumer that re-checks "closed?" and then
/// waits on an unchanged tail would otherwise race with a close() landing
/// between the two loads and sleep forever. Folding the flag in means
/// close() always changes the very word the consumer waits on.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_SPSCRING_H
#define CRD_SUPPORT_SPSCRING_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

namespace crd {

template <typename T> class SpscRing {
public:
  /// \p CapacityPow2 slots (must be a power of two, ≥ 1).
  explicit SpscRing(size_t CapacityPow2) : Slots(CapacityPow2) {
    assert(CapacityPow2 != 0 && (CapacityPow2 & (CapacityPow2 - 1)) == 0 &&
           "capacity must be a power of two");
  }

  size_t capacity() const { return Slots.size(); }

  /// Producer: blocks while the ring is full, then enqueues. Must not be
  /// called after close().
  void push(T &&Item) {
    uint64_t Ticket = Tail.load(std::memory_order_relaxed) & ~ClosedBit;
    for (;;) {
      uint64_t H = Head.load(std::memory_order_acquire);
      if (Ticket - H < Slots.size())
        break;
      Head.wait(H, std::memory_order_acquire);
    }
    Slots[Ticket & (Slots.size() - 1)] = std::move(Item);
    Tail.store(Ticket + 1, std::memory_order_release);
    Tail.notify_one();
  }

  /// Consumer: blocks until an item arrives (returning true) or the ring is
  /// closed and drained (returning false).
  bool pop(T &Out) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    for (;;) {
      uint64_t T0 = Tail.load(std::memory_order_acquire);
      if ((T0 & ~ClosedBit) != H)
        break;
      if (T0 & ClosedBit)
        return false;
      Tail.wait(T0, std::memory_order_acquire);
    }
    Out = std::move(Slots[H & (Slots.size() - 1)]);
    Head.store(H + 1, std::memory_order_release);
    Head.notify_one();
    return true;
  }

  /// Producer: non-blocking push; false when the ring is currently full.
  /// \p Item is only consumed on success. Used by the batch-recycle path,
  /// where dropping the item (letting buffers free) is an acceptable
  /// fallback when the peer is behind.
  bool tryPush(T &&Item) {
    uint64_t Ticket = Tail.load(std::memory_order_relaxed) & ~ClosedBit;
    uint64_t H = Head.load(std::memory_order_acquire);
    if (Ticket - H >= Slots.size())
      return false;
    Slots[Ticket & (Slots.size() - 1)] = std::move(Item);
    Tail.store(Ticket + 1, std::memory_order_release);
    Tail.notify_one();
    return true;
  }

  /// Consumer: non-blocking pop; false when currently empty (closed or not).
  bool tryPop(T &Out) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    uint64_t T0 = Tail.load(std::memory_order_acquire);
    if ((T0 & ~ClosedBit) == H)
      return false;
    Out = std::move(Slots[H & (Slots.size() - 1)]);
    Head.store(H + 1, std::memory_order_release);
    Head.notify_one();
    return true;
  }

  /// Consumer: batched non-blocking drain. Moves up to \p Max items into
  /// \p Out and returns how many were taken (0 when currently empty). One
  /// acquire load of the tail and one release store of the head cover the
  /// whole batch, so a collector draining K items pays two atomic
  /// operations instead of 2K — the reason this exists (the live-ingestion
  /// collector sweeps many producer rings per round).
  size_t tryPopN(T *Out, size_t Max) {
    if (Max == 0)
      return 0;
    uint64_t H = Head.load(std::memory_order_relaxed);
    uint64_t T0 = Tail.load(std::memory_order_acquire) & ~ClosedBit;
    uint64_t Avail = T0 - H;
    size_t N = Avail < Max ? static_cast<size_t>(Avail) : Max;
    for (size_t I = 0; I != N; ++I)
      Out[I] = std::move(Slots[(H + I) & (Slots.size() - 1)]);
    if (N != 0) {
      Head.store(H + N, std::memory_order_release);
      Head.notify_one();
    }
    return N;
  }

  /// Items currently enqueued, as observed by two independent atomic
  /// loads. Exact when called by the consumer (only it retires items);
  /// from any other thread it is a momentary approximation — fine for the
  /// ring-depth metrics it exists for, not for flow-control decisions.
  size_t approxSize() const {
    uint64_t T0 = Tail.load(std::memory_order_acquire) & ~ClosedBit;
    uint64_t H = Head.load(std::memory_order_acquire);
    return T0 >= H ? static_cast<size_t>(T0 - H) : 0;
  }

  /// Producer: marks the stream as ended. Idempotent. The consumer drains
  /// remaining items, then pop() returns false.
  void close() {
    Tail.fetch_or(ClosedBit, std::memory_order_release);
    Tail.notify_all();
  }

  bool closed() const {
    return (Tail.load(std::memory_order_acquire) & ClosedBit) != 0;
  }

private:
  static constexpr uint64_t ClosedBit = uint64_t(1) << 63;

  std::vector<T> Slots;
  /// Producer-written cursor; bit 63 carries the closed flag so close()
  /// always mutates the word a sleeping consumer waits on.
  alignas(64) std::atomic<uint64_t> Tail{0};
  /// Consumer-written cursor, on its own cache line to avoid false sharing.
  alignas(64) std::atomic<uint64_t> Head{0};
};

} // namespace crd

#endif // CRD_SUPPORT_SPSCRING_H
