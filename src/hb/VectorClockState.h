//===- hb/VectorClockState.h - Table 1 state machine ------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online vector-clock state machine of paper Table 1. It maintains the
/// auxiliary maps T : Tid -> VC and L : Lock -> VC and updates them at every
/// synchronization event:
///
///   τ : fork(u)   T(u) ← inc_u(T(τ));  T(τ) ← inc_τ(T(τ))
///   τ : join(u)   T(τ) ← T(τ) ⊔ T(u)
///   τ : acq(l)    T(τ) ← T(τ) ⊔ L(l)
///   τ : rel(l)    L(l) ← T(τ);  T(τ) ← inc_τ(T(τ))
///
/// For an action event τ : o.m(~x)/~y, vc(e) = T(τ). Thread clocks are
/// initialized lazily to inc_τ(⊥), establishing the invariant that τ's own
/// component of T(τ) is strictly larger than τ's component of any clock ever
/// exported by τ — so clocks of events from different threads are never
/// equal, and incomparability is exactly the may-happen-in-parallel ‖.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_HB_VECTORCLOCKSTATE_H
#define CRD_HB_VECTORCLOCKSTATE_H

#include "support/FlatMap.h"
#include "support/VectorClock.h"
#include "trace/Event.h"

#include <vector>

namespace crd {

/// Online happens-before tracker (the "previous work" rows of Table 1).
///
/// The lock map L is split into a small inline array for the first few
/// locks and a FlatMap overflow: most traces guard their objects with a
/// handful of locks, so the acquire/release hot path of the clock
/// machine is a short linear scan over inline entries instead of a hash
/// probe, and the swiss-table overflow only engages past InlineLockSlots
/// distinct locks.
class VectorClockState {
public:
  VectorClockState() = default;

  /// Processes one event. For synchronization events this applies the
  /// Table 1 update (see sync()); for other events it only initializes
  /// the thread's clock (the clock is read with clockOf()).
  void process(const Event &E) {
    if (E.isSync())
      sync(E.kind(), E.thread(), E.operand());
    else
      threadClock(E.thread());
  }

  /// Applies the Table 1 update of the synchronization event \p Kind by
  /// \p Thread on \p Operand: the forked or joined thread, or the lock —
  /// the batched kernel's entry, which reads events by column.
  void sync(EventKind Kind, ThreadId Thread, uint32_t Operand);

  /// Returns T(τ), the clock an action of \p Thread would be stamped with.
  /// Initializes the thread lazily to inc_τ(⊥) on first use.
  const VectorClock &clockOf(ThreadId Thread);

  /// Returns L(l); ⊥ if the lock was never released.
  const VectorClock &lockClock(LockId Lock) const;

  /// Number of threads seen so far.
  size_t numThreads() const { return Threads.size(); }

  //===--------------------------------------------------------------------===//
  // Chunk-memoization support (detect/ChunkMemo.h). Every Table 1 update
  // (and every lazy initialization) stamps the affected thread with a
  // machine-wide monotonic counter, so the memo layer can prove "these
  // threads' clocks are exactly as they were when the summary was
  // recorded" by comparing one integer per footprint thread — no clock
  // comparison, no hashing. Lock clocks carry no version: summarizable
  // chunks are sync-free, so they never read L.
  //===--------------------------------------------------------------------===//

  /// Version stamp of \p Thread's clock: 0 while uninitialized, else the
  /// mutation counter value of its last update.
  uint64_t threadVersion(ThreadId Thread) const {
    size_t I = Thread.index();
    return I < Versions.size() ? Versions[I] : 0;
  }

  /// Total Table 1 mutations (incl. lazy initializations) so far. If this
  /// is unchanged across an interval, no thread clock changed in it.
  uint64_t mutationStamp() const { return MutCount; }

private:
  /// Locks held inline before spilling to the overflow table. Covers the
  /// 1–4-lock common case; see the class comment.
  static constexpr size_t InlineLockSlots = 4;

  VectorClock &threadClock(ThreadId Thread);

  /// Grows the per-thread tables to cover \p Thread. Growing moves every
  /// clock, so callers holding two clocks grow first.
  void ensureThread(ThreadId Thread);

  /// Returns L(l) for update, creating the entry (inline first, then
  /// overflow) on first release of \p Lock.
  VectorClock &lockClockFor(LockId Lock);

  /// Returns the existing L(l) or nullptr if \p Lock was never released.
  const VectorClock *findLockClock(LockId Lock) const;

  /// Stamps thread \p I as mutated now (see threadVersion()).
  void touch(size_t I) { Versions[I] = ++MutCount; }

  // Dense per-thread clocks; Initialized[i] records lazy initialization,
  // Versions[i] the mutation stamp of the last update.
  std::vector<VectorClock> Threads;
  std::vector<bool> Initialized;
  std::vector<uint64_t> Versions;
  uint64_t MutCount = 0;

  struct LockSlot {
    LockId Lock;
    VectorClock Clock;
  };
  LockSlot InlineLocks[InlineLockSlots];
  size_t NumInlineLocks = 0;
  FlatMap<LockId, VectorClock> OverflowLocks;

  VectorClock Bottom;
};

} // namespace crd

#endif // CRD_HB_VECTORCLOCKSTATE_H
