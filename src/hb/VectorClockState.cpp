//===- hb/VectorClockState.cpp - Table 1 state machine ---------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "hb/VectorClockState.h"

#include <cassert>

using namespace crd;

void VectorClockState::ensureThread(ThreadId Thread) {
  if (Thread.index() < Threads.size())
    return;
  Threads.resize(Thread.index() + 1);
  Initialized.resize(Thread.index() + 1, false);
  Versions.resize(Thread.index() + 1, 0);
}

VectorClock &VectorClockState::threadClock(ThreadId Thread) {
  ensureThread(Thread);
  if (!Initialized[Thread.index()]) {
    // Lazy initialization to inc_τ(⊥): each thread starts one step into its
    // own local time. See the header comment for why this matters.
    Threads[Thread.index()].increment(Thread);
    Initialized[Thread.index()] = true;
    touch(Thread.index());
  }
  return Threads[Thread.index()];
}

const VectorClock &VectorClockState::clockOf(ThreadId Thread) {
  return threadClock(Thread);
}

const VectorClock *VectorClockState::findLockClock(LockId Lock) const {
  for (size_t I = 0; I != NumInlineLocks; ++I)
    if (InlineLocks[I].Lock == Lock)
      return &InlineLocks[I].Clock;
  return OverflowLocks.find(Lock);
}

VectorClock &VectorClockState::lockClockFor(LockId Lock) {
  for (size_t I = 0; I != NumInlineLocks; ++I)
    if (InlineLocks[I].Lock == Lock)
      return InlineLocks[I].Clock;
  if (NumInlineLocks < InlineLockSlots) {
    // First sighting of this lock with an inline slot free. Overflow can't
    // hold it: locks only spill once all inline slots are taken, and the
    // inline count never shrinks.
    InlineLocks[NumInlineLocks].Lock = Lock;
    return InlineLocks[NumInlineLocks++].Clock;
  }
  return OverflowLocks[Lock];
}

const VectorClock &VectorClockState::lockClock(LockId Lock) const {
  const VectorClock *Found = findLockClock(Lock);
  return Found ? *Found : Bottom;
}

void VectorClockState::sync(EventKind Kind, ThreadId Thread,
                            uint32_t Operand) {
  switch (Kind) {
  case EventKind::Fork: {
    // T(u) ← inc_u(T(τ)); T(τ) ← inc_τ(T(τ)).
    ThreadId Child(Operand);
    // Grow the table for the child BEFORE taking a reference to the parent
    // clock: resizing invalidates references into Threads. A trace may fork
    // a thread it has already started; the child then restarts from the
    // parent's clock.
    ensureThread(Child);
    VectorClock &Parent = threadClock(Thread);
    VectorClock ChildClock = Parent;
    ChildClock.increment(Child);
    Threads[Child.index()] = std::move(ChildClock);
    Initialized[Child.index()] = true;
    touch(Child.index());
    threadClock(Thread).increment(Thread);
    touch(Thread.index());
    return;
  }
  case EventKind::Join: {
    // T(τ) ← T(τ) ⊔ T(u). Both clocks are referenced at once, so grow the
    // table for the joined thread first, as for Fork: a trace may join a
    // thread it has never seen.
    ThreadId Child(Operand);
    ensureThread(Child);
    VectorClock &Self = threadClock(Thread);
    Self.joinWith(threadClock(Child));
    touch(Thread.index());
    return;
  }
  case EventKind::Acquire: {
    // T(τ) ← T(τ) ⊔ L(l).
    if (const VectorClock *L = findLockClock(LockId(Operand))) {
      threadClock(Thread).joinWith(*L);
      touch(Thread.index());
    } else {
      threadClock(Thread); // Still forces lazy initialization.
    }
    return;
  }
  case EventKind::Release: {
    // L(l) ← T(τ); T(τ) ← inc_τ(T(τ)).
    VectorClock &Self = threadClock(Thread);
    lockClockFor(LockId(Operand)) = Self;
    Self.increment(Thread);
    touch(Thread.index());
    return;
  }
  case EventKind::Invoke:
  case EventKind::Read:
  case EventKind::Write:
  case EventKind::TxBegin:
  case EventKind::TxEnd:
    break;
  }
  assert(false && "not a synchronization event");
}
