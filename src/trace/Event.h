//===- trace/Event.h - Trace events (paper §3.1, Table 1) -------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Events of an execution trace. Besides the action events of §3.1, traces
/// carry the synchronization events of Table 1 (fork/join/acquire/release)
/// and the low-level read/write events consumed by the FastTrack baseline
/// (the paper's RoadRunner substrate instruments every memory access).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TRACE_EVENT_H
#define CRD_TRACE_EVENT_H

#include "trace/Action.h"

#include <cassert>
#include <iosfwd>
#include <string>

namespace crd {

/// Discriminates the event payload.
enum class EventKind : uint8_t {
  Fork,    ///< τ : fork(u) — thread τ creates thread u.
  Join,    ///< τ : join(u) — thread τ waits for thread u to terminate.
  Acquire, ///< τ : acq(l) — thread τ acquires lock l.
  Release, ///< τ : rel(l) — thread τ releases lock l.
  Invoke,  ///< τ : o.m(~u)/~v — an action event.
  Read,    ///< τ reads memory location v (low-level; FastTrack only).
  Write,   ///< τ writes memory location v (low-level; FastTrack only).
  TxBegin, ///< τ opens an atomic block (used by the atomicity checker).
  TxEnd,   ///< τ closes its atomic block.
};

/// One occurrence τ : a in a trace.
class Event {
public:
  /// Placeholder event (a TxBegin on thread 0) so events can sit in
  /// default-constructed container slots — ring buffers, decode cursors —
  /// that are always overwritten before being read.
  Event() : Event(EventKind::TxBegin, ThreadId(0)) {}

  static Event fork(ThreadId Thread, ThreadId Child) {
    return withOperand(EventKind::Fork, Thread, Child.index());
  }
  static Event join(ThreadId Thread, ThreadId Child) {
    return withOperand(EventKind::Join, Thread, Child.index());
  }
  static Event acquire(ThreadId Thread, LockId Lock) {
    return withOperand(EventKind::Acquire, Thread, Lock.index());
  }
  static Event release(ThreadId Thread, LockId Lock) {
    return withOperand(EventKind::Release, Thread, Lock.index());
  }
  static Event invoke(ThreadId Thread, Action TheAction) {
    Event E(EventKind::Invoke, Thread);
    E.TheAction = std::move(TheAction);
    return E;
  }
  static Event read(ThreadId Thread, VarId Var) {
    return withOperand(EventKind::Read, Thread, Var.index());
  }
  static Event write(ThreadId Thread, VarId Var) {
    return withOperand(EventKind::Write, Thread, Var.index());
  }
  static Event txBegin(ThreadId Thread) {
    return Event(EventKind::TxBegin, Thread);
  }
  static Event txEnd(ThreadId Thread) {
    return Event(EventKind::TxEnd, Thread);
  }

  /// Any non-invoke event from its kind and raw operand (see operand()).
  static Event withOperand(EventKind Kind, ThreadId Thread, uint32_t Operand) {
    assert(Kind != EventKind::Invoke && "an action event needs its action");
    Event E(Kind, Thread);
    E.Operand = Operand;
    return E;
  }

  EventKind kind() const { return Kind; }
  ThreadId thread() const { return Thread; }

  bool isSync() const {
    return Kind == EventKind::Fork || Kind == EventKind::Join ||
           Kind == EventKind::Acquire || Kind == EventKind::Release;
  }
  bool isInvoke() const { return Kind == EventKind::Invoke; }
  bool isMemoryAccess() const {
    return Kind == EventKind::Read || Kind == EventKind::Write;
  }

  /// Forked/joined thread; valid for Fork and Join events.
  ThreadId other() const {
    assert((Kind == EventKind::Fork || Kind == EventKind::Join) &&
           "event has no target thread");
    return ThreadId(Operand);
  }

  /// The lock; valid for Acquire and Release events.
  LockId lock() const {
    assert((Kind == EventKind::Acquire || Kind == EventKind::Release) &&
           "event has no lock");
    return LockId(Operand);
  }

  /// The memory location; valid for Read and Write events.
  VarId var() const {
    assert(isMemoryAccess() && "event has no memory location");
    return VarId(Operand);
  }

  /// The event's id operand as a raw index: the forked/joined thread, the
  /// lock, the memory location or the invoked object; 0 for transaction
  /// events. EventBatch stores events by kind, thread and this operand.
  uint32_t operand() const {
    return Kind == EventKind::Invoke ? TheAction.object().index() : Operand;
  }

  /// The invoked action; valid for Invoke events.
  const Action &action() const {
    assert(Kind == EventKind::Invoke && "event is not an action event");
    return TheAction;
  }

  /// Renders e.g. `T2: o1.put("a.com", 7)/nil` or `T1: fork T2`.
  std::string toString() const;

private:
  Event(EventKind Kind, ThreadId Thread) : Kind(Kind), Thread(Thread) {}

  EventKind Kind;
  ThreadId Thread;
  /// Child thread, lock or memory location (see operand()); the action
  /// carries an invoke's object.
  uint32_t Operand = 0;
  Action TheAction;
};

std::ostream &operator<<(std::ostream &OS, const Event &E);

} // namespace crd

#endif // CRD_TRACE_EVENT_H
