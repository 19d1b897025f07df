//===- runtime/SimRuntime.h - Deterministic concurrent runtime --*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded, cooperative multithreading simulator — the
/// substitute for real JVM threads in the paper's evaluation. Threads are
/// queues of steps; the scheduler repeatedly picks a runnable thread
/// (seeded PRNG) and executes its next step. A step runs atomically and may
/// perform any number of instrumented operations (which emit events into
/// the configured sink), defer continuations onto its own thread, fork new
/// threads, and join others.
///
/// \code
///   SimRuntime Rt(/*Seed=*/42);
///   ThreadId Main = Rt.addInitialThread();
///   Rt.schedule(Main, [&](SimThread &T) {
///     ThreadId W = T.fork([&](SimThread &T2) { Map.put(T2, K, V); });
///     T.defer([W](SimThread &T3) { T3.join(W); });
///   });
///   Rt.run(Sink);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CRD_RUNTIME_SIMRUNTIME_H
#define CRD_RUNTIME_SIMRUNTIME_H

#include "runtime/Sink.h"
#include "trace/Trace.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <random>
#include <vector>

namespace crd {

class SimRuntime;
class SimThread;

/// One atomic unit of thread work.
using SimStep = std::function<void(SimThread &)>;

/// Handle passed to executing steps; exposes the instrumented primitives.
class SimThread {
public:
  ThreadId id() const { return Self; }
  SimRuntime &runtime() { return RT; }

  // Instrumentation primitives (emit events when the sink is enabled).
  void read(VarId Var);
  void write(VarId Var);
  void acquire(LockId Lock);
  void release(LockId Lock);
  void invoke(Action A);

  /// Marks the start/end of an intended-atomic block (consumed by the
  /// atomicity checker; ignored by the race detectors).
  void txBegin();
  void txEnd();

  /// Forks a new thread whose program is the single step \p Body (which may
  /// defer more steps); emits a Fork event.
  ThreadId fork(SimStep Body);

  /// Blocks this thread until \p Other terminates; the Join event is
  /// emitted when the wait completes. Pending deferred steps run after.
  void join(ThreadId Other);

  /// Appends \p Continuation to run after the current step (in defer order,
  /// before any steps scheduled earlier from outside).
  void defer(SimStep Continuation);

  /// Deterministic per-runtime PRNG (draws are part of the schedule).
  uint64_t random(uint64_t Bound);

private:
  friend class SimRuntime;
  SimThread(SimRuntime &RT, ThreadId Self) : RT(RT), Self(Self) {}

  SimRuntime &RT;
  ThreadId Self;
  std::vector<SimStep> Deferred;
};

/// The simulator: thread table, scheduler and id allocators.
class SimRuntime {
public:
  explicit SimRuntime(uint64_t Seed) : Rng(Seed) {}

  /// Creates a thread that exists from the start (no Fork event). The first
  /// thread created is conventionally the main thread.
  ThreadId addInitialThread();

  /// Appends a step to a thread's program.
  void schedule(ThreadId Thread, SimStep Step);

  /// Runs until every thread's program is exhausted, emitting events into
  /// \p Sink. Returns the number of steps executed.
  size_t run(EventSink &Sink);

  // Deterministic resource allocators for instrumented data structures.
  ObjectId newObject() { return ObjectId(NextObject++); }
  VarId newVar() { return VarId(NextVar++); }
  LockId newLock() { return LockId(NextLock++); }

  /// Whether \p Thread has terminated (program exhausted). Threads never
  /// scheduled count as terminated.
  bool finished(ThreadId Thread) const;

private:
  friend class SimThread;

  struct ThreadState {
    std::deque<SimStep> Program;
    std::optional<ThreadId> WaitingOn;
    bool JoinEventPending = false;
  };

  void emit(const Event &E);
  ThreadId forkThread(ThreadId Parent, SimStep Body);
  uint64_t drawRandom(uint64_t Bound);

  std::vector<ThreadState> Threads;
  std::mt19937_64 Rng;
  EventSink *Sink = nullptr;
  uint32_t NextObject = 0;
  uint32_t NextVar = 0;
  uint32_t NextLock = 0;
};

} // namespace crd

#endif // CRD_RUNTIME_SIMRUNTIME_H
