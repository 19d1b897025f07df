//===- ingest/Recorder.h - Per-thread event recording handle ----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer side of live ingestion. Each real thread obtains a
/// Recorder from a Session and logs events through it; the handle fronts
/// a bounded SPSC ring owned by the session, so the record fast path is
/// one ring slot write plus one release store — no locks, no shared
/// writes with any other producer. Recording is commutative by
/// construction: producers touch only their own ring, which is what
/// keeps the tracer from perturbing the interleavings it observes.
///
/// Backpressure is a per-session policy (docs/ingestion.md):
///   Block      — record() waits for the collector; no event is ever lost.
///   DropNewest — record() discards the new event when the ring is full
///                and counts it in the producer's drop counter.
/// A third knob, per-producer ring capacity at registration time, lives
/// on Session::attach() (rings cannot grow once live).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_INGEST_RECORDER_H
#define CRD_INGEST_RECORDER_H

#include "support/Metrics.h"
#include "support/SpscRing.h"
#include "trace/Event.h"

#include <cstdint>

namespace crd {
namespace ingest {

/// What record() does when the producer outruns the collector.
enum class BackpressurePolicy {
  Block,      ///< Wait for ring space; zero loss, producer latency unbounded.
  DropNewest, ///< Discard the new event; loss bounded and counted.
};

/// One registered producer's state inside a Session: the SPSC ring plus
/// the per-producer tallies. Addresses are stable for the session's
/// lifetime (the registry is a deque), so Recorder handles and the
/// collector both hold plain pointers.
class ProducerChannel {
public:
  ProducerChannel(ThreadId Tid, size_t CapacityPow2, BackpressurePolicy Policy)
      : Ring(CapacityPow2), Tid(Tid), Policy(Policy) {}

  ProducerChannel(const ProducerChannel &) = delete;
  ProducerChannel &operator=(const ProducerChannel &) = delete;

private:
  friend class Recorder;
  friend class Session;

  SpscRing<Event> Ring;
  ThreadId Tid;
  BackpressurePolicy Policy;

  /// Producer-side tallies. Plain (non-atomic) on purpose: only the owning
  /// producer writes them, and readers look only after the ring is closed —
  /// the release RMW close() does on the tail word, paired with the
  /// collector's acquire tail load, carries them across threads. Recorded
  /// doubles as the producer's sequence number: the Nth event accepted
  /// into the ring has sequence N.
  uint64_t Recorded = 0;
  uint64_t Dropped = 0;

  /// Collector-side tallies (single writer: whichever thread drains —
  /// the collector thread or a manual drainRound() caller).
  uint64_t Drained = 0;
  uint64_t Drains = 0;
  /// Ring depth observed at each collector visit.
  metrics::Pow2Histogram<18> DepthOnDrain;
};

/// Movable per-thread recording handle. Obtain from Session::attach(),
/// hand to the producer thread, record events, then finish() (or let the
/// destructor do it) when the thread's stream ends. After finish() the
/// handle is detached and must not record; the events already in the
/// ring are preserved — close() only marks end-of-stream, the collector
/// still drains the tail, so a thread exiting mid-stream loses nothing.
class Recorder {
public:
  /// Detached handle; attach by move-assigning from Session::attach().
  Recorder() = default;

  Recorder(Recorder &&O) noexcept : Chan(O.Chan) { O.Chan = nullptr; }
  Recorder &operator=(Recorder &&O) noexcept {
    if (this != &O) {
      finish();
      Chan = O.Chan;
      O.Chan = nullptr;
    }
    return *this;
  }
  Recorder(const Recorder &) = delete;
  Recorder &operator=(const Recorder &) = delete;

  ~Recorder() { finish(); }

  bool attached() const { return Chan != nullptr; }

  /// The thread id this producer records as.
  ThreadId thread() const { return Chan->Tid; }

  /// Logs one event. Returns false iff the event was dropped (DropNewest
  /// policy, ring full). Under Block policy this waits for the collector
  /// when the ring is full — a session that was never start()ed (and is
  /// not being pumped manually) will block forever; that is the policy's
  /// contract, not a bug.
  bool record(Event E) {
    ProducerChannel &C = *Chan;
    if (C.Policy == BackpressurePolicy::Block) {
      C.Ring.push(std::move(E));
      ++C.Recorded;
      return true;
    }
    if (C.Ring.tryPush(std::move(E))) {
      ++C.Recorded;
      return true;
    }
    ++C.Dropped;
    return false;
  }

  /// Convenience emitters mirroring the Event factories, stamped with
  /// this producer's thread id.
  bool invoke(Action A) { return record(Event::invoke(thread(), std::move(A))); }
  bool fork(ThreadId Child) { return record(Event::fork(thread(), Child)); }
  bool join(ThreadId Child) { return record(Event::join(thread(), Child)); }
  bool acquire(LockId L) { return record(Event::acquire(thread(), L)); }
  bool release(LockId L) { return record(Event::release(thread(), L)); }
  bool read(VarId V) { return record(Event::read(thread(), V)); }
  bool write(VarId V) { return record(Event::write(thread(), V)); }
  bool txBegin() { return record(Event::txBegin(thread())); }
  bool txEnd() { return record(Event::txEnd(thread())); }

  /// Ends this producer's stream: closes the ring (the collector drains
  /// the remaining tail, then sees end-of-stream) and detaches the
  /// handle. Idempotent; also run by the destructor.
  void finish() {
    if (Chan) {
      Chan->Ring.close();
      Chan = nullptr;
    }
  }

private:
  friend class Session;
  explicit Recorder(ProducerChannel *C) : Chan(C) {}

  ProducerChannel *Chan = nullptr;
};

} // namespace ingest
} // namespace crd

#endif // CRD_INGEST_RECORDER_H
