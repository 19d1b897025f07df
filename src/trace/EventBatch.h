//===- trace/EventBatch.h - Columnar event batches --------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A batch of events stored by column, in the layout the batched detection
/// kernel reads. Every event has a kind byte, a thread and one 32-bit
/// operand (the forked/joined thread, the lock, the memory location or the
/// invoked object). Each invoke adds one record, in event order, with its
/// method and the place of its argument and return values in one shared
/// value column. The kernel scans the kind bytes to find the sync events
/// that delimit runs and the invokes it executes. A sync event reaches
/// the Table 1 machine as (kind, thread, operand), and the kernel never
/// loads a read, write or transaction event beyond its kind byte.
///
/// Lifetime: a batch owns its values. Walkers that want whole events read
/// them back through a Cursor, and an invoke's Action then views the value
/// column: it is valid until the batch is cleared or refilled, and a
/// consumer that keeps it longer copies it (Action's copy constructor
/// deep-copies the values). clear() keeps every column's capacity, so a
/// recycled batch fills allocation-free in the steady state.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TRACE_EVENTBATCH_H
#define CRD_TRACE_EVENTBATCH_H

#include "trace/Event.h"

#include <cstdint>
#include <vector>

namespace crd {

/// Kind bytes strictly below this bound are the Table 1 synchronization
/// kinds — the encoding puts fork/join/acquire/release first exactly so
/// the sync scan is one byte-compare.
inline constexpr uint8_t SyncKindBound =
    static_cast<uint8_t>(EventKind::Invoke);
static_assert(static_cast<uint8_t>(EventKind::Fork) < SyncKindBound &&
                  static_cast<uint8_t>(EventKind::Join) < SyncKindBound &&
                  static_cast<uint8_t>(EventKind::Acquire) < SyncKindBound &&
                  static_cast<uint8_t>(EventKind::Release) < SyncKindBound &&
                  static_cast<uint8_t>(EventKind::Invoke) >= SyncKindBound &&
                  static_cast<uint8_t>(EventKind::Read) >= SyncKindBound &&
                  static_cast<uint8_t>(EventKind::Write) >= SyncKindBound &&
                  static_cast<uint8_t>(EventKind::TxBegin) >= SyncKindBound &&
                  static_cast<uint8_t>(EventKind::TxEnd) >= SyncKindBound,
              "sync kinds must be exactly the kind bytes below SyncKindBound");

/// A recyclable batch of events, one column per field.
struct EventBatch {
  /// One invoke's method and values: Values[FirstValue, FirstValue +
  /// NArgs + NRets) holds its arguments, then its returns.
  struct InvokeRecord {
    Symbol Method;
    uint32_t FirstValue = 0;
    uint32_t NArgs = 0;
    uint32_t NRets = 0;
  };

  /// Per-event columns, all size() long.
  std::vector<uint8_t> Kinds;
  std::vector<ThreadId> Threads;
  std::vector<uint32_t> Operands; ///< See Event::operand().
  /// Per-invoke records: the k-th belongs to the k-th invoke kind byte.
  std::vector<InvokeRecord> Invokes;
  std::vector<Value> Values;

  size_t size() const { return Kinds.size(); }
  bool empty() const { return Kinds.empty(); }

  /// Appends a copy of \p E (its values are copied into the value column,
  /// so the storage \p E views may go away).
  void append(const Event &E) {
    Kinds.push_back(static_cast<uint8_t>(E.kind()));
    Threads.push_back(E.thread());
    Operands.push_back(E.operand());
    if (!E.isInvoke())
      return;
    const Action &A = E.action();
    Invokes.push_back({A.method(), static_cast<uint32_t>(Values.size()),
                       static_cast<uint32_t>(A.args().size()),
                       static_cast<uint32_t>(A.rets().size())});
    Values.insert(Values.end(), A.flatValues().begin(), A.flatValues().end());
  }

  /// Reads the batch back one Event at a time, in event order: the
  /// per-event view for consumers that walk whole events. An invoke's
  /// action views the value column (see the file comment).
  class Cursor {
  public:
    explicit Cursor(const EventBatch &B) : B(&B) {}

    /// Produces the next event; false once the batch is exhausted.
    bool next(Event &E) {
      if (Pos == B->size())
        return false;
      auto Kind = static_cast<EventKind>(B->Kinds[Pos]);
      if (Kind == EventKind::Invoke) {
        const InvokeRecord &R = B->Invokes[NextInvoke++];
        E = Event::invoke(B->Threads[Pos],
                          Action(ObjectId(B->Operands[Pos]), R.Method,
                                 B->Values.data() + R.FirstValue, R.NArgs,
                                 R.NRets));
      } else {
        E = Event::withOperand(Kind, B->Threads[Pos], B->Operands[Pos]);
      }
      ++Pos;
      return true;
    }

  private:
    const EventBatch *B;
    size_t Pos = 0;
    size_t NextInvoke = 0;
  };

  /// Resident footprint of this batch: the columns' capacities. Stable
  /// across clear() (which frees nothing), so a serving session can
  /// budget its recycled batch against a memory ceiling without
  /// re-measuring per fill.
  size_t memoryFootprint() const {
    return Kinds.capacity() + Threads.capacity() * sizeof(ThreadId) +
           Operands.capacity() * sizeof(uint32_t) +
           Invokes.capacity() * sizeof(InvokeRecord) +
           Values.capacity() * sizeof(Value);
  }

  /// Sizes the per-event columns for \p Events events at once. The invoke
  /// records and the values grow with what is appended.
  void reserve(size_t Events) {
    Kinds.reserve(Events);
    Threads.reserve(Events);
    Operands.reserve(Events);
  }

  /// Drops the events but keeps every column's capacity, so the next
  /// fill is allocation-free.
  void clear() {
    Kinds.clear();
    Threads.clear();
    Operands.clear();
    Invokes.clear();
    Values.clear();
  }
};

} // namespace crd

#endif // CRD_TRACE_EVENTBATCH_H
