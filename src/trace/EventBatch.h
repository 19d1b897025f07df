//===- trace/EventBatch.h - Self-contained event batches --------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A batch of decoded events plus a contiguous kind-byte array (one byte
/// per event, SIMD-scannable) alongside them: the batched detection kernel
/// scans the kinds once to find the sync events that delimit runs and the
/// invokes it executes, without loading the (much wider) events.
///
/// A batch owns its payloads: invoke values are pinned into the batch's
/// own arena on append (inline for small actions, arena-spilled for wide
/// ones — never a per-action heap block), so a filled batch is
/// self-contained and outlives whatever decoder storage the events came
/// from. clear() keeps every buffer and arena chunk, so recycled batches
/// fill allocation-free in the steady state.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TRACE_EVENTBATCH_H
#define CRD_TRACE_EVENTBATCH_H

#include "support/Arena.h"
#include "trace/Event.h"

#include <cstdint>
#include <vector>

namespace crd {

/// Kind bytes strictly below this bound are the Table 1 synchronization
/// kinds — the encoding puts fork/join/acquire/release first exactly so
/// the sync scan is one byte-compare (KindScan.h).
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

/// A self-contained, recyclable batch of events with a kind array.
struct EventBatch {
  std::vector<Event> Events;
  /// Events[i]'s kind as a raw byte — the contiguous array the SIMD scan
  /// walks (Event itself is too wide to scan directly).
  std::vector<uint8_t> Kinds;
  /// Pinned invoke payloads for actions wider than the inline capacity.
  Arena Values;

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }

  /// Appends a copy of \p E, pinning its action payload into this batch
  /// (so the source — e.g. a wire decoder's per-chunk arena — may reset).
  void append(const Event &E) {
    Kinds.push_back(static_cast<uint8_t>(E.kind()));
    if (E.kind() == EventKind::Invoke)
      Events.push_back(Event::invoke(E.thread(), E.action().copyInto(Values)));
    else
      Events.push_back(E);
  }

  /// Appends \p E whose payload is already pinned in this batch's arena
  /// (the wire decoder's batch path decodes values straight into Values).
  /// The move keeps arena views intact.
  void appendPinned(Event &&E) {
    Kinds.push_back(static_cast<uint8_t>(E.kind()));
    Events.push_back(std::move(E));
  }

  /// Resident footprint of this batch: vector capacities plus retained
  /// arena chunks. Stable across clear() (which frees nothing), so a
  /// serving session can budget its recycled batches against a memory
  /// ceiling without re-measuring per fill.
  size_t memoryFootprint() const {
    return Events.capacity() * sizeof(Event) + Kinds.capacity() +
           Values.bytesReserved();
  }

  /// Drops the events but keeps vector capacity and arena chunks, so the
  /// next fill is allocation-free.
  void clear() {
    Events.clear();
    Kinds.clear();
    Values.reset();
  }
};

} // namespace crd

#endif // CRD_TRACE_EVENTBATCH_H
