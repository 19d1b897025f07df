//===- detect/ChunkMemo.h - Chunk-level detection summaries -----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chunk transformers for memoized detection. A compressed trace that
/// repeats itself decodes to byte-identical chunks; the wire layer already
/// recognizes those by content digest (WireReader's payload store). This
/// layer goes one step further: for a *sync-free* chunk whose interpretation
/// turned out to be a detector-state no-op, it records the chunk's entire
/// observable effect — the races it reported (keyed by event index relative
/// to the chunk start) and its counter deltas — together with the exact
/// entry-state footprint the interpretation depended on:
///
///   - the detector's provider-configuration stamp (bindings decide which
///     access points an action touches),
///   - the version stamp of every thread whose events appear in the chunk
///     (the clock an action is stamped with), and
///   - the version stamp of every object invoked in the chunk (the active
///     points and accumulated clocks the two phases probe and update).
///
/// On a later occurrence of the same chunk payload, if every footprint
/// version still matches, Algorithm 1 would read exactly the same state,
/// take exactly the same branches, and write nothing — so the detector can
/// replay the summary (re-based race reports + counter deltas) and skip
/// interpretation entirely. Any mismatch falls back to full interpretation,
/// which re-records the summary against the new entry state.
///
/// Soundness gates (all enforced by the recording side):
///   1. Summaries are only recorded/replayed for chunks the wire layer
///      verified byte-identical to the cached payload (WireReader's
///      ChunkView::VerifiedRepeat) — a 64-bit digest match alone never
///      keys detector state.
///   2. Sync events disqualify a chunk: Table 1 updates mutate thread/lock
///      clocks, and an acquire of a never-released lock is a no-op *now*
///      but not once the lock gains a clock — no version stamp covers
///      "absent lock", so the rule is categorical.
///   3. The chunk must have been a state no-op when recorded: the
///      VectorClockState and detector mutation stamps are compared across
///      the interpretation. This makes footprint collection safe *after*
///      the fact — entry versions equal exit versions by construction.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_CHUNKMEMO_H
#define CRD_DETECT_CHUNKMEMO_H

#include "detect/Race.h"
#include "trace/Event.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace crd {

/// The memoized effect of one chunk payload on the detector, valid while
/// its entry-state footprint matches. Not Memoizable marks a negative
/// entry: the chunk contains sync events (or mutated state in a way no
/// footprint can cover), so replay must never be attempted — negative
/// entries stop the pipeline from re-probing hopeless chunks.
struct ChunkSummary {
  /// False for negative entries (sync events present); such a summary
  /// carries no footprint and is never replayed.
  bool Memoizable = false;

  /// Detector configuration stamp at record time; replay requires equality.
  uint64_t ConfigStamp = 0;

  /// Entry versions of every thread with an event in the chunk.
  std::vector<std::pair<ThreadId, uint64_t>> ThreadVersions;

  /// Entry versions of every object invoked in the chunk (0 = no
  /// per-object state existed).
  std::vector<std::pair<ObjectId, uint64_t>> ObjectVersions;

  /// Races the chunk reported, keyed by event index relative to the
  /// chunk's first event. Records are compact and self-contained (Race.h):
  /// each owns its action values, and the copies replay pushes share the
  /// recorded clock snapshots. Replay re-bases EventIndex onto the current
  /// stream position.
  std::vector<std::pair<uint32_t, CommutativityRace>> Races;

  /// Number of events in the chunk (stream-position advance on replay).
  uint64_t Events = 0;
  /// Number of invoke events (detector action count delta).
  uint64_t Invokes = 0;
  /// Memory (read/write) and transaction-marker event counts, so replay
  /// keeps the pipeline's per-kind ingress tally exact. Sync is zero by
  /// construction (gate 2).
  uint64_t MemEvents = 0;
  uint64_t TxEvents = 0;
  /// Phase-1 conflict-probe delta.
  uint64_t ConflictChecks = 0;
};

/// Digest-keyed summary table. Keys are chunk content digests whose
/// payloads the wire layer pinned in its payload store (insert-only, no
/// eviction), so a key can never silently change meaning. insert()
/// overwrites: a version-mismatch fallback re-records the summary against
/// the new entry state.
class ChunkMemoTable {
public:
  /// The summary recorded for \p Digest, or nullptr.
  const ChunkSummary *find(uint64_t Digest) const {
    auto It = Table.find(Digest);
    return It == Table.end() ? nullptr : &It->second;
  }

  /// Creates or resets the summary slot for \p Digest.
  ChunkSummary &insert(uint64_t Digest) {
    ChunkSummary &S = Table[Digest];
    S = ChunkSummary();
    return S;
  }

  /// Drops \p Digest's summary so a later occurrence re-attempts
  /// recording (used when a chunk was disqualified only transiently —
  /// detector state was still converging when it was interpreted).
  void erase(uint64_t Digest) { Table.erase(Digest); }

  size_t size() const { return Table.size(); }

private:
  std::unordered_map<uint64_t, ChunkSummary> Table;
};

} // namespace crd

#endif // CRD_DETECT_CHUNKMEMO_H
