//===- detect/CommutativityDetector.h - Algorithm 1 -------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's commutativity race detector (Algorithm 1 + Table 1). The
/// detector consumes a trace online; synchronization events update the
/// vector-clock state, and each action event runs the two phases of
/// Algorithm 1 (see Algorithm1.h) against the access point representation
/// of its object.
///
/// With representations produced from ECL specifications, |Co(pt)| is
/// bounded, so phase 1 performs Θ(1) hash probes per touched point (§5.4);
/// with epoch-compressed accumulated clocks (EpochClock), each probe and
/// each phase-2 accumulation is itself O(1) while a point's history stays
/// HB-totally-ordered, removing the O(#threads) clock copies that
/// otherwise dominate the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_COMMUTATIVITYDETECTOR_H
#define CRD_DETECT_COMMUTATIVITYDETECTOR_H

#include "detect/Algorithm1.h"
#include "detect/ChunkMemo.h"
#include "hb/VectorClockState.h"
#include "trace/EventBatch.h"
#include "trace/Trace.h"

namespace crd {

/// Online commutativity race detector (Algorithm 1).
class CommutativityRaceDetector {
public:
  CommutativityRaceDetector() = default;

  /// Binds the representation used for actions on \p Obj. Representations
  /// for distinct objects may be shared (they describe the object *type*).
  void bind(ObjectId Obj, const AccessPointProvider *Provider) {
    Engine.bind(Obj, Provider);
  }

  /// Representation used for objects without an explicit bind().
  void setDefaultProvider(const AccessPointProvider *Provider) {
    Engine.setDefaultProvider(Provider);
  }

  /// Feeds one event (any kind; non-action events update clocks only).
  void process(const Event &E);

  /// Feeds a whole trace. Routed through the batched kernel: events are
  /// windowed, kind-scanned, and each sync-free run's actions execute
  /// through the engine's batched onRun() — bit-identical races to the
  /// per-event path.
  void processTrace(const Trace &T);

  /// Feeds a whole batch through the batched kernel (the streaming
  /// pipeline's pull loop). Only \p B's Events and Kinds are consulted.
  /// \p B is left untouched.
  void processBatch(const EventBatch &B);

  /// Nanoseconds spent inside the batched kernel (processTrace /
  /// processBatch), reported as `crd profile`'s `kernel_ns`. Zero on the
  /// per-event path.
  uint64_t kernelNs() const { return KernelNs; }

  /// Reclaims all auxiliary state of a dead object (the paper's
  /// object-reclamation optimization, §5.3): its active points and their
  /// clocks are dropped; no further races can be reported on it.
  void objectDied(ObjectId Obj) { Engine.objectDied(Obj); }

  /// Records reported and not yet drained, in report order. A detector
  /// nobody drains (the usual standalone use) keeps every record here.
  const std::vector<CommutativityRace> &races() const {
    return Engine.races();
  }

  /// Total races reported so far, drained or not.
  size_t raceCount() const { return Engine.raceCount(); }

  /// Hands every undrained record to \p Fn in report order, then drops
  /// them. The streaming pipeline drains after every batch, so it keeps
  /// only counters and the distinct-object set.
  template <typename F> void drainRaces(F &&Fn) {
    Engine.drainRaces(std::forward<F>(Fn));
  }

  /// Number of distinct objects participating in at least one reported race
  /// (the "(distinct)" column of Table 2).
  size_t distinctRacyObjects() const { return Engine.distinctRacyObjects(); }

  /// Number of conflict-partner probes performed in phase 1 so far.
  /// Exposed for the §5.4 complexity experiments.
  size_t conflictChecks() const { return Engine.conflictChecks(); }

  /// Number of events processed.
  size_t eventsProcessed() const { return EventIndex; }

  /// Total number of currently active access points across live objects.
  /// Maintained incrementally by phase 2 and objectDied(); O(1).
  size_t activePointCount() const { return Engine.activePointCount(); }

  /// The engine's metrics snapshot (docs/observability.md).
  Algorithm1Stats engineStats() const { return Engine.stats(); }

  //===--------------------------------------------------------------------===//
  // Chunk memoization (detect/ChunkMemo.h). The streaming pipeline drives
  // these around verified-repeat chunks: beginMemoRecord() before
  // interpreting, finishMemoRecord() after (turning a state-no-op chunk
  // into a ChunkSummary), tryReplayChunk() on later occurrences.
  //===--------------------------------------------------------------------===//

  /// Snapshot of the stream position, undrained race count, counter
  /// baselines and mutation stamps taken before interpreting a candidate
  /// chunk. No drain may run between beginMemoRecord() and
  /// finishMemoRecord(): the summary copies the records reported since.
  struct MemoRecordToken {
    size_t BaseEventIndex = 0;
    size_t BaseRaces = 0;
    uint64_t VCStamp = 0;
    uint64_t EngineStamp = 0;
    uint64_t BaseConflictChecks = 0;
  };

  /// Opens a recording window at the current detector state.
  MemoRecordToken beginMemoRecord() const {
    return {EventIndex, Engine.races().size(), VCState.mutationStamp(),
            Engine.mutationStamp(), Engine.conflictChecks()};
  }

  /// Closes the window opened by \p Token after the chunk's events
  /// (\p B [\p From, \p From + \p N)) were interpreted, filling \p Out.
  /// Returns true iff the chunk is memoizable — sync-free and a detector
  /// state no-op — in which case Out carries a replayable summary;
  /// otherwise Out is a negative entry (Memoizable = false).
  bool finishMemoRecord(const MemoRecordToken &Token, const EventBatch &B,
                        size_t From, size_t N, ChunkSummary &Out) const;

  /// Replays \p S if its entire entry-state footprint (config stamp,
  /// thread versions, object versions) matches the current state: pushes
  /// the re-based race reports, adds the counter deltas, and advances the
  /// stream position by S.Events. Returns false (with no state change) on
  /// any mismatch — the caller must interpret the chunk normally.
  bool tryReplayChunk(const ChunkSummary &S);

  /// Snapshot of an object's active points and their accumulated clocks
  /// (diagnostic/testing API; order unspecified). Epoch-compressed points
  /// materialize as their single-component clock, which is probe-equivalent
  /// to the full join of the touching events' clocks (see EpochClock.h).
  std::vector<std::pair<AccessPoint, VectorClock>>
  activePoints(ObjectId Obj) const {
    return Engine.activePoints(Obj);
  }

private:
  /// The kernel driver shared by processTrace/processBatch: one scan over
  /// the kind bytes collects each run's invoke positions, flushes them into
  /// Engine.onRun() at the next sync event and feeds that sync event to the
  /// clock machine. \p Kinds[i] must be Evs[i]'s kind byte.
  void processKinded(const Event *Evs, const uint8_t *Kinds, size_t N);

  VectorClockState VCState;
  Algorithm1Engine Engine;
  size_t EventIndex = 0;
  /// processKinded scratch, reused across windows (allocation-free in the
  /// steady state).
  std::vector<uint32_t> InvokeScratch;
  std::vector<uint8_t> KindScratch;
  uint64_t KernelNs = 0;
};

} // namespace crd

#endif // CRD_DETECT_COMMUTATIVITYDETECTOR_H
