//===- detect/FastTrack.h - FastTrack read-write race detector --*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FASTTRACK low-level race detector (Flanagan & Freund, PLDI 2009) the
/// paper evaluates against in Table 2. It consumes the low-level read/write
/// events of a trace and detects unordered conflicting accesses to the same
/// memory location, using the epoch optimization: a location's last write
/// (and, while reads are thread-exclusive, its last read) is a single
/// clock@thread pair instead of a full vector clock.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_FASTTRACK_H
#define CRD_DETECT_FASTTRACK_H

#include "detect/Race.h"
#include "hb/VectorClockState.h"
#include "support/EpochClock.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"
#include "trace/Trace.h"

#include <unordered_set>
#include <vector>

namespace crd {

/// Counters the FastTrack detector accumulates (zeros when CRD_METRICS=0).
/// Each read/write performs exactly one shadow-table probe, so TableProbes
/// = Reads + Writes; SameEpochHits counts the O(1) fast-path exits ([Read
/// Same Epoch]/[Write Same Epoch]) that never consult the write/read state.
struct FastTrackStats {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t TableProbes = 0;
  uint64_t SameEpochHits = 0;
};

/// FastTrack detector over Read/Write (and synchronization) events.
class FastTrackDetector {
public:
  FastTrackDetector() = default;

  void process(const Event &E);
  void processTrace(const Trace &T);

  /// Records reported and not yet drained, in report order (every record
  /// unless a caller drains).
  const std::vector<MemoryRace> &races() const { return Races; }

  /// Total races reported so far, drained or not.
  size_t raceCount() const { return RaceCount; }

  /// Hands every undrained record to \p Fn in report order, then drops
  /// them.
  template <typename F> void drainRaces(F &&Fn) {
    for (const MemoryRace &R : Races)
      Fn(R);
    Races.clear();
  }

  /// Number of distinct memory locations with at least one race (the
  /// "(distinct)" column of Table 2 for FASTTRACK).
  size_t distinctRacyVars() const { return RacyVars.size(); }

  /// Metrics snapshot (docs/observability.md).
  FastTrackStats stats() const {
    FastTrackStats S;
    S.Reads = Reads.get();
    S.Writes = Writes.get();
    S.TableProbes = S.Reads + S.Writes;
    S.SameEpochHits = SameEpochHits.get();
    return S;
  }

private:
  /// A scalar timestamp c@t.
  struct Epoch {
    uint32_t Clock = 0;
    ThreadId Tid;

    bool leq(const VectorClock &VC) const { return Clock <= VC.get(Tid); }
    bool isBottom() const { return Clock == 0; }
    friend bool operator==(const Epoch &A, const Epoch &B) {
      return A.Clock == B.Clock && A.Tid == B.Tid;
    }
  };

  /// Per-location shadow state. The read side is an adaptive EpochClock:
  /// a single epoch while reads stay thread-exclusive, escalated to a full
  /// vector clock when reads become concurrent ([Read Share]).
  struct VarState {
    Epoch Write;
    EpochClock Read;
  };

  void handleRead(const Event &E);
  void handleWrite(const Event &E);
  void report(MemoryRace::Kind Kind, VarId Var, ThreadId Prior,
              ThreadId Current);

  static Epoch epochOf(const VectorClock &VC, ThreadId Tid) {
    return {VC.get(Tid), Tid};
  }

  VectorClockState VCState;
  /// Flat per-location shadow table: the read/write hot path is one open
  /// addressing probe instead of a node pointer chase.
  FlatMap<VarId, VarState> Vars;
  std::vector<MemoryRace> Races;
  size_t RaceCount = 0;
  std::unordered_set<VarId> RacyVars;
  size_t EventIndex = 0;
  /// Observability counters (single writer; no-ops when CRD_METRICS=0).
  metrics::Counter Reads;
  metrics::Counter Writes;
  metrics::Counter SameEpochHits;
};

} // namespace crd

#endif // CRD_DETECT_FASTTRACK_H
