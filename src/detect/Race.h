//===- detect/Race.h - Race reports -----------------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Report records produced by the detectors. Following the paper's Table 2,
/// races are counted both in total and as distinct racy entities (objects
/// for RD2, memory locations for FastTrack).
///
/// A record is a compact, self-contained value: copying one never copies
/// a clock or a name onto the heap, and a copy stays valid after the batch
/// that produced it and after the detector is gone. Records are rendered
/// by one formatter (renderText(), support/TextRender.h) that backs
/// operator<<, toString(), `crd check` and `crd serve` alike.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_RACE_H
#define CRD_DETECT_RACE_H

#include "support/EpochClock.h"
#include "support/Symbol.h"
#include "support/VectorClock.h"
#include "trace/Action.h"

#include <iosfwd>
#include <memory>
#include <string>

namespace crd {

/// A vector clock as a race record holds it: either an epoch Time@Thread
/// inline (the accumulated clock of a point that never escalated), or an
/// immutable snapshot of a full clock, shared by every record copied from
/// the one that took it. Copies never allocate; a snapshot allocates once.
/// Compares and prints by value: an epoch prints as EpochClock::toClock()
/// would, `Thread + 1` components with zeros before the time.
class RaceClock {
public:
  /// ⊥ (prints as "<>").
  RaceClock() = default;

  /// Snapshot of \p C (one allocation unless C is ⊥).
  explicit RaceClock(const VectorClock &C);

  /// The epoch \p Time @ \p Thread, held inline; ⊥ when Time is 0.
  static RaceClock epoch(ThreadId Thread, uint32_t Time) {
    RaceClock R;
    if (Time != 0) {
      R.Size = Thread.index() + 1;
      R.Time = Time;
    }
    return R;
  }

  /// \p C's current representation: its epoch inline, or a snapshot of its
  /// escalated clock.
  static RaceClock of(const EpochClock &C) {
    if (C.isShared())
      return RaceClock(C.sharedClock());
    return C.isEpoch() ? epoch(C.epochThread(), C.epochTime()) : RaceClock();
  }

  /// Number of components up to the last nonzero one.
  size_t size() const { return Size; }

  /// Component \p I (zero past size()).
  uint32_t operator[](size_t I) const {
    if (I >= Size)
      return 0;
    if (Comps)
      return Comps[I];
    return I + 1 == Size ? Time : 0;
  }

  /// True when this is a snapshot holding exactly \p C's components.
  bool isSnapshotOf(const VectorClock &C) const;

  VectorClock toClock() const;

  /// Upper bound of the bytes renderText() writes.
  size_t textBound() const { return VectorClock::componentsTextBound(Size); }
  /// Writes the clock as VectorClock prints it ("<3,0,1>"); returns the end.
  char *renderText(char *Out) const;

  friend bool operator==(const RaceClock &A, const RaceClock &B) {
    if (A.Size != B.Size)
      return false;
    for (uint32_t I = 0; I != A.Size; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  friend bool operator!=(const RaceClock &A, const RaceClock &B) {
    return !(A == B);
  }

private:
  std::shared_ptr<const uint32_t[]> Comps; ///< Null for ⊥ and epochs.
  uint32_t Size = 0;
  uint32_t Time = 0; ///< The epoch's time (Comps null).
};

/// A commutativity race (paper Def 4.3) found by Algorithm 1 or by the
/// direct baseline detector.
struct CommutativityRace {
  size_t EventIndex = 0; ///< Position of the current (second) event.
  ThreadId Thread;       ///< Thread of the current event.
  Action Current;        ///< The action of the current event (owning copy).
  /// Conflicting access point class (debug name), interned once per
  /// (provider, class) by the detector rather than copied per race.
  Symbol PointName;
  /// Accumulated clock of the conflicting point: its epoch inline, or a
  /// snapshot taken per race once the point has escalated.
  RaceClock PriorClock;
  /// Clock of the current event: one snapshot per thread clock, shared by
  /// every race the thread reports while its clock is unchanged.
  RaceClock CurrentClock;

  /// Field-for-field equality; used by the detector equivalence suites
  /// (races must be bit-identical, not just same-count).
  friend bool operator==(const CommutativityRace &A,
                         const CommutativityRace &B) {
    return A.EventIndex == B.EventIndex && A.Thread == B.Thread &&
           A.Current == B.Current && A.PointName == B.PointName &&
           A.PriorClock == B.PriorClock && A.CurrentClock == B.CurrentClock;
  }
  friend bool operator!=(const CommutativityRace &A,
                         const CommutativityRace &B) {
    return !(A == B);
  }

  /// The report line: `commutativity race at event N: TT performs ACTION
  /// conflicting on POINT (prior CLOCK || current CLOCK)`.
  std::string toString() const;

  /// Upper bound of the bytes renderText() writes.
  size_t textBound() const;
  /// Writes toString()'s text at \p Out; returns the end.
  char *renderText(char *Out) const;
};

/// A low-level read-write race found by the FastTrack baseline.
struct MemoryRace {
  enum class Kind { WriteWrite, WriteRead, ReadWrite };

  size_t EventIndex = 0;
  VarId Var;
  Kind Access = Kind::WriteWrite;
  ThreadId PriorThread;
  ThreadId CurrentThread;

  friend bool operator==(const MemoryRace &A, const MemoryRace &B) = default;

  /// The report line: `KIND race at event N on VX between TA and TB`.
  std::string toString() const;

  /// Upper bound of the bytes renderText() writes.
  size_t textBound() const;
  /// Writes toString()'s text at \p Out; returns the end.
  char *renderText(char *Out) const;
};

std::ostream &operator<<(std::ostream &OS, const CommutativityRace &R);
std::ostream &operator<<(std::ostream &OS, const MemoryRace &R);

} // namespace crd

#endif // CRD_DETECT_RACE_H
