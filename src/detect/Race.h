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
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_RACE_H
#define CRD_DETECT_RACE_H

#include "support/VectorClock.h"
#include "trace/Action.h"

#include <iosfwd>
#include <string>

namespace crd {

/// A commutativity race (paper Def 4.3) found by Algorithm 1 or by the
/// direct baseline detector.
struct CommutativityRace {
  size_t EventIndex = 0;   ///< Position of the current (second) event.
  ThreadId Thread;         ///< Thread of the current event.
  Action Current;          ///< The action of the current event.
  /// Conflicting access point class (debug name). Owned: race reports
  /// outlive the provider whose className() they copy from (class names
  /// are short, so the copy is SSO — no heap traffic on the hot path).
  std::string PointName;
  VectorClock PriorClock;  ///< Accumulated clock of the conflicting point.
  VectorClock CurrentClock;

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

  std::string toString() const;
};

/// A low-level read-write race found by the FastTrack baseline.
struct MemoryRace {
  enum class Kind { WriteWrite, WriteRead, ReadWrite };

  size_t EventIndex = 0;
  VarId Var;
  Kind Access = Kind::WriteWrite;
  ThreadId PriorThread;
  ThreadId CurrentThread;

  std::string toString() const;
};

std::ostream &operator<<(std::ostream &OS, const CommutativityRace &R);
std::ostream &operator<<(std::ostream &OS, const MemoryRace &R);

} // namespace crd

#endif // CRD_DETECT_RACE_H
