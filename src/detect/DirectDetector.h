//===- detect/DirectDetector.h - Θ(|A|) baseline detector -------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "direct approach" the paper contrasts Algorithm 1 against (§5.1): it
/// records every action and, on each new action, evaluates the logical
/// commutativity formula against every previously recorded action of the
/// same object — Θ(|A|) commutativity checks per action. It serves as
/// (a) the complexity baseline for the §5.4 experiments and (b) the test
/// oracle for Theorem 5.1: both detectors must flag exactly the same events.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_DIRECTDETECTOR_H
#define CRD_DETECT_DIRECTDETECTOR_H

#include "detect/Race.h"
#include "hb/VectorClockState.h"
#include "spec/Spec.h"
#include "trace/Trace.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace crd {

/// Baseline detector working directly on the logical specification.
class DirectCommutativityDetector {
public:
  DirectCommutativityDetector() = default;

  /// Binds the specification used for actions on \p Obj.
  void bind(ObjectId Obj, const ObjectSpec *Spec);

  /// Specification used for objects without an explicit bind().
  void setDefaultSpec(const ObjectSpec *Spec) { DefaultSpec = Spec; }

  void process(const Event &E);
  void processTrace(const Trace &T);

  const std::vector<CommutativityRace> &races() const { return Races; }
  size_t distinctRacyObjects() const { return RacyObjects.size(); }

  /// Number of pairwise formula evaluations performed so far (grows
  /// quadratically with the number of actions per object).
  size_t conflictChecks() const { return ConflictChecks; }

private:
  struct Recorded {
    Action TheAction;
    VectorClock Clock;
    /// Race-record forms of this action as the prior side ("action ..."
    /// and its clock), built on the first race it takes part in.
    std::optional<Symbol> Name;
    RaceClock Snapshot;
  };

  struct ObjectState {
    const ObjectSpec *Spec = nullptr;
    std::vector<Recorded> History;
  };

  void handleInvoke(const Event &E);

  VectorClockState VCState;
  std::unordered_map<ObjectId, ObjectState> Objects;
  const ObjectSpec *DefaultSpec = nullptr;
  std::vector<CommutativityRace> Races;
  std::unordered_set<ObjectId> RacyObjects;
  size_t EventIndex = 0;
  size_t ConflictChecks = 0;
};

} // namespace crd

#endif // CRD_DETECT_DIRECTDETECTOR_H
