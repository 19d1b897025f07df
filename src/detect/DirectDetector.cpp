//===- detect/DirectDetector.cpp - Θ(|A|) baseline detector ------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/DirectDetector.h"

#include <cassert>

using namespace crd;

void DirectCommutativityDetector::bind(ObjectId Obj, const ObjectSpec *Spec) {
  assert(Spec && "null specification");
  Objects[Obj].Spec = Spec;
}

void DirectCommutativityDetector::process(const Event &E) {
  ++EventIndex;
  if (E.isInvoke())
    handleInvoke(E);
  VCState.process(E);
}

void DirectCommutativityDetector::processTrace(const Trace &T) {
  for (const Event &E : T)
    process(E);
}

void DirectCommutativityDetector::handleInvoke(const Event &E) {
  const Action &A = E.action();
  ObjectState &State = Objects[A.object()];
  if (!State.Spec) {
    assert(DefaultSpec && "object has no bound specification");
    State.Spec = DefaultSpec;
  }
  const VectorClock &Clock = VCState.clockOf(E.thread());
  RaceClock CurrentSnapshot;

  for (Recorded &Prior : State.History) {
    ++ConflictChecks;
    if (!Prior.Clock.concurrentWith(Clock))
      continue;
    if (State.Spec->commute(Prior.TheAction, A))
      continue;
    if (!Prior.Name) {
      Prior.Name = symbol("action " + Prior.TheAction.toString());
      Prior.Snapshot = RaceClock(Prior.Clock);
    }
    if (CurrentSnapshot.size() == 0)
      CurrentSnapshot = RaceClock(Clock);
    CommutativityRace &Race = Races.emplace_back();
    Race.EventIndex = EventIndex - 1;
    Race.Thread = E.thread();
    Race.Current = A;
    Race.PointName = *Prior.Name;
    Race.PriorClock = Prior.Snapshot;
    Race.CurrentClock = CurrentSnapshot;
    RacyObjects.insert(A.object());
  }

  State.History.push_back({A, Clock, std::nullopt, RaceClock()});
}
