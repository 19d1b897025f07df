//===- detect/FastTrack.cpp - FastTrack read-write race detector -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/FastTrack.h"

using namespace crd;

void FastTrackDetector::process(const Event &E) {
  ++EventIndex;
  switch (E.kind()) {
  case EventKind::Read:
    handleRead(E);
    break;
  case EventKind::Write:
    handleWrite(E);
    break;
  default:
    break;
  }
  VCState.process(E);
}

void FastTrackDetector::processTrace(const Trace &T) {
  for (const Event &E : T)
    process(E);
}

void FastTrackDetector::report(MemoryRace::Kind Kind, VarId Var,
                               ThreadId Prior, ThreadId Current) {
  Races.push_back({EventIndex - 1, Var, Kind, Prior, Current});
  ++RaceCount;
  RacyVars.insert(Var);
}

void FastTrackDetector::handleRead(const Event &E) {
  Reads.inc();
  const VectorClock &C = VCState.clockOf(E.thread());
  VarState &X = Vars[E.var()];
  uint32_t Now = C.get(E.thread());

  // [Read Same Epoch] / [Read Shared Same Epoch]
  if (X.Read.sameEpoch(E.thread(), Now)) {
    SameEpochHits.inc();
    return;
  }
  if (X.Read.isShared() && X.Read.localOf(E.thread()) == Now) {
    SameEpochHits.inc();
    return;
  }

  // Write-read race check.
  if (!X.Write.leq(C))
    report(MemoryRace::Kind::WriteRead, E.var(), X.Write.Tid, E.thread());

  if (!X.Read.isShared()) {
    // [Read Exclusive] — the previous read is ordered before this one.
    if (X.Read.isBottom() || X.Read.leq(C)) {
      X.Read.setEpoch(E.thread(), Now);
      return;
    }
    // [Read Share] — inflate: the escalated clock starts from the previous
    // read's epoch and gains this read's component.
    X.Read.escalate();
    X.Read.setLocal(E.thread(), Now);
    return;
  }
  // [Read Shared]
  X.Read.setLocal(E.thread(), Now);
}

void FastTrackDetector::handleWrite(const Event &E) {
  Writes.inc();
  const VectorClock &C = VCState.clockOf(E.thread());
  VarState &X = Vars[E.var()];
  Epoch Current = epochOf(C, E.thread());

  // [Write Same Epoch]
  if (X.Write == Current) {
    SameEpochHits.inc();
    return;
  }

  // Write-write race check.
  if (!X.Write.leq(C))
    report(MemoryRace::Kind::WriteWrite, E.var(), X.Write.Tid, E.thread());

  if (!X.Read.isShared()) {
    // [Write Exclusive] — check the last read.
    if (!X.Read.isBottom() && !X.Read.leq(C))
      report(MemoryRace::Kind::ReadWrite, E.var(), X.Read.epochThread(),
             E.thread());
  } else {
    // [Write Shared] — check the full read clock, then deflate.
    const VectorClock &ReadClock = X.Read.sharedClock();
    if (!ReadClock.leq(C)) {
      // Find one offending reader for the report.
      ThreadId Offender = E.thread();
      for (uint32_t I = 0, N = static_cast<uint32_t>(ReadClock.size());
           I != N; ++I) {
        ThreadId Tid(I);
        if (ReadClock.get(Tid) > C.get(Tid)) {
          Offender = Tid;
          break;
        }
      }
      report(MemoryRace::Kind::ReadWrite, E.var(), Offender, E.thread());
    }
    X.Read.clear();
  }
  X.Write = Current;
}
