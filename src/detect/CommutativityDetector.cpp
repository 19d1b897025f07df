//===- detect/CommutativityDetector.cpp - Algorithm 1 ------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/CommutativityDetector.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace crd;

void CommutativityRaceDetector::process(const Event &E) {
  ++EventIndex;
  if (E.isInvoke())
    Engine.onAction(E.action(), E.thread(), VCState.clockOf(E.thread()),
                    EventIndex - 1);
  VCState.process(E);
}

void CommutativityRaceDetector::processKinded(const Event *Evs,
                                              const uint8_t *Kinds, size_t N) {
  uint64_t Begin = metrics::nowNs();
  InvokeScratch.clear();
  auto Resolve = [this](ThreadId T) -> const VectorClock & {
    return VCState.clockOf(T);
  };
  auto FlushRun = [&] {
    if (InvokeScratch.empty())
      return;
    Engine.onRun(Evs, InvokeScratch.data(), InvokeScratch.size(), EventIndex,
                 Resolve);
    InvokeScratch.clear();
  };
  // The kind encoding puts fork/join/acquire/release below Invoke, so the
  // kind bytes alone find both the sync events and the invokes; memory and
  // transaction events are never loaded.
  constexpr uint8_t InvokeKind = static_cast<uint8_t>(EventKind::Invoke);
  for (size_t P = 0; P != N; ++P) {
    if (Kinds[P] < SyncKindBound) {
      // Sync event: the run before it is complete — execute its actions
      // (their clocks predate this Table 1 update), then advance clocks.
      FlushRun();
      VCState.process(Evs[P]);
    } else if (Kinds[P] == InvokeKind) {
      InvokeScratch.push_back(static_cast<uint32_t>(P));
    }
  }
  FlushRun();
  EventIndex += N;
  KernelNs += metrics::nowNs() - Begin;
}

void CommutativityRaceDetector::processTrace(const Trace &T) {
  // Windowed kernel feed: the trace stores events (not kind bytes), so
  // each window gathers its kinds into reusable scratch first.
  constexpr size_t Window = 4096;
  const std::vector<Event> &Events = T.events();
  for (size_t Begin = 0; Begin < Events.size(); Begin += Window) {
    size_t N = std::min(Window, Events.size() - Begin);
    KindScratch.clear();
    for (size_t J = 0; J != N; ++J)
      KindScratch.push_back(static_cast<uint8_t>(Events[Begin + J].kind()));
    processKinded(Events.data() + Begin, KindScratch.data(), N);
  }
}

void CommutativityRaceDetector::processBatch(const EventBatch &B) {
  if (B.empty())
    return;
  assert(B.Kinds.size() == B.Events.size() && "batch kind array out of sync");
  processKinded(B.Events.data(), B.Kinds.data(), B.size());
}

bool CommutativityRaceDetector::finishMemoRecord(const MemoRecordToken &Token,
                                                 const EventBatch &B,
                                                 size_t From, size_t N,
                                                 ChunkSummary &Out) const {
  Out.Memoizable = false;
  Out.Events = N;
  // Gate 2 (ChunkMemo.h): any sync event disqualifies the chunk. Gate 3:
  // the interpretation must have been a state no-op, otherwise the entry
  // versions collected below (which are *exit* versions) would not
  // describe the state the summary depends on.
  if (VCState.mutationStamp() != Token.VCStamp ||
      Engine.mutationStamp() != Token.EngineStamp)
    return false;
  for (size_t I = From, E = From + N; I != E; ++I)
    if (B.Events[I].isSync())
      return false;

  // State no-op ⇒ entry versions == current versions: the footprint can
  // be collected after the fact by scanning the chunk's events.
  std::vector<ThreadId> Threads;
  std::vector<ObjectId> Objects;
  uint64_t Invokes = 0, Mem = 0, Tx = 0;
  for (size_t I = From, E = From + N; I != E; ++I) {
    const Event &Ev = B.Events[I];
    Threads.push_back(Ev.thread());
    if (Ev.isInvoke()) {
      ++Invokes;
      Objects.push_back(Ev.action().object());
    } else if (Ev.isMemoryAccess()) {
      ++Mem;
    } else {
      ++Tx;
    }
  }
  std::sort(Threads.begin(), Threads.end());
  Threads.erase(std::unique(Threads.begin(), Threads.end()), Threads.end());
  std::sort(Objects.begin(), Objects.end());
  Objects.erase(std::unique(Objects.begin(), Objects.end()), Objects.end());

  Out.ConfigStamp = Engine.configStamp();
  Out.ThreadVersions.reserve(Threads.size());
  for (ThreadId T : Threads)
    Out.ThreadVersions.emplace_back(T, VCState.threadVersion(T));
  Out.ObjectVersions.reserve(Objects.size());
  for (ObjectId O : Objects)
    Out.ObjectVersions.emplace_back(O, Engine.objectVersion(O));

  const std::vector<CommutativityRace> &Races = Engine.races();
  for (size_t I = Token.BaseRaces, E = Races.size(); I != E; ++I) {
    const CommutativityRace &R = Races[I];
    Out.Races.emplace_back(
        static_cast<uint32_t>(R.EventIndex - Token.BaseEventIndex), R);
  }
  Out.Invokes = Invokes;
  Out.MemEvents = Mem;
  Out.TxEvents = Tx;
  Out.ConflictChecks = Engine.conflictChecks() - Token.BaseConflictChecks;
  Out.Memoizable = true;
  return true;
}

bool CommutativityRaceDetector::tryReplayChunk(const ChunkSummary &S) {
  if (!S.Memoizable || Engine.configStamp() != S.ConfigStamp)
    return false;
  for (const auto &[Thread, Version] : S.ThreadVersions)
    if (VCState.threadVersion(Thread) != Version)
      return false;
  for (const auto &[Obj, Version] : S.ObjectVersions)
    if (Engine.objectVersion(Obj) != Version)
      return false;
  for (const auto &[Rel, Race] : S.Races) {
    CommutativityRace Rebased = Race;
    Rebased.EventIndex = EventIndex + Rel;
    Engine.replayRace(Rebased);
  }
  Engine.addReplayStats(S.ConflictChecks, S.Invokes);
  EventIndex += S.Events;
  return true;
}
