//===- detect/CommutativityDetector.cpp - Algorithm 1 ------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/CommutativityDetector.h"

#include "support/Metrics.h"

#include <algorithm>

using namespace crd;

void CommutativityRaceDetector::process(const Event &E) {
  ++EventIndex;
  if (E.isInvoke())
    Engine.onAction(E.action(), E.thread(), VCState.clockOf(E.thread()),
                    EventIndex - 1);
  VCState.process(E);
}

void CommutativityRaceDetector::processTrace(const Trace &T) {
  // The trace goes through the batched kernel one window at a time.
  constexpr size_t Window = 4096;
  EventBatch B;
  for (const Event &E : T) {
    B.append(E);
    if (B.size() == Window) {
      processBatch(B);
      B.clear();
    }
  }
  processBatch(B);
}

void CommutativityRaceDetector::processBatch(const EventBatch &B) {
  if (B.empty())
    return;
  uint64_t Begin = metrics::nowNs();
  InvokeScratch.clear();
  size_t RunRecord = 0; // B.Invokes index of the pending run's first invoke.
  auto Resolve = [this](ThreadId T) -> const VectorClock & {
    return VCState.clockOf(T);
  };
  auto FlushRun = [&] {
    if (InvokeScratch.empty())
      return;
    Engine.onRun(B, InvokeScratch.data(), InvokeScratch.size(), RunRecord,
                 EventIndex, Resolve);
    RunRecord += InvokeScratch.size();
    InvokeScratch.clear();
  };
  // The kind encoding puts fork/join/acquire/release below Invoke, so the
  // kind bytes alone find both the sync events and the invokes; memory and
  // transaction events are never loaded.
  constexpr uint8_t InvokeKind = static_cast<uint8_t>(EventKind::Invoke);
  const uint8_t *Kinds = B.Kinds.data();
  for (size_t P = 0, N = B.size(); P != N; ++P) {
    if (Kinds[P] < SyncKindBound) {
      // Sync event: the run before it is complete — execute its actions
      // (their clocks predate this Table 1 update), then advance clocks.
      FlushRun();
      VCState.sync(static_cast<EventKind>(Kinds[P]), B.Threads[P],
                   B.Operands[P]);
    } else if (Kinds[P] == InvokeKind) {
      InvokeScratch.push_back(static_cast<uint32_t>(P));
    }
  }
  FlushRun();
  EventIndex += B.size();
  KernelNs += metrics::nowNs() - Begin;
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
    if (B.Kinds[I] < SyncKindBound)
      return false;

  // State no-op ⇒ entry versions == current versions: the footprint can
  // be collected after the fact by scanning the chunk's events.
  std::vector<ThreadId> Threads;
  std::vector<ObjectId> Objects;
  uint64_t Invokes = 0, Mem = 0, Tx = 0;
  for (size_t I = From, E = From + N; I != E; ++I) {
    Threads.push_back(B.Threads[I]);
    auto Kind = static_cast<EventKind>(B.Kinds[I]);
    if (Kind == EventKind::Invoke) {
      ++Invokes;
      Objects.push_back(ObjectId(B.Operands[I]));
    } else if (Kind == EventKind::Read || Kind == EventKind::Write) {
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
