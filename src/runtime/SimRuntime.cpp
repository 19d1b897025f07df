//===- runtime/SimRuntime.cpp - Deterministic concurrent runtime -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/SimRuntime.h"

#include <cassert>

using namespace crd;

EventSink::~EventSink() = default;

void SimThread::read(VarId Var) { RT.emit(Event::read(Self, Var)); }
void SimThread::write(VarId Var) { RT.emit(Event::write(Self, Var)); }
void SimThread::acquire(LockId Lock) { RT.emit(Event::acquire(Self, Lock)); }
void SimThread::release(LockId Lock) { RT.emit(Event::release(Self, Lock)); }
void SimThread::invoke(Action A) {
  RT.emit(Event::invoke(Self, std::move(A)));
}

void SimThread::txBegin() { RT.emit(Event::txBegin(Self)); }
void SimThread::txEnd() { RT.emit(Event::txEnd(Self)); }

ThreadId SimThread::fork(SimStep Body) {
  return RT.forkThread(Self, std::move(Body));
}

void SimThread::join(ThreadId Other) {
  assert(Other != Self && "thread cannot join itself");
  SimRuntime::ThreadState &State = RT.Threads[Self.index()];
  assert(!State.WaitingOn && "thread is already waiting");
  State.WaitingOn = Other;
  State.JoinEventPending = true;
}

void SimThread::defer(SimStep Continuation) {
  Deferred.push_back(std::move(Continuation));
}

uint64_t SimThread::random(uint64_t Bound) { return RT.drawRandom(Bound); }

ThreadId SimRuntime::addInitialThread() {
  ThreadId Id(static_cast<uint32_t>(Threads.size()));
  Threads.emplace_back();
  return Id;
}

void SimRuntime::schedule(ThreadId Thread, SimStep Step) {
  assert(Thread.index() < Threads.size() && "unknown thread");
  Threads[Thread.index()].Program.push_back(std::move(Step));
}

ThreadId SimRuntime::forkThread(ThreadId Parent, SimStep Body) {
  ThreadId Child(static_cast<uint32_t>(Threads.size()));
  Threads.emplace_back();
  Threads[Child.index()].Program.push_back(std::move(Body));
  emit(Event::fork(Parent, Child));
  return Child;
}

uint64_t SimRuntime::drawRandom(uint64_t Bound) {
  assert(Bound > 0 && "bound must be positive");
  return Rng() % Bound;
}

void SimRuntime::emit(const Event &E) {
  assert(Sink && "emit outside run()");
  if (Sink->enabled())
    Sink->onEvent(E);
}

bool SimRuntime::finished(ThreadId Thread) const {
  if (Thread.index() >= Threads.size())
    return true;
  const ThreadState &State = Threads[Thread.index()];
  return State.Program.empty() && !State.WaitingOn;
}

size_t SimRuntime::run(EventSink &TheSink) {
  Sink = &TheSink;
  size_t StepsRun = 0;
  std::vector<uint32_t> Runnable;

  while (true) {
    Runnable.clear();
    for (uint32_t I = 0, E = static_cast<uint32_t>(Threads.size()); I != E;
         ++I) {
      ThreadState &State = Threads[I];
      if (State.WaitingOn) {
        if (!finished(*State.WaitingOn))
          continue;
        // The joined thread terminated: emit the deferred Join event and
        // unblock. (Unblocking is itself a schedulable step.)
        Runnable.push_back(I);
        continue;
      }
      if (!State.Program.empty())
        Runnable.push_back(I);
    }
    if (Runnable.empty())
      break;

    uint32_t Pick =
        Runnable[Runnable.size() == 1 ? 0 : drawRandom(Runnable.size())];
    ThreadState &State = Threads[Pick];
    ThreadId Self(Pick);

    if (State.WaitingOn) {
      ThreadId Target = *State.WaitingOn;
      State.WaitingOn.reset();
      if (State.JoinEventPending) {
        State.JoinEventPending = false;
        emit(Event::join(Self, Target));
      }
      ++StepsRun;
      continue;
    }

    SimStep Step = std::move(State.Program.front());
    State.Program.pop_front();

    SimThread Handle(*this, Self);
    Step(Handle);
    ++StepsRun;

    // Deferred continuations run next, in defer order. Note: re-fetch the
    // state reference — the step may have forked threads, invalidating it.
    ThreadState &StateAfter = Threads[Pick];
    for (auto It = Handle.Deferred.rbegin(), E = Handle.Deferred.rend();
         It != E; ++It)
      StateAfter.Program.push_front(std::move(*It));
  }

#ifndef NDEBUG
  // Every thread must have terminated; a leftover waiter means a join cycle.
  for (uint32_t I = 0, E = static_cast<uint32_t>(Threads.size()); I != E; ++I)
    assert(finished(ThreadId(I)) && "join deadlock: thread never unblocked");
#endif
  Sink = nullptr;
  return StepsRun;
}
