//===- perfbench/src/Inputs.cpp - Seeded workload inputs -------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include "detect/CommutativityDetector.h"
#include "runtime/SimRuntime.h"
#include "runtime/Sink.h"
#include "wire/WireWriter.h"
#include "workloads/MVStore.h"
#include "workloads/PolePosition.h"
#include "workloads/RepetitiveTrace.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <sstream>

using namespace crd;
using namespace perfbench;

namespace {

using EmitFn = std::function<void(const Event &)>;

uint64_t splitmix(uint64_t &S) {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

class EmitSink : public EventSink {
public:
  explicit EmitSink(const EmitFn &Emit) : Emit(Emit) {}
  void onEvent(const Event &E) override { Emit(E); }

private:
  const EmitFn &Emit;
};

void emitH2(uint64_t Seed, const EmitFn &Emit) {
  SimRuntime RT(Seed);
  MVStore Store(RT);
  CircuitConfig Config;
  Config.WorkerThreads = 16;
  Config.QueriesPerWorker = 8000;
  Config.Seed = Seed;
  buildCircuit(Circuit::ComplexConcurrency, RT, Store, Config);
  EmitSink Sink(Emit);
  RT.run(Sink);
}

/// The `crd record --stress` script (tools/crd/RecordCmd.cpp) replayed by
/// one thread: each logical thread runs its seeded script, and a seeded
/// scheduler picks which thread emits next, for a burst of 1 to 512 events
/// (the live collector drains 1024-slot rings in rounds). Unlike the live
/// recorder, the scheduler honours the locks: a thread whose window opens
/// on a held lock waits. About 19% of the events race.
void emitRacy(uint64_t Seed, uint64_t EventsPerThread, const EmitFn &Emit) {
  constexpr unsigned Threads = 4, Objects = 8, Keys = 64, LockEvery = 64,
                     Locks = 4, MaxBurst = 512;
  struct Script {
    uint64_t Rng = 0;
    uint64_t Next = 0; ///< Index of the next event in this script.
    uint32_t Lock = 0; ///< Lock of the current window.
    bool LockChosen = false;
  };
  Symbol Put = symbol("put"), Get = symbol("get");
  uint64_t Sched = Seed ^ 0x5bd1e995u;
  Script Scripts[Threads];
  for (unsigned T = 0; T != Threads; ++T) {
    uint64_t S = Seed * 0x100000001b3ull + T;
    Scripts[T].Rng = splitmix(S);
  }
  int Holder[Locks] = {-1, -1, -1, -1};

  auto Runnable = [&](unsigned T) {
    Script &Sc = Scripts[T];
    if (Sc.Next == EventsPerThread)
      return false;
    if (Sc.Next % LockEvery != 0)
      return true;
    if (!Sc.LockChosen) {
      Sc.Lock = static_cast<uint32_t>(splitmix(Sc.Rng) % Locks);
      Sc.LockChosen = true;
    }
    return Holder[Sc.Lock] < 0;
  };
  auto Step = [&](unsigned T) {
    Script &Sc = Scripts[T];
    ThreadId Tid(T);
    uint64_t Phase = Sc.Next++ % LockEvery;
    if (Phase == 0) {
      Holder[Sc.Lock] = static_cast<int>(T);
      Sc.LockChosen = false;
      Emit(Event::acquire(Tid, LockId(Sc.Lock)));
      return;
    }
    if (Phase == LockEvery - 1 || Sc.Next == EventsPerThread) {
      if (Holder[Sc.Lock] == static_cast<int>(T)) {
        Holder[Sc.Lock] = -1;
        Emit(Event::release(Tid, LockId(Sc.Lock)));
        return;
      }
    }
    uint64_t H = splitmix(Sc.Rng);
    ObjectId Obj(static_cast<uint32_t>(H % Objects));
    Value Key = Value::integer(static_cast<int64_t>((H >> 8) % Keys));
    if ((H >> 32) % 10 < 7) {
      Value Vals[3] = {Key, Value::integer(static_cast<int64_t>(H >> 40)),
                       Value::nil()};
      Action View(Obj, Put, Vals, /*NArgs=*/2, /*NRets=*/1);
      Emit(Event::invoke(Tid, View));
    } else {
      Value Vals[2] = {Key, Value::nil()};
      Action View(Obj, Get, Vals, /*NArgs=*/1, /*NRets=*/1);
      Emit(Event::invoke(Tid, View));
    }
  };

  unsigned Ready[Threads];
  for (;;) {
    unsigned NReady = 0;
    for (unsigned T = 0; T != Threads; ++T)
      if (Runnable(T))
        Ready[NReady++] = T;
    if (NReady == 0)
      break;
    uint64_t R = splitmix(Sched);
    unsigned T = Ready[R % NReady];
    unsigned Burst = 1 + static_cast<unsigned>((R >> 32) % MaxBurst);
    for (unsigned I = 0; I != Burst && Runnable(T); ++I)
      Step(T);
  }
}

/// RepetitiveTrace with its bodies shuffled: the library generator has no
/// seed, so the seed permutes the order of the body chunks (each chunk is
/// self-contained on the wire, so any order is a valid trace).
void emitRepeat(uint64_t Seed, const EmitFn &Emit) {
  RepetitiveTraceConfig Config;
  Config.DistinctBodies = 32;
  Config.Repetitions = 16;
  const size_t Chunk = Config.EventsPerBody;
  std::vector<Event> Prelude;
  std::vector<std::vector<Event>> Bodies(Config.DistinctBodies);
  size_t Seen = 0;
  buildRepetitiveTrace(Config, [&](const Event &E) {
    size_t Slot = Seen++ / Chunk;
    if (Slot == 0)
      Prelude.push_back(E);
    else if (Slot <= Config.DistinctBodies)
      Bodies[Slot - 1].push_back(E);
  });
  std::vector<uint32_t> Order;
  for (unsigned R = 0; R != Config.Repetitions; ++R)
    for (uint32_t B = 0; B != Config.DistinctBodies; ++B)
      Order.push_back(B);
  uint64_t S = Seed;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix(S) % I]);
  for (const Event &E : Prelude)
    Emit(E);
  for (uint32_t B : Order)
    for (const Event &E : Bodies[B])
      Emit(E);
}

} // namespace

std::string perfbench::summaryLine(uint64_t Events, uint64_t Races,
                                   uint64_t Distinct) {
  return "events: " + std::to_string(Events) +
         "  commutativity races: " + std::to_string(Races) + " (" +
         std::to_string(Distinct) + " distinct objects)\n";
}

Input perfbench::buildInput(Shape S, uint64_t Seed,
                            const AccessPointProvider &Provider,
                            uint64_t RacyEventsPerThread) {
  Input In;
  std::ostringstream WireOS;
  CommutativityRaceDetector Ref;
  Ref.setDefaultProvider(&Provider);
  {
    wire::WireWriter Writer(WireOS, wire::DefaultEventsPerChunk,
                            /*WithDigests=*/true);
    EmitFn Emit = [&](const Event &E) {
      Writer.append(E);
      Ref.process(E);
      In.SyncEvents += E.isSync();
    };
    switch (S) {
    case Shape::H2:
      emitH2(Seed, Emit);
      break;
    case Shape::Racy:
      emitRacy(Seed, RacyEventsPerThread, Emit);
      break;
    case Shape::Repeat:
      emitRepeat(Seed, Emit);
      break;
    }
    Writer.finish();
  }
  In.Wire = WireOS.str();

  DigestBuf Buf;
  std::ostream OS(&Buf);
  for (const CommutativityRace &R : Ref.races())
    OS << "race: " << R << '\n';
  OS.flush();
  In.Ref.Events = Ref.eventsProcessed();
  In.Ref.Races = Ref.races().size();
  In.Ref.RaceDigest = Buf.digest();
  In.Ref.RaceBytes = Buf.bytes();
  In.Ref.SummaryLine =
      summaryLine(In.Ref.Events, In.Ref.Races, Ref.distinctRacyObjects());
  return In;
}
