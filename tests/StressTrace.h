//===- tests/StressTrace.h - Seeded multi-thread stress trace ---*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stress input of the `crd_bench_decode` bar and the `serve-stress`
/// soak, written by `crd_stress_trace`. Each of \p Threads logical threads
/// runs a seeded script over 8 shared dictionaries (64 keys, 70% put,
/// 30% get), every 64-event window bracketed by one of 4 locks. One thread
/// generates the whole trace: a seeded scheduler picks which logical
/// thread emits next, for a burst of 1 to 512 events, and a thread whose
/// window opens on a held lock waits. So the trace is well-formed, hands
/// locks across threads, races on 14-19% of its events at the sizes in
/// use, and is a function of its arguments alone. At 4 threads it is the
/// script of perfbench's `racy-check` input (perfbench/src/Inputs.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TESTS_STRESSTRACE_H
#define CRD_TESTS_STRESSTRACE_H

#include "trace/Trace.h"
#include "wire/WireWriter.h"

#include <sstream>
#include <string>
#include <vector>

namespace crd {
namespace testgen {

/// The seed `crd_stress_trace` generates with.
inline constexpr uint64_t StressSeed = 7;

inline uint64_t splitmix(uint64_t &S) {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Generates \p Threads x \p EventsPerThread events of the stress script.
inline Trace stressTrace(uint64_t Seed, unsigned Threads,
                         uint64_t EventsPerThread) {
  constexpr unsigned Objects = 8, Keys = 64, LockEvery = 64, Locks = 4,
                     MaxBurst = 512;
  struct Script {
    uint64_t Rng = 0;
    uint64_t Next = 0; ///< Index of the next event in this script.
    uint32_t Lock = 0; ///< Lock of the current window.
    bool LockChosen = false;
  };
  Symbol Put = symbol("put"), Get = symbol("get");
  uint64_t Sched = Seed ^ 0x5bd1e995u;
  std::vector<Script> Scripts(Threads);
  for (unsigned T = 0; T != Threads; ++T) {
    uint64_t S = Seed * 0x100000001b3ull + T;
    Scripts[T].Rng = splitmix(S);
  }
  int Holder[Locks] = {-1, -1, -1, -1};
  Trace Out;

  // A window opens every LockEvery events, unless its acquire would be
  // the script's last event and so never released.
  auto OpensWindow = [&](const Script &Sc) {
    return Sc.Next % LockEvery == 0 && Sc.Next + 1 != EventsPerThread;
  };
  auto Runnable = [&](unsigned T) {
    Script &Sc = Scripts[T];
    if (Sc.Next == EventsPerThread)
      return false;
    if (!OpensWindow(Sc))
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
    bool Opens = OpensWindow(Sc);
    uint64_t Phase = Sc.Next++ % LockEvery;
    if (Opens) {
      Holder[Sc.Lock] = static_cast<int>(T);
      Sc.LockChosen = false;
      Out.append(Event::acquire(Tid, LockId(Sc.Lock)));
      return;
    }
    if ((Phase == LockEvery - 1 || Sc.Next == EventsPerThread) &&
        Holder[Sc.Lock] == static_cast<int>(T)) {
      Holder[Sc.Lock] = -1;
      Out.append(Event::release(Tid, LockId(Sc.Lock)));
      return;
    }
    uint64_t H = splitmix(Sc.Rng);
    ObjectId Obj(static_cast<uint32_t>(H % Objects));
    Value Key = Value::integer(static_cast<int64_t>((H >> 8) % Keys));
    // Event::invoke() copies the view, and a copy owns its values.
    if ((H >> 32) % 10 < 7) {
      Value Vals[3] = {Key, Value::integer(static_cast<int64_t>(H >> 40)),
                       Value::nil()};
      Action View(Obj, Put, Vals, /*NArgs=*/2, /*NRets=*/1);
      Out.append(Event::invoke(Tid, View));
    } else {
      Value Vals[2] = {Key, Value::nil()};
      Action View(Obj, Get, Vals, /*NArgs=*/1, /*NRets=*/1);
      Out.append(Event::invoke(Tid, View));
    }
  };

  std::vector<unsigned> Ready;
  for (;;) {
    Ready.clear();
    for (unsigned T = 0; T != Threads; ++T)
      if (Runnable(T))
        Ready.push_back(T);
    if (Ready.empty())
      break;
    uint64_t R = splitmix(Sched);
    unsigned T = Ready[R % Ready.size()];
    unsigned Burst = 1 + static_cast<unsigned>((R >> 32) % MaxBurst);
    for (unsigned I = 0; I != Burst && Runnable(T); ++I)
      Step(T);
  }
  return Out;
}

/// The stress trace as binary wire bytes: default chunk size, chunk
/// digests on.
inline std::string stressWire(uint64_t Seed, unsigned Threads,
                              uint64_t EventsPerThread) {
  std::ostringstream OS;
  wire::WireWriter Writer(OS);
  Writer.writeTrace(stressTrace(Seed, Threads, EventsPerThread));
  Writer.finish();
  return OS.str();
}

} // namespace testgen
} // namespace crd

#endif // CRD_TESTS_STRESSTRACE_H
