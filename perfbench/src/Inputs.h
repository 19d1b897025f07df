//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's input generators and the reference each run is checked
/// against. Every input is a function of its seed alone; the program under
/// test only ever sees the encoded wire bytes (digests on).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "access/Provider.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// The trace shapes the workloads draw from.
enum class Shape {
  /// The paper's H2 MVStore ComplexConcurrency circuit, 16 workers.
  H2,
  /// `crd record --stress`-shaped: 4 threads, 8 shared dictionaries,
  /// 64 keys, 70% put, 64-event lock windows over 4 locks, interleaved by
  /// a seeded scheduler.
  Racy,
  /// Chunk-repetitive racy trace (RepetitiveTrace shape), body order
  /// permuted by the seed.
  Repeat,
};

/// What `crd check` prints for the input, computed once per seed by the
/// per-event detector path on the generated events — no wire decode, no
/// batched kernel.
struct Reference {
  uint64_t Events = 0;
  uint64_t Races = 0;
  uint64_t RaceDigest = 0; ///< DigestBuf over every `race: <R>\n` line.
  uint64_t RaceBytes = 0;
  std::string SummaryLine; ///< The `events: ...` line, newline included.
};

struct Input {
  std::string Wire;
  uint64_t SyncEvents = 0;
  Reference Ref;
};

/// Events per thread of a Racy input.
inline constexpr uint64_t RacyCheckEventsPerThread = 100000;
inline constexpr uint64_t RacyServeEventsPerThread = 16000;

/// serve-racy draws its sessions from a pool of this many Racy inputs; the
/// I-th is generated from serveSessionSeed(RunSeed, I).
inline constexpr unsigned ServePoolSize = 16;
inline uint64_t serveSessionSeed(uint64_t RunSeed, unsigned I) {
  return RunSeed * ServePoolSize + I;
}

/// Generates the \p S input for \p Seed, encodes it and computes its
/// reference under \p Provider. \p RacyEventsPerThread sizes Racy inputs.
Input buildInput(Shape S, uint64_t Seed, const crd::AccessPointProvider &Provider,
                 uint64_t RacyEventsPerThread = RacyCheckEventsPerThread);

/// The summary line `crd check` prints for a sequential-backend run.
std::string summaryLine(uint64_t Events, uint64_t Races, uint64_t Distinct);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
