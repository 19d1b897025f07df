//===- tests/StreamedRaces.h - Collect streamed race records ----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A StreamPipeline hands each race record to its callback and then drops
/// it, so a test reads a pipeline's races record by record through the
/// callbacks. Records are self-contained values: the copies kept here
/// compare with operator== against a standalone detector's races().
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TESTS_STREAMEDRACES_H
#define CRD_TESTS_STREAMEDRACES_H

#include "wire/StreamPipeline.h"

#include <vector>

namespace crd {
namespace testgen {

/// Every record a pipeline streamed, in callback order.
struct StreamedRaces {
  std::vector<CommutativityRace> Races;
  std::vector<MemoryRace> MemoryRaces;

  /// Installs callbacks on \p P that append each streamed record here
  /// (replacing any callbacks set before). Must outlive \p P's feeding.
  void collect(wire::StreamPipeline &P) {
    P.setRaceCallback(
        [this](const CommutativityRace &R) { Races.push_back(R); });
    P.setMemoryRaceCallback(
        [this](const MemoryRace &R) { MemoryRaces.push_back(R); });
  }
};

} // namespace testgen
} // namespace crd

#endif // CRD_TESTS_STREAMEDRACES_H
