//===- tests/ArenaTest.cpp - Decoded batch lifetime ---------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// The batch lifetime rule, end to end: a StreamPipeline run over a
/// many-chunk binary trace must report what the materialized path
/// reports. This is the asan witness for the rule — if any decoded Value
/// were read from wire chunk storage the reader had moved past, the
/// sanitizer build of this test would flag it, and the race reports would
/// diverge from the materialized path.
///
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "trace/Event.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"
#include "StreamedRaces.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

using namespace crd;
using namespace crd::wire;

namespace {

const DictionaryRep &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

/// Streams a binary encoding of \p T chunked at \p EventsPerChunk through
/// the sequential backend and returns the race reports.
std::vector<CommutativityRace> racesViaPipeline(const Trace &T,
                                                size_t EventsPerChunk) {
  std::ostringstream OS;
  WireWriter Writer(OS, EventsPerChunk);
  Writer.writeTrace(T);
  Writer.finish();
  std::string Bytes = OS.str();

  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  StreamPipeline Pipeline;
  Pipeline.setDefaultProvider(&dictRep());
  testgen::StreamedRaces Got;
  Got.collect(Pipeline);
  Pipeline.run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  return Got.Races;
}

TEST(ArenaTest, StreamPipelineSurvivesChunkResets) {
  // Tiny wire chunks (8 events) turn the reader's chunk storage over
  // dozens of times per pulled batch, so every decoded payload must live
  // in the batch's own arena. A value read from a chunk the reader has
  // moved past is a use-after-free asan would catch here, and stale bytes
  // would change the race reports against the materialized baseline.
  Trace T = testgen::randomTrace(/*Seed=*/20140607, /*Workers=*/4,
                                 /*OpsPerWorker=*/120, /*Keys=*/6);

  CommutativityRaceDetector Baseline;
  Baseline.setDefaultProvider(&dictRep());
  Baseline.processTrace(T);
  ASSERT_FALSE(Baseline.races().empty())
      << "trace too tame to witness lifetime bugs";

  std::vector<CommutativityRace> Streamed = racesViaPipeline(T, 8);
  ASSERT_EQ(Streamed.size(), Baseline.races().size());
  for (size_t I = 0; I != Streamed.size(); ++I)
    EXPECT_TRUE(Streamed[I] == Baseline.races()[I])
        << "race " << I << " diverged:\n  " << Streamed[I].toString()
        << "\n  " << Baseline.races()[I].toString();
}

} // namespace
