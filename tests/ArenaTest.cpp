//===- tests/ArenaTest.cpp - Arena allocator and decode lifetime --------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Properties of the bump allocator behind a decoded batch's value
/// storage: alignment, chunk growth, reset-reuse (a steady-state workload
/// must stop acquiring chunks after warmup), and an end-to-end
/// StreamPipeline run over a many-chunk binary trace. The end-to-end test
/// is the asan witness for the batch lifetime rule — if any decoded Value
/// were read from wire chunk storage the reader had moved past, the
/// sanitizer build of this test would flag it, and the race reports would
/// diverge from the materialized path.
///
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "support/Arena.h"
#include "trace/Event.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"
#include "StreamedRaces.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

using namespace crd;
using namespace crd::wire;

namespace {

TEST(ArenaTest, AlignmentPerType) {
  Arena A(256);
  // Interleave types of different alignment; every pointer must satisfy
  // its own type's requirement.
  for (int I = 0; I != 100; ++I) {
    uint8_t *P8 = A.allocate<uint8_t>(1);
    EXPECT_NE(P8, nullptr);
    uint64_t *P64 = A.allocate<uint64_t>(1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P64) % alignof(uint64_t), 0u);
    Value *PV = A.allocate<Value>(3);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(PV) % alignof(Value), 0u);
    uint32_t *P32 = A.allocate<uint32_t>(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P32) % alignof(uint32_t), 0u);
  }
}

TEST(ArenaTest, AllocationsDoNotOverlapAndHoldValues) {
  Arena A(128); // Small chunks force frequent chunk transitions.
  std::vector<std::pair<uint64_t *, uint64_t>> Blocks;
  for (uint64_t I = 0; I != 500; ++I) {
    size_t Count = 1 + I % 7;
    uint64_t *P = A.allocate<uint64_t>(Count);
    for (size_t J = 0; J != Count; ++J)
      P[J] = I * 1000 + J;
    Blocks.push_back({P, I});
  }
  // Everything written is still intact: no allocation clobbered another.
  for (auto [P, I] : Blocks) {
    size_t Count = 1 + I % 7;
    for (size_t J = 0; J != Count; ++J)
      EXPECT_EQ(P[J], I * 1000 + J) << "block " << I;
  }
}

TEST(ArenaTest, ChunkGrowthAndOversizedAllocations) {
  Arena A(64);
  EXPECT_EQ(A.chunkCount(), 0u);
  A.allocate<uint8_t>(1);
  EXPECT_EQ(A.chunkCount(), 1u);
  // Fill past the first chunk.
  A.allocate<uint8_t>(60);
  A.allocate<uint8_t>(60);
  EXPECT_GE(A.chunkCount(), 2u);
  // An allocation larger than the chunk size gets a dedicated chunk and
  // must still be usable end-to-end.
  uint8_t *Big = A.allocate<uint8_t>(1000);
  std::memset(Big, 0xab, 1000);
  EXPECT_EQ(Big[999], 0xab);
  EXPECT_GE(A.bytesUsed(), 1000u);
}

TEST(ArenaTest, ResetReusesChunksWithoutGrowth) {
  Arena A(256);
  // Warm up with a representative round.
  auto round = [&A] {
    for (int I = 0; I != 50; ++I) {
      Value *P = A.allocate<Value>(1 + I % 4);
      P[0] = Value::integer(I);
    }
  };
  round();
  size_t WarmChunks = A.chunkCount();
  EXPECT_GE(WarmChunks, 1u);
  // Steady state: identical rounds after reset must never acquire chunks —
  // this is the zero-allocation property the decode loop relies on.
  for (int Round = 0; Round != 100; ++Round) {
    A.reset();
    EXPECT_EQ(A.bytesUsed(), 0u);
    round();
    ASSERT_EQ(A.chunkCount(), WarmChunks) << "round " << Round;
  }
}

TEST(ArenaTest, ResetRecyclesStorage) {
  Arena A(1024);
  uint64_t *First = A.allocate<uint64_t>(8);
  std::uintptr_t FirstAddr = reinterpret_cast<std::uintptr_t>(First);
  A.reset();
  uint64_t *Second = A.allocate<uint64_t>(8);
  // Same size class from a fresh reset lands on the same storage.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Second), FirstAddr);
}

//===----------------------------------------------------------------------===//
// End-to-end lifetime: decoded values vs chunk turnover
//===----------------------------------------------------------------------===//

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
