//===- tests/KindScanTest.cpp - SIMD vs scalar kind-scan ---------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test for the sync-event kind scan: the dispatched
/// appendKindPositions (SSE2 on hosts that have it) must produce
/// byte-identical output to the always-compiled scalar reference, across
/// randomized kind arrays, every tail length mod 16, threshold extremes,
/// and non-zero base offsets. The batched detection kernel trusts these
/// positions blindly — a single missed or spurious sync position would
/// desynchronize the clock machine from the trace.
///
//===----------------------------------------------------------------------===//

#include "support/KindScan.h"
#include "trace/EventBatch.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>
#include <vector>

using namespace crd;

namespace {

std::vector<uint32_t> scalarScan(const std::vector<uint8_t> &Kinds,
                                 uint8_t Below, uint32_t Base) {
  std::vector<uint32_t> Out;
  appendKindPositionsScalar(Kinds.data(), Kinds.size(), Below, Base, Out);
  return Out;
}

std::vector<uint32_t> dispatchedScan(const std::vector<uint8_t> &Kinds,
                                     uint8_t Below, uint32_t Base) {
  std::vector<uint32_t> Out;
  appendKindPositions(Kinds.data(), Kinds.size(), Below, Base, Out);
  return Out;
}

TEST(KindScanTest, EmptyInput) {
  std::vector<uint8_t> Kinds;
  EXPECT_TRUE(dispatchedScan(Kinds, SyncKindBound, 0).empty());
  EXPECT_TRUE(scalarScan(Kinds, SyncKindBound, 0).empty());
}

// Every length mod 16 matters: 15 (pure scalar tail), 16 (one full SIMD
// group, empty tail), 17 (group + 1), and so on. Sweep 0..64 so each
// residue appears with 0-4 full groups in front of it.
TEST(KindScanTest, EveryTailLengthMatchesScalar) {
  std::mt19937 Rng(2014);
  std::uniform_int_distribution<int> KindDist(0, 8); // All wire kinds.
  for (size_t Len = 0; Len <= 64; ++Len) {
    std::vector<uint8_t> Kinds(Len);
    for (uint8_t &K : Kinds)
      K = static_cast<uint8_t>(KindDist(Rng));
    EXPECT_EQ(dispatchedScan(Kinds, SyncKindBound, 0),
              scalarScan(Kinds, SyncKindBound, 0))
        << "length " << Len;
  }
}

TEST(KindScanTest, RandomizedLargeArraysMatchScalar) {
  std::mt19937 Rng(7);
  std::uniform_int_distribution<int> KindDist(0, 8);
  std::uniform_int_distribution<size_t> LenDist(1, 5000);
  std::uniform_int_distribution<uint32_t> BaseDist(0, 1u << 30);
  for (int Trial = 0; Trial != 50; ++Trial) {
    std::vector<uint8_t> Kinds(LenDist(Rng));
    for (uint8_t &K : Kinds)
      K = static_cast<uint8_t>(KindDist(Rng));
    uint32_t Base = BaseDist(Rng);
    auto Got = dispatchedScan(Kinds, SyncKindBound, Base);
    auto Want = scalarScan(Kinds, SyncKindBound, Base);
    ASSERT_EQ(Got, Want) << "trial " << Trial << " length " << Kinds.size();
    // Cross-check the reference itself against first principles.
    size_t Expected = 0;
    for (size_t I = 0; I != Kinds.size(); ++I)
      if (Kinds[I] < SyncKindBound) {
        ASSERT_LT(Expected, Want.size());
        EXPECT_EQ(Want[Expected], Base + static_cast<uint32_t>(I));
        ++Expected;
      }
    EXPECT_EQ(Want.size(), Expected);
  }
}

// Threshold extremes: Below=0 selects nothing, a threshold above every
// kind byte selects everything (in order, with the base applied).
TEST(KindScanTest, ThresholdExtremes) {
  std::mt19937 Rng(99);
  std::uniform_int_distribution<int> KindDist(0, 8);
  std::vector<uint8_t> Kinds(333);
  for (uint8_t &K : Kinds)
    K = static_cast<uint8_t>(KindDist(Rng));

  EXPECT_TRUE(dispatchedScan(Kinds, 0, 0).empty());

  auto All = dispatchedScan(Kinds, 9, 1000);
  ASSERT_EQ(All.size(), Kinds.size());
  for (size_t I = 0; I != All.size(); ++I)
    EXPECT_EQ(All[I], 1000 + static_cast<uint32_t>(I));
}

// All-sync and no-sync inputs — the degenerate traces the pipeline also
// exercises end-to-end (StreamPipelineTest).
TEST(KindScanTest, UniformInputs) {
  for (size_t Len : {size_t(1), size_t(15), size_t(16), size_t(17),
                     size_t(256)}) {
    std::vector<uint8_t> Sync(Len, 2);   // Acquire: below the bound.
    std::vector<uint8_t> Invoke(Len, 4); // Invoke: at the bound.
    EXPECT_EQ(dispatchedScan(Sync, SyncKindBound, 0).size(), Len);
    EXPECT_TRUE(dispatchedScan(Invoke, SyncKindBound, 0).empty());
    EXPECT_EQ(dispatchedScan(Sync, SyncKindBound, 0),
              scalarScan(Sync, SyncKindBound, 0));
  }
}

// The scan appends — existing output must survive, and the base lets a
// caller build one global index from per-chunk scans.
TEST(KindScanTest, AppendsAfterExistingPositions) {
  std::vector<uint8_t> ChunkA = {0, 4, 4, 1}; // Syncs at 0, 3.
  std::vector<uint8_t> ChunkB = {4, 3, 4};    // Sync at 1.
  std::vector<uint32_t> Out;
  appendKindPositions(ChunkA.data(), ChunkA.size(), SyncKindBound, 0, Out);
  appendKindPositions(ChunkB.data(), ChunkB.size(), SyncKindBound,
                      static_cast<uint32_t>(ChunkA.size()), Out);
  EXPECT_EQ(Out, (std::vector<uint32_t>{0, 3, 5}));
}

} // namespace
