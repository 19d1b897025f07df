//===- tests/ClockKernelTest.cpp - SIMD vs scalar clock kernels --------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the vector-clock join/leq kernels: the dispatched
/// operations (SSE2 on hosts that have it, the scalar reference in
/// a CRD_DISABLE_SIMD build) must be bit-identical to the always-compiled
/// scalar twins — same resulting components, same Changed/leq answer —
/// across every width mod the 4-lane group size, the SmallVec inline/heap
/// boundary at 8/9 components, and the EpochClock epoch-advance/escalation/
/// shared-join paths. Race bit-identity across SIMD and scalar builds rests
/// on exactly this equivalence: a race report renders the accumulated
/// representation, so a single diverging lane or Changed bit would leak
/// into the committed reports.
///
//===----------------------------------------------------------------------===//

#include "support/EpochClock.h"
#include "support/VectorClock.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>
#include <vector>

using namespace crd;

namespace {

VectorClock makeClock(const std::vector<uint32_t> &Components) {
  return VectorClock(Components);
}

std::vector<uint32_t> randomComponents(std::mt19937 &Rng, size_t N,
                                       uint32_t Max) {
  // Draw from a range that includes 0 (implicit components), small values
  // (realistic local times), and values straddling 0x80000000 (the SSE2
  // bias trick's sign boundary).
  std::uniform_int_distribution<uint32_t> Dist(0, Max);
  std::vector<uint32_t> Out(N);
  for (uint32_t &V : Out)
    V = Dist(Rng);
  return Out;
}

// Widths 0..21 cover every residue mod 4 with 0-5 full SIMD groups, and
// cross the SmallVec<uint32_t, 8> inline/heap boundary in both operands.
constexpr size_t MaxWidth = 21;

TEST(ClockKernelTest, JoinMatchesScalarAcrossWidths) {
  std::mt19937 Rng(2014);
  for (size_t NA = 0; NA <= MaxWidth; ++NA) {
    for (size_t NB = 0; NB <= MaxWidth; ++NB) {
      for (int Rep = 0; Rep != 8; ++Rep) {
        std::vector<uint32_t> A = randomComponents(Rng, NA, 6);
        std::vector<uint32_t> B = randomComponents(Rng, NB, 6);
        VectorClock Simd = makeClock(A), Scalar = makeClock(A);
        VectorClock Other = makeClock(B);
        bool ChangedSimd = Simd.joinWith(Other);
        bool ChangedScalar = Scalar.joinWithScalar(Other);
        ASSERT_EQ(ChangedSimd, ChangedScalar)
            << "widths " << NA << "x" << NB;
        ASSERT_TRUE(Simd == Scalar) << "widths " << NA << "x" << NB;
      }
    }
  }
}

TEST(ClockKernelTest, LeqMatchesScalarAcrossWidths) {
  std::mt19937 Rng(99);
  for (size_t NA = 0; NA <= MaxWidth; ++NA) {
    for (size_t NB = 0; NB <= MaxWidth; ++NB) {
      for (int Rep = 0; Rep != 8; ++Rep) {
        VectorClock A = makeClock(randomComponents(Rng, NA, 4));
        VectorClock B = makeClock(randomComponents(Rng, NB, 4));
        ASSERT_EQ(A.leq(B), A.leqScalar(B)) << "widths " << NA << "x" << NB;
        ASSERT_EQ(B.leq(A), B.leqScalar(A)) << "widths " << NA << "x" << NB;
      }
    }
  }
}

// The SSE2 fallback maps unsigned order onto signed compares by biasing
// with 0x80000000; exercise lanes on both sides of that boundary and at
// the extremes.
TEST(ClockKernelTest, UnsignedBiasBoundary) {
  std::vector<uint32_t> Extremes = {0,          1,          0x7FFFFFFFu,
                                    0x80000000u, 0x80000001u, 0xFFFFFFFFu};
  std::mt19937 Rng(7);
  std::uniform_int_distribution<size_t> Pick(0, Extremes.size() - 1);
  for (int Rep = 0; Rep != 200; ++Rep) {
    std::vector<uint32_t> A(8), B(8);
    for (size_t I = 0; I != 8; ++I) {
      A[I] = Extremes[Pick(Rng)];
      B[I] = Extremes[Pick(Rng)];
    }
    VectorClock Simd = makeClock(A), Scalar = makeClock(A);
    VectorClock Other = makeClock(B);
    ASSERT_EQ(makeClock(A).leq(Other), makeClock(A).leqScalar(Other));
    ASSERT_EQ(Simd.joinWith(Other), Scalar.joinWithScalar(Other));
    ASSERT_TRUE(Simd == Scalar);
  }
}

// joinWith must report Changed = false on a self-join (all-equal lanes) and
// true when exactly one lane grows, wherever that lane sits in the group.
TEST(ClockKernelTest, ChangedSignalPerLane) {
  for (size_t N = 1; N <= 12; ++N) {
    std::vector<uint32_t> Base(N, 5);
    VectorClock Same = makeClock(Base);
    EXPECT_FALSE(Same.joinWith(makeClock(Base))) << "width " << N;
    EXPECT_FALSE(Same.joinWithScalar(makeClock(Base))) << "width " << N;
    for (size_t Lane = 0; Lane != N; ++Lane) {
      std::vector<uint32_t> Grown = Base;
      Grown[Lane] = 6;
      VectorClock Simd = makeClock(Base), Scalar = makeClock(Base);
      EXPECT_TRUE(Simd.joinWith(makeClock(Grown)))
          << "width " << N << " lane " << Lane;
      EXPECT_TRUE(Scalar.joinWithScalar(makeClock(Grown)))
          << "width " << N << " lane " << Lane;
      EXPECT_TRUE(Simd == Scalar);
    }
  }
}

// Growing a clock across the SmallVec inline capacity (8 -> 9 components)
// through a join must behave exactly like the scalar twin: the Changed
// signal comes from the resize, and the spilled storage still compares
// equal component-for-component.
TEST(ClockKernelTest, InlineToHeapSpillDuringJoin) {
  for (size_t From : {size_t(7), size_t(8)}) {
    for (size_t To : {size_t(8), size_t(9), size_t(16), size_t(17)}) {
      if (To <= From)
        continue;
      std::vector<uint32_t> Short(From, 3);
      std::vector<uint32_t> Long(To, 2);
      Long.back() = 9; // Keep the widened clock normalized.
      VectorClock Simd = makeClock(Short), Scalar = makeClock(Short);
      ASSERT_TRUE(Simd.joinWith(makeClock(Long)));
      ASSERT_TRUE(Scalar.joinWithScalar(makeClock(Long)));
      ASSERT_TRUE(Simd == Scalar) << From << " -> " << To;
      ASSERT_EQ(Simd.size(), To);
    }
  }
}

// EpochClock: the dispatched accumulate/leq and their scalar twins must
// agree on the Changed signal and the representation through all three
// paths — epoch advance, escalation on a concurrent accumulate, and
// shared-clock joins from then on.
TEST(ClockKernelTest, EpochAccumulateMatchesScalar) {
  auto threadClock = [](unsigned Tid, uint32_t Time, size_t Width) {
    std::vector<uint32_t> C(std::max<size_t>(Width, Tid + 1), 0);
    C[Tid] = Time;
    return makeClock(C);
  };

  for (size_t Width : {size_t(2), size_t(4), size_t(9)}) {
    EpochClock Simd, Scalar;
    auto step = [&](const VectorClock &C, unsigned Tid) {
      bool A = Simd.accumulate(C, ThreadId(Tid));
      bool B = Scalar.accumulateScalar(C, ThreadId(Tid));
      ASSERT_EQ(A, B);
      ASSERT_EQ(Simd.isShared(), Scalar.isShared());
      ASSERT_TRUE(Simd.toClock() == Scalar.toClock());
    };

    // Epoch advances: same thread, growing time (second identical
    // accumulate must report Changed = false on both).
    step(threadClock(0, 1, Width), 0);
    step(threadClock(0, 1, Width), 0);
    step(threadClock(0, 3, Width), 0);
    ASSERT_TRUE(Simd.isEpoch());

    // HB-ordered cross-thread handoff keeps the epoch compressed.
    {
      std::vector<uint32_t> C(std::max<size_t>(Width, 2), 0);
      C[0] = 3;
      C[1] = 5;
      step(makeClock(C), 1);
      ASSERT_TRUE(Simd.isEpoch());
    }

    // A concurrent accumulate (thread 0 hasn't seen thread 1's epoch)
    // escalates both to the shared representation.
    step(threadClock(0, 4, Width), 0);
    ASSERT_TRUE(Simd.isShared());

    // Shared joins route through the vector kernels; keep probing leq
    // equivalence as the shared clock widens past the inline capacity.
    for (unsigned Tid = 2; Tid < 11; ++Tid) {
      step(threadClock(Tid, Tid + 1, Width), Tid);
      VectorClock Probe = threadClock(Tid % 3, 2, Width);
      ASSERT_EQ(Simd.leq(Probe), Scalar.leqScalar(Probe));
    }
  }
}

// Probe equivalence at the epoch boundary itself: leq on a compressed
// epoch is an O(1) component compare on both variants.
TEST(ClockKernelTest, EpochLeqMatchesScalarWhileCompressed) {
  EpochClock E;
  VectorClock C2 = makeClock({0, 2});
  ASSERT_TRUE(E.accumulate(C2, ThreadId(1)));
  ASSERT_TRUE(E.isEpoch());
  for (uint32_t T : {1u, 2u, 3u}) {
    VectorClock Probe = makeClock({5, T});
    EXPECT_EQ(E.leq(Probe), E.leqScalar(Probe)) << "probe time " << T;
    EXPECT_EQ(E.leq(Probe), 2 <= T);
  }
}

} // namespace
