//===- tests/DecodeBarTest.cpp - binary decode vs text parse bar -----------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// The wire format's acceptance bar: a nextBatch() pull of the seeded
/// 4 x 25,000-event stress trace (StressTrace.h) takes at most half the
/// time parseTrace() takes on the same events as text. Both encodings are
/// built in memory, and each side is the best of five runs. CMake
/// registers this test for optimized, unsanitized builds only.
///
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"
#include "wire/EventSource.h"
#include "StressTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

using namespace crd;
using namespace crd::wire;

template <typename F> static double bestOfFiveSeconds(F &&Fn) {
  double Best = 1e100;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    std::chrono::duration<double> S = std::chrono::steady_clock::now() - T0;
    Best = std::min(Best, S.count());
  }
  return Best;
}

TEST(DecodeBarTest, BinaryDecodeAtLeastTwiceTextParse) {
  std::string Wire = testgen::stressWire(testgen::StressSeed, 4, 25000);
  std::string Text = traceToString(
      testgen::stressTrace(testgen::StressSeed, 4, 25000));

  double TextSec = bestOfFiveSeconds([&] {
    DiagnosticEngine Diags;
    std::optional<Trace> T = parseTrace(Text, Diags);
    ASSERT_TRUE(T) << Diags.toString();
    EXPECT_EQ(T->size(), 100000u);
  });
  double DecodeSec = bestOfFiveSeconds([&] {
    std::istringstream In(Wire);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    EventBatch B;
    size_t Events = 0;
    for (size_t N; (N = Reader.nextBatch(B, PullBatchEvents)); B.clear())
      Events += N;
    EXPECT_FALSE(Reader.failed()) << Diags.toString();
    EXPECT_EQ(Events, 100000u);
  });

  double Speedup = TextSec / DecodeSec;
  std::printf("binary decode speedup over text parse: %.2fx (text %.1f ms, "
              "decode %.1f ms)\n",
              Speedup, TextSec * 1e3, DecodeSec * 1e3);
  EXPECT_GE(Speedup, 2.0);
}
