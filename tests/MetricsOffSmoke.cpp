//===- tests/MetricsOffSmoke.cpp - CRD_METRICS=0 compile/link smoke ----------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Compiles support/Metrics.h with CRD_METRICS forced to 0 — regardless of
/// how the rest of the build is configured — and checks that the no-op
/// shells behave as documented: every call site compiles unchanged, every
/// read comes back zero, and the JsonWriter (which is always live) still
/// works. This target deliberately links NO crd libraries: they carry the
/// build's configured CRD_METRICS value, and mixing the two struct layouts
/// in one binary would be an ODR violation. The CMake definition forces
/// -DCRD_METRICS=0 before the header's default kicks in.
///
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace crd::metrics;

static_assert(!Enabled, "this target must compile with CRD_METRICS=0");

TEST(MetricsOffSmoke, CountersAreInertAndReadZero) {
  Counter C;
  C.inc();
  C.add(1000);
  EXPECT_EQ(C.get(), 0u);
  C.reset();
  EXPECT_EQ(C.get(), 0u);
}

TEST(MetricsOffSmoke, ClockIsAConstant) {
  EXPECT_EQ(nowNs(), 0u);
  EXPECT_EQ(nowNs(), 0u);
}

TEST(MetricsOffSmoke, HistogramsAreInert) {
  LinearHistogram<8> L;
  L.record(3);
  L.record(100);
  EXPECT_EQ(L.count(), 0u);
  EXPECT_EQ(L.sum(), 0u);
  EXPECT_EQ(L.max(), 0u);
  EXPECT_EQ(L.bucket(3), 0u);
  for (uint64_t V : L.counts())
    EXPECT_EQ(V, 0u);

  Pow2Histogram<8> P;
  P.record(12345);
  EXPECT_EQ(P.count(), 0u);
  EXPECT_EQ(Pow2Histogram<8>::bucketOf(12345), 0u);
}

TEST(MetricsOffSmoke, JsonWriterStaysLive) {
  // Snapshots are emitted even in OFF builds (with zeroed counters), so
  // the writer must be fully functional here.
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject();
  W.field("metrics_enabled", Enabled);
  W.field("count", Counter().get());
  W.endObject();
  EXPECT_EQ(OS.str(), "{\n"
                      "  \"metrics_enabled\": false,\n"
                      "  \"count\": 0\n"
                      "}");
}
