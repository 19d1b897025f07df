//===- tests/MetricsTest.cpp - Observability layer unit tests ----------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for support/Metrics.h (JSON emission) plus end-to-end
/// snapshot properties of the pipeline instrumentation: JsonWriter
/// escaping, and determinism of the JSON snapshot across identical runs
/// (modulo `_ns` timing fields).
///
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"
#include "access/DictionaryRep.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <regex>
#include <sstream>

using namespace crd;
using namespace crd::metrics;

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(MetricsJsonTest, NestedObjectsAndArrays) {
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject();
  W.field("a", uint64_t(1));
  W.key("nested");
  W.beginObject();
  W.field("b", true);
  W.endObject();
  W.key("c");
  W.beginArray();
  for (uint64_t V : {1, 2, 3})
    W.value(V);
  W.endArray();
  W.endObject();
  EXPECT_EQ(OS.str(), "{\n"
                      "  \"a\": 1,\n"
                      "  \"nested\": {\n"
                      "    \"b\": true\n"
                      "  },\n"
                      "  \"c\": [\n"
                      "    1,\n"
                      "    2,\n"
                      "    3\n"
                      "  ]\n"
                      "}");
}

TEST(MetricsJsonTest, EmptyContainersStayOnOneLine) {
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject();
  W.key("empty_obj");
  W.beginObject();
  W.endObject();
  W.key("empty_arr");
  W.beginArray();
  W.endArray();
  W.endObject();
  EXPECT_EQ(OS.str(), "{\n"
                      "  \"empty_obj\": {},\n"
                      "  \"empty_arr\": []\n"
                      "}");
}

TEST(MetricsJsonTest, StringEscaping) {
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject();
  // Split the literal: "\x01f" would parse as the single char 0x1f.
  W.field("k", std::string_view("a\"b\\c\nd\te\x01"
                                "f"));
  W.endObject();
  EXPECT_EQ(OS.str(), "{\n  \"k\": \"a\\\"b\\\\c\\nd\\te\\u0001f\"\n}");
}

//===----------------------------------------------------------------------===//
// Pipeline snapshot
//===----------------------------------------------------------------------===//

namespace {

const DictionaryRep &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

/// Runs \p T through a pipeline with \p Opts and returns the JSON snapshot.
std::string snapshotOf(const Trace &T, wire::PipelineOptions Opts) {
  std::ostringstream Encoded;
  wire::WireWriter Writer(Encoded, /*EventsPerChunk=*/32);
  Writer.writeTrace(T);
  Writer.finish();
  std::istringstream In(Encoded.str());
  DiagnosticEngine Diags;
  wire::BinaryStreamSource Source(In, Diags);
  wire::StreamPipeline P(Opts);
  P.setDefaultProvider(&dictRep());
  P.run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  std::ostringstream OS;
  P.writeMetricsJson(OS, &Source);
  return OS.str();
}

/// Zeroes every `"*_ns": <digits>` field: wall-clock times vary between
/// identical runs, but everything else must not.
std::string stripTimes(const std::string &Json) {
  static const std::regex TimeField("(\"[a-z_]*_ns\": )[0-9]+");
  return std::regex_replace(Json, TimeField, "$10");
}

} // namespace

TEST(MetricsSnapshotTest, DeterministicAcrossIdenticalRuns) {
  Trace T = testgen::randomTrace(7, 4, 60, 6);
  for (wire::Backend B : {wire::Backend::Sequential, wire::Backend::FastTrack,
                          wire::Backend::Atomicity}) {
    wire::PipelineOptions Opts;
    Opts.TheBackend = B;
    std::string First = stripTimes(snapshotOf(T, Opts));
    std::string Second = stripTimes(snapshotOf(T, Opts));
    EXPECT_EQ(First, Second) << "backend " << static_cast<int>(B);
  }
}

TEST(MetricsSnapshotTest, SnapshotIsWellFormedAndCarriesSchema) {
  Trace T = testgen::randomTrace(3, 3, 40, 5);
  std::string Json = snapshotOf(T, {});
  // Structural keys every snapshot must carry (schema in
  // docs/observability.md); full JSON parsing is the docs checker's job.
  for (const char *Key :
       {"\"backend\"", "\"events\"", "\"events_by_kind\"", "\"summary\"",
        "\"source\"", "\"detector\"", "\"conflict_checks\"",
        "\"kernel_ns\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << "missing " << Key;
}

TEST(MetricsSnapshotTest, StructuralCountsAreLive) {
  // Total events and the phase-1 conflict checks.
  Trace T = testgen::randomTrace(11, 3, 30, 4);
  std::string Json = snapshotOf(T, {});
  std::ostringstream Expect;
  Expect << "\"events\": " << T.size();
  EXPECT_NE(Json.find(Expect.str()), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"conflict_checks\": 0,"), std::string::npos) << Json;
}
