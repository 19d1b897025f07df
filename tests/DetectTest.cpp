//===- tests/DetectTest.cpp - Algorithm 1 detector tests ----------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "detect/DirectDetector.h"
#include "support/EpochClock.h"
#include "spec/Builtins.h"
#include "trace/TraceBuilder.h"
#include "translate/Translator.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

using namespace crd;

namespace {

const AccessPointProvider &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

const TranslatedRep &translatedDictRep() {
  static std::unique_ptr<TranslatedRep> Rep = [] {
    DiagnosticEngine Diags;
    auto R = translateSpec(dictionarySpec(), Diags);
    EXPECT_TRUE(R) << Diags.toString();
    return R;
  }();
  return *Rep;
}

/// Fig 3 trace: both forked threads put to the same key, main joins, size.
Trace fig3Trace(bool WithJoin) {
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2);
  TB.invoke(2, 1, "put", {Value::string("a.com"), Value::integer(10)},
            Value::nil());
  TB.invoke(1, 1, "put", {Value::string("a.com"), Value::integer(20)},
            Value::integer(10));
  if (WithJoin)
    TB.join(0, 1).join(0, 2);
  TB.invoke(0, 1, "size", {}, Value::integer(1));
  return TB.take();
}

} // namespace

TEST(CommutativityDetectorTest, Fig3RaceDetected) {
  for (const AccessPointProvider *Provider : {&dictRep(),
       static_cast<const AccessPointProvider *>(&translatedDictRep())}) {
    CommutativityRaceDetector Detector;
    Detector.setDefaultProvider(Provider);
    Detector.processTrace(fig3Trace(/*WithJoin=*/true));
    // Exactly one race: the two concurrent puts to "a.com". size() after
    // joinall is ordered after both and races with neither.
    ASSERT_EQ(Detector.races().size(), 1u);
    EXPECT_EQ(Detector.distinctRacyObjects(), 1u);
    const CommutativityRace &R = Detector.races().front();
    EXPECT_EQ(R.Current.method(), symbol("put"));
    EXPECT_TRUE(R.PriorClock.toClock().concurrentWith(R.CurrentClock.toClock()));
  }
}

TEST(CommutativityDetectorTest, WithoutJoinSizeRacesWithResize) {
  // The paper's observation: without joinall, a1 (fresh put, touches
  // o:resize) races with a3 (size), but a2 (overwrite) does NOT race with
  // a3 because it does not resize.
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Detector.processTrace(fig3Trace(/*WithJoin=*/false));
  // Races: put/put on the key, and size against the fresh put's resize.
  ASSERT_EQ(Detector.races().size(), 2u);
  EXPECT_EQ(Detector.races()[1].Current.method(), symbol("size"));
  EXPECT_EQ(Detector.races()[1].PointName.str(), "o:resize");
}

TEST(CommutativityDetectorTest, OverwriteDoesNotRaceWithSize) {
  // Only the overwriting put runs concurrently with size(): no race.
  Trace T = TraceBuilder()
                .invoke(0, 1, "put", {Value::string("k"), Value::integer(1)},
                        Value::nil())
                .fork(0, 1)
                .invoke(1, 1, "put", {Value::string("k"), Value::integer(2)},
                        Value::integer(1))
                .invoke(0, 1, "size", {}, Value::integer(1))
                .take();
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Detector.processTrace(T);
  EXPECT_TRUE(Detector.races().empty());
}

TEST(CommutativityDetectorTest, DifferentKeysNoRace) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .invoke(0, 1, "put", {Value::string("a"), Value::integer(1)},
                        Value::nil())
                .invoke(1, 1, "put", {Value::string("b"), Value::integer(2)},
                        Value::nil())
                .take();
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Detector.processTrace(T);
  // Both puts resize, but resize does not conflict with itself.
  EXPECT_TRUE(Detector.races().empty());
}

TEST(CommutativityDetectorTest, LockOrderingSuppressesRace) {
  Value K = Value::string("k");
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acquire(0, 0)
                .invoke(0, 1, "put", {K, Value::integer(1)}, Value::nil())
                .release(0, 0)
                .acquire(1, 0)
                .invoke(1, 1, "put", {K, Value::integer(2)},
                        Value::integer(1))
                .release(1, 0)
                .take();
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Detector.processTrace(T);
  EXPECT_TRUE(Detector.races().empty());
}

TEST(CommutativityDetectorTest, DistinctObjectsTrackedSeparately) {
  Value K = Value::string("k");
  Trace T = TraceBuilder()
                .fork(0, 1)
                // Concurrent puts to the same key of DIFFERENT objects.
                .invoke(0, 1, "put", {K, Value::integer(1)}, Value::nil())
                .invoke(1, 2, "put", {K, Value::integer(2)}, Value::nil())
                // And a real race on object 3.
                .invoke(0, 3, "put", {K, Value::integer(1)}, Value::nil())
                .invoke(1, 3, "put", {K, Value::integer(2)}, Value::nil())
                .take();
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Detector.processTrace(T);
  ASSERT_EQ(Detector.races().size(), 1u);
  EXPECT_EQ(Detector.races()[0].Current.object(), ObjectId(3));
  EXPECT_EQ(Detector.distinctRacyObjects(), 1u);
}

TEST(CommutativityDetectorTest, PerObjectProviderBinding) {
  // Object 1 is a dictionary; object 2 is a counter.
  DiagnosticEngine Diags;
  auto CounterRep = translateSpec(counterSpec(), Diags);
  ASSERT_TRUE(CounterRep);

  CommutativityRaceDetector Detector;
  Detector.bind(ObjectId(1), &dictRep());
  Detector.bind(ObjectId(2), CounterRep.get());

  Trace T = TraceBuilder()
                .fork(0, 1)
                .invoke(0, 2, "inc", {}, std::vector<Value>{})
                .invoke(1, 2, "inc", {}, std::vector<Value>{})
                .invoke(0, 2, "read", {}, Value::integer(2))
                .take();
  Detector.processTrace(T);
  // inc/inc commute; T0's read is ordered after T0's inc but concurrent
  // with T1's inc -> exactly one race.
  ASSERT_EQ(Detector.races().size(), 1u);
  EXPECT_EQ(Detector.races()[0].Current.method(), symbol("read"));
}

TEST(CommutativityDetectorTest, VectorClockAccumulationAcrossManyThreads) {
  // Three threads put to the same key concurrently: each later put races
  // with every earlier one (clock join keeps all prior puts visible).
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2).fork(0, 3);
  for (uint32_t T : {1u, 2u, 3u})
    TB.invoke(T, 1, "put", {Value::string("k"), Value::integer(T)},
              Value::integer(0));
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Detector.processTrace(TB.take());
  // Put #2 races with #1; put #3 races with the accumulated clock of both
  // (one report per touched conflicting point, and both prior puts touch
  // the same point o:w:k, so the joined clock yields a single report).
  EXPECT_EQ(Detector.races().size(), 2u);
}

TEST(CommutativityDetectorTest, ObjectReclamationDropsState) {
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  Trace T1 = TraceBuilder()
                 .fork(0, 1)
                 .invoke(0, 1, "put", {Value::string("k"), Value::integer(1)},
                         Value::nil())
                 .take();
  Detector.processTrace(T1);
  EXPECT_GT(Detector.activePointCount(), 0u);
  Detector.objectDied(ObjectId(1));
  EXPECT_EQ(Detector.activePointCount(), 0u);
  // A concurrent put on the dead object's id afterwards reports nothing.
  Detector.process(Event::invoke(
      ThreadId(1), Action(ObjectId(1), symbol("put"),
                          {Value::string("k"), Value::integer(2)},
                          Value::integer(1))));
  EXPECT_TRUE(Detector.races().empty());
}

TEST(CommutativityDetectorTest, ConflictChecksAreConstantPerAction) {
  // §5.4: with the dictionary representation, each action performs at most
  // |Co(pt)| = 2 probes per touched point, regardless of history length.
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(&dictRep());
  TraceBuilder TB;
  TB.fork(0, 1);
  const unsigned N = 200;
  for (unsigned I = 0; I != N; ++I)
    TB.invoke(I % 2, 1, "put",
              {Value::string("k" + std::to_string(I)), Value::integer(1)},
              Value::nil());
  Detector.processTrace(TB.take());
  // Each fresh put touches w:k (2 partners) and resize (1 partner).
  EXPECT_LE(Detector.conflictChecks(), size_t(3) * N);
}

TEST(DirectDetectorTest, ChecksGrowQuadratically) {
  DirectCommutativityDetector Detector;
  Detector.setDefaultSpec(&dictionarySpec());
  TraceBuilder TB;
  TB.fork(0, 1);
  const unsigned N = 100;
  for (unsigned I = 0; I != N; ++I)
    TB.invoke(I % 2, 1, "put",
              {Value::string("k" + std::to_string(I)), Value::integer(1)},
              Value::nil());
  Detector.processTrace(TB.take());
  EXPECT_EQ(Detector.conflictChecks(), size_t(N) * (N - 1) / 2);
}

TEST(DirectDetectorTest, AgreesOnFig3) {
  DirectCommutativityDetector Detector;
  Detector.setDefaultSpec(&dictionarySpec());
  Detector.processTrace(fig3Trace(/*WithJoin=*/true));
  ASSERT_EQ(Detector.races().size(), 1u);
  Detector = DirectCommutativityDetector();
  Detector.setDefaultSpec(&dictionarySpec());
  Detector.processTrace(fig3Trace(/*WithJoin=*/false));
  EXPECT_EQ(Detector.races().size(), 2u);
}

namespace {

/// A put race on object 1 by thread 2 at event 3 against "o:w:k"; the
/// printing cases below vary one part at a time.
CommutativityRace sampleRace() {
  CommutativityRace R;
  R.EventIndex = 3;
  R.Thread = ThreadId(2);
  R.Current = Action(ObjectId(1), symbol("put"),
                     {Value::string("a.com"), Value::integer(7)}, Value::nil());
  R.PointName = symbol("o:w:k");
  R.PriorClock = RaceClock(VectorClock({3, 0, 1}));
  R.CurrentClock = RaceClock(VectorClock({2, 1}));
  return R;
}

/// \p R's report line through both entry points of the one formatter:
/// toString() and operator<<, which must agree byte for byte and stay
/// within the bound the formatter sizes its buffer by.
std::string printed(const CommutativityRace &R) {
  std::ostringstream OS;
  OS << R;
  EXPECT_EQ(OS.str(), R.toString());
  EXPECT_LE(R.toString().size(), R.textBound());
  return R.toString();
}

/// The epoch-compressed accumulated clock Time@Thread, as phase 2 builds
/// it from one event of Thread.
EpochClock epochAt(uint32_t Thread, uint32_t Time) {
  VectorClock C;
  C.set(ThreadId(Thread), Time);
  EpochClock E;
  E.accumulate(C, ThreadId(Thread));
  return E;
}

} // namespace

TEST(RaceReportTest, Printing) {
  EXPECT_EQ(printed(sampleRace()),
            "commutativity race at event 3: T2 performs "
            "o1.put(\"a.com\", 7)/nil conflicting on o:w:k "
            "(prior <3,0,1> || current <2,1>)");
}

TEST(RaceReportTest, PrintsEveryValueKind) {
  CommutativityRace R = sampleRace();
  R.Current = Action(
      ObjectId(12), symbol("m"),
      {Value::nil(), Value::boolean(true), Value::boolean(false),
       Value::integer(-42),
       Value::integer(std::numeric_limits<int64_t>::min())},
      Value::integer(0));
  EXPECT_EQ(printed(R),
            "commutativity race at event 3: T2 performs "
            "o12.m(nil, true, false, -42, -9223372036854775808)/0 "
            "conflicting on o:w:k (prior <3,0,1> || current <2,1>)");

  // Strings escape exactly what the trace lexer unescapes.
  R.Current = Action(ObjectId(1), symbol("put"),
                     {Value::string("a\nb\tc"), Value::string("q\"d\\e")},
                     Value::string(""));
  EXPECT_EQ(printed(R),
            "commutativity race at event 3: T2 performs "
            "o1.put(\"a\\nb\\tc\", \"q\\\"d\\\\e\")/\"\" "
            "conflicting on o:w:k (prior <3,0,1> || current <2,1>)");
  EXPECT_EQ(Value::string("q\"d\\e").toString(), "\"q\\\"d\\\\e\"");
}

TEST(RaceReportTest, PrintsActionShapes) {
  CommutativityRace R = sampleRace();
  R.Current = Action(ObjectId(4), symbol("size"), std::vector<Value>{},
                     std::vector<Value>{});
  EXPECT_EQ(printed(R), "commutativity race at event 3: T2 performs "
                        "o4.size() conflicting on o:w:k "
                        "(prior <3,0,1> || current <2,1>)");

  R.Current = Action(ObjectId(4), symbol("swap"), {Value::integer(1)},
                     std::vector<Value>{Value::integer(2), Value::nil(),
                                        Value::string("x")});
  EXPECT_EQ(printed(R), "commutativity race at event 3: T2 performs "
                        "o4.swap(1)/2/nil/\"x\" conflicting on o:w:k "
                        "(prior <3,0,1> || current <2,1>)");
}

TEST(RaceReportTest, PrintsClockShapes) {
  CommutativityRace R = sampleRace();
  R.EventIndex = 123456789012ull;
  R.Thread = ThreadId(16);

  // A bottom prior.
  R.PriorClock = RaceClock::of(EpochClock());
  EXPECT_EQ(printed(R),
            "commutativity race at event 123456789012: T16 performs "
            "o1.put(\"a.com\", 7)/nil conflicting on o:w:k "
            "(prior <> || current <2,1>)");

  // Epoch priors print as EpochClock::toClock() does: Thread + 1
  // components, zeros before the time — at thread 0, and at thread 9,
  // past VectorClock's 8 inline components.
  R.PriorClock = RaceClock::of(epochAt(0, 5));
  EXPECT_EQ(R.PriorClock.toClock(), epochAt(0, 5).toClock());
  EXPECT_EQ(printed(R),
            "commutativity race at event 123456789012: T16 performs "
            "o1.put(\"a.com\", 7)/nil conflicting on o:w:k "
            "(prior <5> || current <2,1>)");
  R.PriorClock = RaceClock::of(epochAt(9, 4294967295u));
  EXPECT_EQ(R.PriorClock.toClock(), epochAt(9, 4294967295u).toClock());
  EXPECT_EQ(printed(R),
            "commutativity race at event 123456789012: T16 performs "
            "o1.put(\"a.com\", 7)/nil conflicting on o:w:k "
            "(prior <0,0,0,0,0,0,0,0,0,4294967295> || current <2,1>)");

  // An escalated prior: two unordered accumulations.
  EpochClock Escalated = epochAt(9, 4);
  Escalated.accumulate(VectorClock({0, 0, 7}), ThreadId(2));
  ASSERT_TRUE(Escalated.isShared());
  R.PriorClock = RaceClock::of(Escalated);
  EXPECT_EQ(R.PriorClock.toClock(), Escalated.toClock());
  EXPECT_EQ(printed(R),
            "commutativity race at event 123456789012: T16 performs "
            "o1.put(\"a.com\", 7)/nil conflicting on o:w:k "
            "(prior <0,0,7,0,0,0,0,0,0,4> || current <2,1>)");

  // A 17-component current clock.
  std::vector<uint32_t> Wide(17);
  for (uint32_t I = 0; I != 17; ++I)
    Wide[I] = I * 3;
  R.CurrentClock = RaceClock(VectorClock(Wide));
  EXPECT_EQ(printed(R),
            "commutativity race at event 123456789012: T16 performs "
            "o1.put(\"a.com\", 7)/nil conflicting on o:w:k "
            "(prior <0,0,7,0,0,0,0,0,0,4> || current "
            "<0,3,6,9,12,15,18,21,24,27,30,33,36,39,42,45,48>)");

  // Records compare by value: an epoch equals the snapshot of its clock.
  EXPECT_EQ(RaceClock::of(epochAt(9, 4)),
            RaceClock(VectorClock({0, 0, 0, 0, 0, 0, 0, 0, 0, 4})));
  EXPECT_NE(RaceClock::of(epochAt(9, 4)), RaceClock::of(epochAt(8, 4)));
}

TEST(RaceReportTest, PrintsDirectDetectorRace) {
  DirectCommutativityDetector Detector;
  Detector.setDefaultSpec(&dictionarySpec());
  Detector.processTrace(fig3Trace(/*WithJoin=*/true));
  ASSERT_EQ(Detector.races().size(), 1u);
  EXPECT_EQ(printed(Detector.races()[0]),
            "commutativity race at event 3: T1 performs "
            "o1.put(\"a.com\", 20)/10 conflicting on action "
            "o1.put(\"a.com\", 10)/nil (prior <2,0,1> || current <1,1>)");
}
