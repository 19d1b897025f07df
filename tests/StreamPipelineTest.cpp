//===- tests/StreamPipelineTest.cpp - streaming/batch equivalence -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// The streaming pipeline must be a pure refactoring of the materialized
/// path: for every backend, running StreamPipeline over a binary-encoded
/// trace (decoded chunk-at-a-time, never materializing a Trace) reports
/// bit-identical results to running the corresponding detector over the
/// parsed text Trace. The batched Algorithm 1 kernel is additionally held
/// to the per-event detector at hand-cut batch sizes, where batches split
/// runs and sync events land on batch edges.
///
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "detect/OnlineAtomicity.h"
#include "runtime/InstrumentedMap.h"
#include "runtime/SimRuntime.h"
#include "trace/EventBatch.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"
#include "StreamedRaces.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace crd;
using namespace crd::wire;

namespace {

const DictionaryRep &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

std::string encodeWire(const Trace &T) {
  std::ostringstream OS;
  WireWriter Writer(OS, /*EventsPerChunk=*/64);
  Writer.writeTrace(T);
  Writer.finish();
  return OS.str();
}

/// Runs \p Opts over the binary encoding of \p T and returns the summary;
/// the pipeline itself is returned through \p Out for result inspection,
/// and the records it streamed through \p Got.
StreamSummary runBinary(const Trace &T, PipelineOptions Opts,
                        std::unique_ptr<StreamPipeline> &Out,
                        testgen::StreamedRaces &Got) {
  std::string Bytes = encodeWire(T);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Out = std::make_unique<StreamPipeline>(Opts);
  Out->setDefaultProvider(&dictRep());
  Got.collect(*Out);
  StreamSummary S = Out->run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  return S;
}

void expectRacesIdentical(const std::vector<CommutativityRace> &A,
                          const std::vector<CommutativityRace> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]) << "race " << I << ":\n  " << A[I].toString()
                              << "\n  " << B[I].toString();
}

} // namespace

//===----------------------------------------------------------------------===//
// Sequential backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, SequentialBinaryMatchesMaterialized) {
  for (uint64_t Seed : {2u, 13u, 77u}) {
    Trace T = testgen::randomTrace(Seed, 4, 40, 6);

    CommutativityRaceDetector Reference;
    Reference.setDefaultProvider(&dictRep());
    Reference.processTrace(T);

    std::unique_ptr<StreamPipeline> P;
    testgen::StreamedRaces Got;
    StreamSummary S = runBinary(T, {Backend::Sequential}, P, Got);

    EXPECT_EQ(S.Events, T.size());
    EXPECT_EQ(S.Races, Reference.races().size());
    expectRacesIdentical(Got.Races, Reference.races());
  }
}

TEST(StreamPipelineTest, TextSourceMatchesBinarySource) {
  Trace T = testgen::randomTrace(5, 3, 30, 5);

  std::string Text = traceToString(T);
  std::istringstream TextIn(Text);
  DiagnosticEngine Diags;
  TextStreamSource TextSource(TextIn, Diags);
  StreamPipeline TextP({Backend::Sequential});
  TextP.setDefaultProvider(&dictRep());
  testgen::StreamedRaces TextGot;
  TextGot.collect(TextP);
  StreamSummary TextS = TextP.run(TextSource);
  EXPECT_FALSE(TextSource.failed()) << Diags.toString();

  std::unique_ptr<StreamPipeline> BinP;
  testgen::StreamedRaces BinGot;
  StreamSummary BinS = runBinary(T, {Backend::Sequential}, BinP, BinGot);

  EXPECT_EQ(TextS.Events, BinS.Events);
  EXPECT_EQ(TextS.Races, BinS.Races);
  expectRacesIdentical(TextGot.Races, BinGot.Races);
}

TEST(StreamPipelineTest, RaceCallbackFiresForEveryRace) {
  Trace T = testgen::randomTrace(21, 4, 40, 4);
  std::string Bytes = encodeWire(T);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);

  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  StreamPipeline P({Backend::Sequential});
  P.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> Seen;
  P.setRaceCallback([&Seen](const CommutativityRace &R) { Seen.push_back(R); });
  StreamSummary S = P.run(Source);

  EXPECT_EQ(Seen.size(), S.Races);
  expectRacesIdentical(Seen, Reference.races());
  EXPECT_GT(S.Races, 0u) << "seed produced no races; pick another seed";
}

//===----------------------------------------------------------------------===//
// Retention: the pipeline streams its records and keeps none
//===----------------------------------------------------------------------===//

namespace {

/// Pulls \p T at most \p Batch events at a time and counts the pulls that
/// found an undrained record in the pipeline's detector: the pipeline
/// pulls again only after it finished the previous batch.
class SmallBatchSource : public EventSource {
public:
  SmallBatchSource(const Trace &T, size_t Batch, const StreamPipeline &P)
      : Inner(T), Batch(Batch), P(P) {}

  bool next(Event &E) override { return Inner.next(E); }
  size_t nextBatch(EventBatch &B, size_t MaxEvents) override {
    ++Pulls;
    if (!P.sequentialDetector()->races().empty())
      ++PullsWithRecords;
    return EventSource::nextBatch(B, std::min(MaxEvents, Batch));
  }

  size_t Pulls = 0;
  size_t PullsWithRecords = 0;

private:
  TraceSource Inner;
  size_t Batch;
  const StreamPipeline &P;
};

/// Sizes and spread of the clocks in \p Races: the widest current clock,
/// and whether some prior came from an escalated point (an epoch has one
/// nonzero component, an escalated clock at least two).
struct ClockShape {
  size_t WidestCurrent = 0;
  bool EscalatedPrior = false;
};

ClockShape clockShape(const std::vector<CommutativityRace> &Races) {
  ClockShape Shape;
  for (const CommutativityRace &R : Races) {
    Shape.WidestCurrent = std::max(Shape.WidestCurrent, R.CurrentClock.size());
    size_t Nonzero = 0;
    for (size_t I = 0; I != R.PriorClock.size(); ++I)
      Nonzero += R.PriorClock[I] != 0;
    Shape.EscalatedPrior |= Nonzero >= 2;
  }
  return Shape;
}

} // namespace

TEST(StreamPipelineTest, PipelineKeepsNoRecordBetweenBatches) {
  // 12 workers: 13-component clocks (past VectorClock's 8 inline ones),
  // and enough concurrency that accumulated points escalate.
  Trace T = testgen::randomTrace(31, 12, 40, 5);
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  for (const Event &E : T)
    Reference.process(E);
  ASSERT_GT(Reference.races().size(), 0u) << "seed produced no races";
  ClockShape Shape = clockShape(Reference.races());
  EXPECT_GT(Shape.WidestCurrent, 8u);
  EXPECT_TRUE(Shape.EscalatedPrior) << "no escalated prior; pick another seed";

  auto expectSummaryMatches = [&](const StreamPipeline &P) {
    StreamSummary S = P.summary();
    EXPECT_EQ(S.Races, Reference.raceCount());
    EXPECT_EQ(S.DistinctRacyObjects, Reference.distinctRacyObjects());
  };

  for (size_t Batch : {1, 3, 16}) {
    SCOPED_TRACE(::testing::Message() << "batch=" << Batch);
    {
      // Pull.
      StreamPipeline P({Backend::Sequential});
      P.setDefaultProvider(&dictRep());
      testgen::StreamedRaces Got;
      Got.collect(P);
      SmallBatchSource Source(T, Batch, P);
      P.run(Source);
      EXPECT_GT(Source.Pulls, T.size() / Batch);
      EXPECT_EQ(Source.PullsWithRecords, 0u);
      EXPECT_TRUE(P.sequentialDetector()->races().empty());
      expectRacesIdentical(Got.Races, Reference.races());
      expectSummaryMatches(P);
    }
    {
      // Push.
      StreamPipeline P({Backend::Sequential});
      P.setDefaultProvider(&dictRep());
      testgen::StreamedRaces Got;
      Got.collect(P);
      EventBatch B;
      size_t NonEmpty = 0;
      for (size_t I = 0; I != T.size(); ++I) {
        B.append(T[I]);
        if (B.size() == Batch || I + 1 == T.size()) {
          P.processBatch(B);
          NonEmpty += !P.sequentialDetector()->races().empty();
        }
      }
      P.finish();
      EXPECT_EQ(NonEmpty, 0u);
      expectRacesIdentical(Got.Races, Reference.races());
      expectSummaryMatches(P);
    }
  }

  // The per-event feed drains after every event.
  StreamPipeline P({Backend::Sequential});
  P.setDefaultProvider(&dictRep());
  testgen::StreamedRaces Got;
  Got.collect(P);
  size_t NonEmpty = 0;
  for (const Event &E : T) {
    P.onEvent(E);
    NonEmpty += !P.sequentialDetector()->races().empty();
  }
  P.finish();
  EXPECT_EQ(NonEmpty, 0u);
  expectRacesIdentical(Got.Races, Reference.races());
  expectSummaryMatches(P);
}

//===----------------------------------------------------------------------===//
// Batched kernel vs per-event detector
//===----------------------------------------------------------------------===//

namespace {

/// Sync events at both edges of every batch-of-4: positions 0/4/8/12 open
/// a batch, 3/7/11 close one. An off-by-one at a batch edge changes which
/// clock an invoke observes.
Trace syncAtBatchEdgesTrace() {
  Value K1 = Value::string("k1"), K2 = Value::string("k2");
  return TraceBuilder()
      .fork(0, 1)                                       // 0 sync
      .fork(0, 2)                                       // 1 sync
      .invoke(1, 7, "put", {K1, Value::integer(10)}, Value::nil())
      .acquire(1, 0)                                    // 3 sync
      .release(1, 0)                                    // 4 sync
      .invoke(2, 7, "put", {K1, Value::integer(20)}, Value::nil())
      .invoke(1, 7, "put", {K2, Value::integer(1)}, Value::nil())
      .acquire(2, 0)                                    // 7 sync
      .release(2, 0)                                    // 8 sync
      .invoke(2, 7, "put", {K2, Value::integer(2)}, Value::nil())
      .invoke(1, 8, "get", {K1}, Value::integer(10))
      .join(0, 1)                                       // 11 sync
      .join(0, 2)                                       // 12 sync
      .invoke(0, 7, "put", {K1, Value::integer(30)}, Value::nil())
      .invoke(0, 8, "get", {K1}, Value::integer(30))
      .take();
}

/// Consecutive sync events produce zero-length runs between them; the
/// clocks the *last* of them leaves behind are the ones the next invoke
/// observes.
Trace backToBackSyncTrace() {
  Value K = Value::string("k");
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2);
  TB.acquire(1, 0).release(1, 0).acquire(1, 0).release(1, 0); // 4 in a row.
  TB.invoke(1, 7, "put", {K, Value::integer(1)}, Value::nil());
  TB.invoke(2, 7, "put", {K, Value::integer(2)}, Value::nil());
  TB.acquire(2, 1).release(2, 1);
  TB.join(0, 1).join(0, 2);
  return TB.take();
}

/// The degenerate extreme: nothing but synchronization, so every run is
/// empty and the kernel never executes an action.
Trace allSyncTrace() {
  TraceBuilder TB;
  TB.fork(0, 1);
  for (int I = 0; I != 9; ++I)
    TB.acquire(1, 0).release(1, 0);
  TB.join(0, 1);
  return TB.take();
}

/// Feeds \p T to StreamPipeline::processBatch in hand-cut batches of
/// every size under test and expects the full race structs its callback
/// saw, and the race count, to equal those of
/// CommutativityRaceDetector::process() fed event by event and those of a
/// pipeline that pulls the binary encoding through run(). Returns the
/// reference race count so callers can assert the trace was non-trivial.
size_t expectBatchedMatchesPerEvent(const Trace &T) {
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  for (const Event &E : T)
    Reference.process(E);
  std::unique_ptr<StreamPipeline> Pulled;
  testgen::StreamedRaces PulledGot;
  runBinary(T, {Backend::Sequential}, Pulled, PulledGot);
  expectRacesIdentical(PulledGot.Races, Reference.races());

  for (size_t Batch : {1, 2, 3, 4, 5, 7, 17, 64}) {
    SCOPED_TRACE(::testing::Message() << "batch=" << Batch);
    StreamPipeline P({Backend::Sequential});
    P.setDefaultProvider(&dictRep());
    testgen::StreamedRaces Got;
    Got.collect(P);
    EventBatch B;
    for (size_t I = 0; I != T.size(); ++I) {
      B.append(T[I]);
      if (B.size() == Batch || I + 1 == T.size())
        P.processBatch(B);
    }
    P.finish();

    EXPECT_EQ(P.eventsProcessed(), T.size());
    EXPECT_EQ(P.summary().Races, Reference.races().size());
    expectRacesIdentical(Got.Races, Reference.races());
  }
  return Reference.races().size();
}

} // namespace

TEST(StreamPipelineTest, BatchedKernelMatchesPerEventAtSyncBatchEdges) {
  EXPECT_GT(expectBatchedMatchesPerEvent(syncAtBatchEdgesTrace()), 0u)
      << "boundary trace should race (put/put on k1, k2)";
}

TEST(StreamPipelineTest, BatchedKernelMatchesPerEventOnBackToBackSyncs) {
  EXPECT_GT(expectBatchedMatchesPerEvent(backToBackSyncTrace()), 0u);
}

TEST(StreamPipelineTest, BatchedKernelMatchesPerEventOnAllSyncTrace) {
  EXPECT_EQ(expectBatchedMatchesPerEvent(allSyncTrace()), 0u);
}

TEST(StreamPipelineTest, BatchedKernelMatchesPerEventOnRandomTraces) {
  size_t Races = 0;
  for (uint64_t Seed : {3u, 9u, 21u, 77u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << Seed);
    Races += expectBatchedMatchesPerEvent(testgen::randomTrace(Seed, 4, 50, 6));
  }
  Races += expectBatchedMatchesPerEvent(testgen::randomTrace(77, 3, 120, 6));
  EXPECT_GT(Races, 0u) << "seeds produced no races; pick others";
}

//===----------------------------------------------------------------------===//
// FastTrack backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, FastTrackBinaryMatchesMaterialized) {
  Trace T = testgen::randomTrace(17, 4, 40, 4);

  FastTrackDetector Reference;
  Reference.processTrace(T);

  std::unique_ptr<StreamPipeline> P;
  testgen::StreamedRaces Got;
  StreamSummary S = runBinary(T, {Backend::FastTrack}, P, Got);

  EXPECT_EQ(S.MemoryRaces, Reference.races().size());
  ASSERT_EQ(Got.MemoryRaces.size(), Reference.races().size());
  for (size_t I = 0; I != Reference.races().size(); ++I)
    EXPECT_TRUE(Got.MemoryRaces[I] == Reference.races()[I])
        << "race " << I << ":\n  " << Got.MemoryRaces[I].toString() << "\n  "
        << Reference.races()[I].toString();
}

//===----------------------------------------------------------------------===//
// Atomicity backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, AtomicityBinaryMatchesMaterialized) {
  // Wrap each worker op stream in transactions by hand: reuse the random
  // trace and inject TxBegin/TxEnd around every thread's whole run.
  Trace Base = testgen::randomTrace(8, 3, 25, 3);
  Trace T;
  std::set<uint32_t> Started;
  for (size_t I = 0; I != Base.size(); ++I) {
    const Event &E = Base[I];
    if (E.kind() == EventKind::Invoke &&
        Started.insert(E.thread().index()).second)
      T.append(Event::txBegin(E.thread()));
    T.append(E);
  }
  for (uint32_t Tid : Started)
    T.append(Event::txEnd(ThreadId(Tid)));

  OnlineAtomicityChecker Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  std::unique_ptr<StreamPipeline> P;
  testgen::StreamedRaces Got;
  StreamSummary S = runBinary(T, {Backend::Atomicity}, P, Got);

  EXPECT_EQ(S.Violations, Reference.violations().size());
  ASSERT_EQ(P->violations().size(), Reference.violations().size());
  for (size_t I = 0; I != Reference.violations().size(); ++I) {
    EXPECT_EQ(P->violations()[I].Thread, Reference.violations()[I].Thread);
    EXPECT_EQ(P->violations()[I].BeginEvent,
              Reference.violations()[I].BeginEvent);
    EXPECT_EQ(P->violations()[I].EndEvent, Reference.violations()[I].EndEvent);
  }
}

//===----------------------------------------------------------------------===//
// Live push from a SimRuntime
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, LiveRuntimePushMatchesRecordedTrace) {
  // Drive the same deterministic execution twice: once recording a Trace
  // for the reference detector, once pushing straight into the pipeline.
  auto runInto = [](EventSink &Sink) {
    SimRuntime RT(4242);
    InstrumentedMap Map(RT);
    ThreadId Main = RT.addInitialThread();
    RT.schedule(Main, [&](SimThread &T) {
      ThreadId A = T.fork([&Map](SimThread &T2) {
        Map.put(T2, Value::integer(1), Value::integer(10));
        Map.size(T2);
      });
      ThreadId B = T.fork([&Map](SimThread &T2) {
        Map.put(T2, Value::integer(1), Value::integer(20));
      });
      T.defer([A](SimThread &T3) { T3.join(A); });
      T.defer([B](SimThread &T3) { T3.join(B); });
      T.defer([&Map](SimThread &T3) { Map.get(T3, Value::integer(1)); });
    });
    RT.run(Sink);
  };

  TraceRecorder Recorder;
  runInto(Recorder);
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(Recorder.trace());

  StreamPipeline P({Backend::Sequential});
  P.setDefaultProvider(&dictRep());
  testgen::StreamedRaces Got;
  Got.collect(P);
  runInto(P);
  P.finish();

  EXPECT_EQ(P.eventsProcessed(), Recorder.trace().size());
  expectRacesIdentical(Got.Races, Reference.races());
  EXPECT_GT(Got.Races.size(), 0u) << "expected a put/put race";
}

//===----------------------------------------------------------------------===//
// Summary bookkeeping
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, SummaryCountsDistinctObjects) {
  Trace T = testgen::randomTrace(2, 4, 40, 6);
  std::unique_ptr<StreamPipeline> P;
  testgen::StreamedRaces Got;
  StreamSummary S = runBinary(T, {Backend::Sequential}, P, Got);

  std::set<uint32_t> Objects;
  for (const CommutativityRace &R : Got.Races)
    Objects.insert(R.Current.object().index());
  EXPECT_EQ(S.DistinctRacyObjects, Objects.size());
  EXPECT_EQ(S.clean(), Got.Races.empty());
}
