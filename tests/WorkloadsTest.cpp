//===- tests/WorkloadsTest.cpp - H2/Cassandra workload tests ------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include "detect/CommutativityDetector.h"
#include "detect/Summary.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "workloads/QueueWorkload.h"
#include "workloads/SetWorkload.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace crd;

namespace {

CircuitConfig smallCircuit() {
  CircuitConfig Config;
  Config.WorkerThreads = 3;
  Config.QueriesPerWorker = 60;
  Config.Seed = 11;
  return Config;
}

SnitchConfig smallSnitch() {
  SnitchConfig Config;
  Config.Hosts = 6;
  Config.UpdaterThreads = 3;
  Config.TimingsPerUpdater = 40;
  Config.ScoreRecalcs = 15;
  Config.Seed = 11;
  return Config;
}

} // namespace

TEST(MVStoreTest, BasicStoreSemantics) {
  SimRuntime RT(1);
  MVStore Store(RT);
  ThreadId Main = RT.addInitialThread();
  RT.schedule(Main, [&Store](SimThread &T) {
    Store.put(T, Value::string("k"), Value::integer(1));
    EXPECT_EQ(Store.get(T, Value::string("k")), Value::integer(1));
    EXPECT_EQ(Store.count(T), 1);
  });
  // Commits finish in a deferred step, so issue them as separate steps.
  RT.schedule(Main, [&Store](SimThread &T) { Store.commit(T); });
  RT.schedule(Main, [&Store](SimThread &T) { Store.commit(T); });
  NullSink Sink;
  RT.run(Sink);
  // Sequential commits for the same chunk must not duplicate metadata.
  EXPECT_EQ(Store.chunksMap().uninstrumentedSize(), 1u);
  // freedPageSpace accumulated both commits.
  EXPECT_EQ(Store.freedPageSpaceMap().uninstrumentedGet(Value::integer(0)),
            Value::integer(128));
}

TEST(CircuitTest, AllCircuitsRunToCompletion) {
  for (Circuit C : AllCircuits) {
    SimRuntime RT(3);
    MVStore Store(RT);
    CircuitConfig Config = smallCircuit();
    size_t Queries = buildCircuit(C, RT, Store, Config);
    EXPECT_GT(Queries, 0u) << circuitName(C);
    TraceRecorder Recorder;
    RT.run(Recorder);
    DiagnosticEngine Diags;
    EXPECT_TRUE(Recorder.trace().validate(Diags))
        << circuitName(C) << ": " << Diags.toString();
    EXPECT_GT(Recorder.trace().size(), Queries) << circuitName(C);
  }
}

TEST(CircuitTest, ConcurrentCircuitsHaveCommutativityRaces) {
  for (Circuit C : {Circuit::ComplexConcurrency, Circuit::ComplexConcurrencyAlt,
                    Circuit::InsertCentricConcurrency}) {
    RunResult R = runH2Circuit(C, AnalysisMode::RD2, smallCircuit());
    EXPECT_GT(R.RacesTotal, 0u) << circuitName(C);
    EXPECT_GT(R.RacesDistinct, 0u) << circuitName(C);
  }
}

TEST(CircuitTest, QueryCentricAndSequentialCircuitsAreRaceFreeForRD2) {
  // Table 2: QueryCentricConcurrency, Complex and NestedLists report 0
  // commutativity races.
  for (Circuit C : {Circuit::QueryCentricConcurrency, Circuit::Complex,
                    Circuit::NestedLists}) {
    RunResult R = runH2Circuit(C, AnalysisMode::RD2, smallCircuit());
    EXPECT_EQ(R.RacesTotal, 0u) << circuitName(C);
  }
}

TEST(CircuitTest, FastTrackFindsLowLevelRacesEverywhere) {
  // Table 2: FASTTRACK reports races on every benchmark (racy statistics
  // fields and unlocked map internals).
  for (Circuit C : AllCircuits) {
    RunResult R = runH2Circuit(C, AnalysisMode::FastTrack, smallCircuit());
    EXPECT_GT(R.RacesTotal, 0u) << circuitName(C);
  }
}

TEST(CircuitTest, FastTrackRedundancyExceedsRD2Distinct) {
  // "Most races are highly redundant": totals dwarf the distinct counts.
  RunResult FT = runH2Circuit(Circuit::ComplexConcurrency,
                              AnalysisMode::FastTrack, smallCircuit());
  EXPECT_GT(FT.RacesTotal, FT.RacesDistinct);
  RunResult RD2 = runH2Circuit(Circuit::ComplexConcurrency, AnalysisMode::RD2,
                               smallCircuit());
  EXPECT_GT(RD2.RacesTotal, RD2.RacesDistinct);
  EXPECT_LE(RD2.RacesDistinct, 4u); // A handful of racy objects.
}

TEST(CircuitTest, DeterministicRaceCountsGivenSeed) {
  RunResult A = runH2Circuit(Circuit::ComplexConcurrency, AnalysisMode::RD2,
                             smallCircuit());
  RunResult B = runH2Circuit(Circuit::ComplexConcurrency, AnalysisMode::RD2,
                             smallCircuit());
  EXPECT_EQ(A.RacesTotal, B.RacesTotal);
  EXPECT_EQ(A.RacesDistinct, B.RacesDistinct);
}

TEST(SnitchTest, FunctionalBehavior) {
  SimRuntime RT(1);
  DynamicEndpointSnitch Snitch(RT, 4);
  ThreadId Main = RT.addInitialThread();
  RT.schedule(Main, [&Snitch](SimThread &T) {
    Snitch.receiveTiming(T, 0, 100);
    Snitch.receiveTiming(T, 0, 200);
    Snitch.receiveTiming(T, 1, 300);
    EXPECT_EQ(Snitch.samplesMap().uninstrumentedSize(), 2u);
    // Decaying average: (100*3 + 200)/4 = 125.
    Snitch.updateScores(T);
  });
  NullSink Sink;
  RT.run(Sink);
  EXPECT_EQ(Snitch.samplesMap().uninstrumentedGet(Value::string("10.0.0.0")),
            Value::integer(125));
}

TEST(SnitchTest, ReproducesTheSamplesSizeRace) {
  // §7 harmful race #3: new entries added while size() is used as a hint.
  RunResult R = runSnitchTest(AnalysisMode::RD2, smallSnitch());
  EXPECT_GT(R.RacesTotal, 0u);
  EXPECT_GE(R.RacesDistinct, 1u);
  EXPECT_LE(R.RacesDistinct, 2u);
}

TEST(SnitchTest, FastTrackSeesTheUnlockedReads) {
  RunResult R = runSnitchTest(AnalysisMode::FastTrack, smallSnitch());
  EXPECT_GT(R.RacesTotal, 0u);
}

TEST(HarnessTest, UninstrumentedReportsNoRaces) {
  RunResult R = runH2Circuit(Circuit::ComplexConcurrency,
                             AnalysisMode::Uninstrumented, smallCircuit());
  EXPECT_EQ(R.RacesTotal, 0u);
  EXPECT_GT(R.Queries, 0u);
  EXPECT_GT(R.Qps, 0.0);
}

TEST(SetWorkloadTest, UniqueVisitorsHasDuplicateAddRaces) {
  SimRuntime RT(5);
  InstrumentedSet Visitors(RT);
  SetWorkloadConfig Config;
  Config.WriterThreads = 3;
  Config.AddsPerWriter = 50;
  Config.VisitorRange = 8; // Small range forces duplicate adds.
  Config.Seed = 5;
  size_t Ops = buildUniqueVisitors(RT, Visitors, Config);
  EXPECT_GT(Ops, 150u);

  DiagnosticEngine Diags;
  auto Rep = translateSpec(setSpec(), Diags);
  ASSERT_TRUE(Rep) << Diags.toString();

  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(Rep.get());
  DetectorSink<CommutativityRaceDetector> Sink(Detector);
  RT.run(Sink);

  // Duplicate adds across threads and add-vs-size races must appear.
  EXPECT_GT(Detector.races().size(), 0u);
  EXPECT_EQ(Detector.distinctRacyObjects(), 1u);
  EXPECT_LE(Visitors.uninstrumentedSize(), 8u);
}

TEST(SetWorkloadTest, WideVisitorRangeStillRacesOnSize) {
  // With a huge id range duplicates are rare, but every successful add
  // still conflicts with the concurrent size() polls.
  SimRuntime RT(6);
  InstrumentedSet Visitors(RT);
  SetWorkloadConfig Config;
  Config.WriterThreads = 2;
  Config.AddsPerWriter = 40;
  Config.VisitorRange = 100000;
  Config.ReportEvery = 10;
  Config.Seed = 6;
  buildUniqueVisitors(RT, Visitors, Config);

  DiagnosticEngine Diags;
  auto Rep = translateSpec(setSpec(), Diags);
  ASSERT_TRUE(Rep);
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(Rep.get());
  DetectorSink<CommutativityRaceDetector> Sink(Detector);
  RT.run(Sink);
  EXPECT_GT(Detector.races().size(), 0u);
}

TEST(QueueWorkloadTest, TaskQueueRunsAndRaces) {
  SimRuntime RT(8);
  InstrumentedQueue Jobs(RT);
  QueueWorkloadConfig Config;
  Config.Producers = 2;
  Config.Consumers = 2;
  Config.JobsPerProducer = 30;
  Config.MonitorPeeks = 6;
  Config.Seed = 8;
  size_t Ops = buildTaskQueue(RT, Jobs, Config);
  EXPECT_GT(Ops, 120u);

  DiagnosticEngine Diags;
  auto Rep = translateSpec(queueSpec(), Diags);
  ASSERT_TRUE(Rep) << Diags.toString();
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(Rep.get());
  TraceRecorder Recorder;
  DetectorSink<CommutativityRaceDetector> DetectorSide(Detector);
  TeeSink Tee(Recorder, DetectorSide);
  RT.run(Tee);

  DiagnosticEngine ValDiags;
  EXPECT_TRUE(Recorder.trace().validate(ValDiags)) << ValDiags.toString();
  // Queues barely commute: concurrent producers alone guarantee races.
  EXPECT_GT(Detector.races().size(), 0u);
  EXPECT_EQ(Detector.distinctRacyObjects(), 1u);
  // Consumers drained at most what was produced.
  EXPECT_LE(Jobs.uninstrumentedSize(),
            size_t(Config.Producers) * Config.JobsPerProducer);
}

TEST(QueueWorkloadTest, SingleProducerSingleConsumerOrdered) {
  // One producer, consumers run after a join: race-free.
  SimRuntime RT(9);
  InstrumentedQueue Jobs(RT);
  ThreadId Main = RT.addInitialThread();
  auto Producer = std::make_shared<ThreadId>();
  RT.schedule(Main, [&RT, &Jobs, Producer](SimThread &T) {
    *Producer = T.fork([](SimThread &) {});
    for (int J = 0; J != 20; ++J)
      RT.schedule(*Producer, [&Jobs, J](SimThread &T2) {
        Jobs.enq(T2, Value::integer(J));
      });
  });
  RT.schedule(Main, [Producer](SimThread &T) { T.join(*Producer); });
  for (int J = 0; J != 20; ++J)
    RT.schedule(Main, [&Jobs](SimThread &T) { Jobs.deq(T); });

  DiagnosticEngine Diags;
  auto Rep = translateSpec(queueSpec(), Diags);
  ASSERT_TRUE(Rep);
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(Rep.get());
  DetectorSink<CommutativityRaceDetector> Sink(Detector);
  RT.run(Sink);
  EXPECT_TRUE(Detector.races().empty());
  EXPECT_EQ(Jobs.uninstrumentedSize(), 0u);
}

TEST(SummaryTest, GroupsAndSorts) {
  std::vector<CommutativityRace> Races;
  auto MakeRace = [](uint32_t Obj, size_t Event, const char *Point,
                     const char *Method) {
    CommutativityRace R;
    R.EventIndex = Event;
    R.Thread = ThreadId(1);
    R.Current = Action(ObjectId(Obj), symbol(Method),
                       {Value::integer(1)}, Value::nil());
    R.PointName = symbol(Point);
    return R;
  };
  Races.push_back(MakeRace(7, 10, "o:w:k", "put"));
  Races.push_back(MakeRace(3, 5, "o:w:k", "put"));
  Races.push_back(MakeRace(3, 9, "o:size", "size"));
  Races.push_back(MakeRace(3, 2, "o:w:k", "put"));

  RaceSummary Summary = RaceSummary::build(Races);
  EXPECT_EQ(Summary.total(), 4u);
  ASSERT_EQ(Summary.objects().size(), 2u);
  // Object 3 has more reports and sorts first; its earliest event is 2.
  EXPECT_EQ(Summary.objects()[0].Obj, ObjectId(3));
  EXPECT_EQ(Summary.objects()[0].Count, 3u);
  EXPECT_EQ(Summary.objects()[0].FirstEvent, 2u);
  EXPECT_EQ(Summary.objects()[0].ByPoint.at("o:w:k"), 2u);
  EXPECT_EQ(Summary.objects()[0].ByMethod.at("size"), 1u);

  std::string Rendered = Summary.toString();
  EXPECT_NE(Rendered.find("4 commutativity race report(s) on 2 object(s)"),
            std::string::npos);
  EXPECT_NE(Rendered.find("o3:"), std::string::npos);
}

TEST(SummaryTest, EmptyInput) {
  RaceSummary Summary = RaceSummary::build({});
  EXPECT_EQ(Summary.total(), 0u);
  EXPECT_TRUE(Summary.objects().empty());
  EXPECT_NE(Summary.toString().find("0 commutativity race report(s)"),
            std::string::npos);
}

TEST(HarnessTest, Table2Printer) {
  std::vector<RunResult> Results;
  for (AnalysisMode M : {AnalysisMode::Uninstrumented, AnalysisMode::FastTrack,
                         AnalysisMode::RD2})
    Results.push_back(
        runH2Circuit(Circuit::QueryCentricConcurrency, M, smallCircuit()));
  std::ostringstream OS;
  printTable2(OS, Results);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("QueryCentricConcurrency"), std::string::npos);
  EXPECT_NE(Out.find("FASTTRACK"), std::string::npos);
  EXPECT_NE(Out.find("RD2"), std::string::npos);
}
