//===- tests/IngestTest.cpp - live multi-producer ingestion ------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// The live ingestion front-end (src/ingest): real producer threads
/// through per-thread SPSC rings into the collector's deterministic
/// merge. The load-bearing properties:
///
///  * per-producer FIFO — the merge never reorders one producer's events;
///  * the determinism contract — live detection and a replay of the wire
///    recording of the same run report bit-identical races, across
///    producer counts × ring capacities × both backpressure policies;
///  * Block is lossless, DropNewest counts every rejected event;
///  * a producer exiting mid-stream never loses its recorded tail;
///  * StreamPipeline::processBatch is equivalent to run() over a source.
///
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "ingest/RecorderSink.h"
#include "ingest/Session.h"
#include "runtime/InstrumentedMap.h"
#include "runtime/SimRuntime.h"
#include "runtime/Sink.h"
#include "support/Metrics.h"
#include "trace/EventBatch.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"
#include "StreamedRaces.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>
#include <vector>

using namespace crd;
using namespace crd::ingest;

namespace {

const DictionaryRep &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

/// The fixed per-producer script used by the determinism tests: a
/// deterministic mix of shared-dictionary invokes and lock windows,
/// fully determined by (Tid, Ops). Shared objects + shared locks make
/// the merged trace race-rich and HB-rich.
void runScript(Recorder &R, unsigned Ops) {
  const uint32_t Tid = R.thread().index();
  Symbol Put = symbol("put");
  Symbol Get = symbol("get");
  uint64_t S = (Tid + 1) * 0x9e3779b97f4a7c15ull | 1;
  for (unsigned I = 0; I != Ops; ++I) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    if (I % 16 == 0) {
      R.acquire(LockId(static_cast<uint32_t>(S % 3)));
      continue;
    }
    if (I % 16 == 15) {
      R.release(LockId(static_cast<uint32_t>(S % 3)));
      continue;
    }
    ObjectId Obj(static_cast<uint32_t>(S % 4));
    Value Key = Value::integer(static_cast<int64_t>((S >> 8) % 8));
    if (S % 2 == 0) {
      Value Vals[3] = {Key, Value::integer(static_cast<int64_t>(S >> 32)),
                       Value::nil()};
      Action View(Obj, Put, Vals, 2, 1);
      Action Owned = View;
      R.record(Event::invoke(R.thread(), std::move(Owned)));
    } else {
      Value Vals[2] = {Key, Value::nil()};
      Action View(Obj, Get, Vals, 1, 1);
      Action Owned = View;
      R.record(Event::invoke(R.thread(), std::move(Owned)));
    }
  }
  R.finish();
}

/// Decodes a wire buffer back into an event list.
std::vector<Event> decodeWire(const std::string &Bytes) {
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  wire::BinaryStreamSource Src(In, Diags);
  std::vector<Event> Out;
  Event E = Event::txBegin(ThreadId(0));
  while (Src.next(E))
    Out.push_back(E); // Copy detaches payloads from the decoder arena.
  EXPECT_FALSE(Src.failed()) << Diags.toString();
  return Out;
}

std::vector<std::string> toStrings(const std::vector<Event> &Events) {
  std::vector<std::string> Out;
  Out.reserve(Events.size());
  for (const Event &E : Events)
    Out.push_back(E.toString());
  return Out;
}

TEST(IngestTest, SingleProducerOrderPreserved) {
  SessionOptions Opts;
  Opts.RingCapacity = 32;
  Session S(Opts);
  std::ostringstream WireBuf;
  wire::WireWriter Writer(WireBuf);
  S.setWireWriter(&Writer);

  Recorder R = S.attach();
  S.start();
  std::vector<std::string> Script;
  std::thread Producer([&] {
    Symbol Put = symbol("put");
    for (int I = 0; I != 500; ++I) {
      if (I % 7 == 0) {
        R.acquire(LockId(1));
      } else if (I % 7 == 3) {
        R.release(LockId(1));
      } else {
        Value Vals[3] = {Value::integer(I), Value::integer(I * 2),
                         Value::nil()};
        Action View(ObjectId(0), Put, Vals, 2, 1);
        Action Owned = View;
        R.record(Event::invoke(R.thread(), std::move(Owned)));
      }
    }
    R.finish();
  });
  Producer.join();
  S.stop();
  Writer.finish();

  // Rebuild the script's expected strings (same loop, no ring).
  Symbol Put = symbol("put");
  for (int I = 0; I != 500; ++I) {
    if (I % 7 == 0)
      Script.push_back(Event::acquire(ThreadId(0), LockId(1)).toString());
    else if (I % 7 == 3)
      Script.push_back(Event::release(ThreadId(0), LockId(1)).toString());
    else {
      Value Vals[3] = {Value::integer(I), Value::integer(I * 2),
                       Value::nil()};
      Script.push_back(
          Event::invoke(ThreadId(0), Action(ObjectId(0), Put, Vals, 2, 1))
              .toString());
    }
  }
  EXPECT_EQ(toStrings(decodeWire(WireBuf.str())), Script);
  EXPECT_EQ(S.eventsCollected(), 500u);
}

TEST(IngestTest, PerProducerFifoInMerge) {
  // Each producer tags its events with (object = tid, key = sequence
  // number); whatever interleaving the collector observes, each
  // producer's subsequence must come out strictly in order.
  constexpr unsigned Producers = 4, Ops = 2000;
  SessionOptions Opts;
  Opts.RingCapacity = 16; // Tiny: forces many rounds and blocking.
  Session S(Opts);
  std::ostringstream WireBuf;
  wire::WireWriter Writer(WireBuf);
  S.setWireWriter(&Writer);

  std::vector<Recorder> Recs;
  for (unsigned T = 0; T != Producers; ++T)
    Recs.push_back(S.attach(ThreadId(T)));
  S.start();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Producers; ++T)
    Threads.emplace_back(
        [&Recs, T] {
          Recorder &R = Recs[T];
          Symbol Put = symbol("put");
          for (unsigned I = 0; I != Ops; ++I) {
            Value Vals[3] = {Value::integer(I), Value::nil(), Value::nil()};
            Action View(ObjectId(T), Put, Vals, 2, 1);
            Action Owned = View;
            R.record(Event::invoke(R.thread(), std::move(Owned)));
          }
          R.finish();
        });
  for (std::thread &T : Threads)
    T.join();
  S.stop();
  Writer.finish();

  std::vector<Event> Merged = decodeWire(WireBuf.str());
  ASSERT_EQ(Merged.size(), size_t(Producers) * Ops);
  std::vector<int64_t> NextSeq(Producers, 0);
  for (const Event &E : Merged) {
    uint32_t T = E.thread().index();
    ASSERT_LT(T, Producers);
    ASSERT_EQ(E.action().args()[0].asInt(), NextSeq[T])
        << "producer " << T << " reordered";
    ++NextSeq[T];
  }
}

TEST(IngestTest, DeterminismLiveVsReplayMatrix) {
  // The contract crd record --verify-replay enforces, across the matrix
  // the issue calls out: live detection over the collector's merge must
  // report bit-identical races to a replay of the wire recording of the
  // SAME run — drops happen upstream of both sinks.
  for (unsigned Producers : {1u, 2u, 4u}) {
    for (size_t Ring : {size_t(16), size_t(256)}) {
      for (BackpressurePolicy Policy :
           {BackpressurePolicy::Block, BackpressurePolicy::DropNewest}) {
        SessionOptions Opts;
        Opts.RingCapacity = Ring;
        Opts.Policy = Policy;
        Opts.BatchCapacity = 64; // Small: many partial-batch flushes.
        Session S(Opts);

        wire::PipelineOptions POpts;
        wire::StreamPipeline Live(POpts);
        Live.setDefaultProvider(&dictRep());
        testgen::StreamedRaces LiveRaces;
        LiveRaces.collect(Live);
        std::ostringstream WireBuf;
        wire::WireWriter Writer(WireBuf);
        S.setPipeline(&Live);
        S.setWireWriter(&Writer);

        std::vector<Recorder> Recs;
        for (unsigned T = 0; T != Producers; ++T)
          Recs.push_back(S.attach(ThreadId(T)));
        S.start();
        std::vector<std::thread> Threads;
        for (unsigned T = 0; T != Producers; ++T)
          Threads.emplace_back([&Recs, T] { runScript(Recs[T], 1200); });
        for (std::thread &T : Threads)
          T.join();
        S.stop();
        Live.finish();
        Writer.finish();

        std::istringstream In(WireBuf.str());
        DiagnosticEngine Diags;
        wire::BinaryStreamSource Src(In, Diags);
        wire::StreamPipeline Replayed(POpts);
        Replayed.setDefaultProvider(&dictRep());
        testgen::StreamedRaces ReplayedRaces;
        ReplayedRaces.collect(Replayed);
        wire::StreamSummary Sum = Replayed.run(Src);
        ASSERT_FALSE(Src.failed()) << Diags.toString();

        SCOPED_TRACE(testing::Message()
                     << "producers=" << Producers << " ring=" << Ring
                     << " policy="
                     << (Policy == BackpressurePolicy::Block ? "block"
                                                             : "drop"));
        EXPECT_EQ(Sum.Events, S.eventsCollected());
        EXPECT_EQ(ReplayedRaces.Races, LiveRaces.Races);
        // Every script op emits exactly one event, so Block is lossless
        // at exactly Producers × Ops.
        if (Policy == BackpressurePolicy::Block) {
          EXPECT_EQ(S.eventsCollected(), uint64_t(Producers) * 1200);
        }
      }
    }
  }
}

TEST(IngestTest, BlockPolicyLossless) {
  SessionOptions Opts;
  Opts.RingCapacity = 8; // Heavy backpressure.
  Opts.Policy = BackpressurePolicy::Block;
  Session S(Opts);
  std::vector<Recorder> Recs;
  for (unsigned T = 0; T != 3; ++T)
    Recs.push_back(S.attach());
  S.start();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 3; ++T)
    Threads.emplace_back([&Recs, T] { runScript(Recs[T], 4000); });
  for (std::thread &T : Threads)
    T.join();
  S.stop();

  IngestMetrics M = S.metricsSnapshot();
  EXPECT_EQ(M.DropsTotal, 0u);
  uint64_t Recorded = 0;
  for (const ProducerMetricsSnapshot &P : M.PerProducer) {
    EXPECT_EQ(P.Dropped, 0u);
    EXPECT_EQ(P.Drained, P.Recorded); // Nothing left behind in any ring.
    Recorded += P.Recorded;
  }
  EXPECT_EQ(Recorded, 3u * 4000u);
  EXPECT_EQ(M.EventsCollected, Recorded);
}

TEST(IngestTest, DropNewestCountsEveryRejection) {
  // Flood a tiny ring before the collector starts: exactly `capacity`
  // events fit, every other record() must return false and be counted.
  SessionOptions Opts;
  Opts.RingCapacity = 16;
  Opts.Policy = BackpressurePolicy::DropNewest;
  Session S(Opts);
  Recorder R = S.attach();
  unsigned Accepted = 0, Rejected = 0;
  for (unsigned I = 0; I != 100; ++I) {
    if (R.write(VarId(I)))
      ++Accepted;
    else
      ++Rejected;
  }
  EXPECT_EQ(Accepted, 16u);
  EXPECT_EQ(Rejected, 84u);
  R.finish();
  S.start();
  S.stop();

  IngestMetrics M = S.metricsSnapshot();
  EXPECT_EQ(M.EventsCollected, 16u);
  EXPECT_EQ(M.DropsTotal, 84u);
  ASSERT_EQ(M.PerProducer.size(), 1u);
  EXPECT_EQ(M.PerProducer[0].Recorded, 16u);
  EXPECT_EQ(M.PerProducer[0].Dropped, 84u);
}

TEST(IngestTest, TeardownMidStreamKeepsTail) {
  // Producer A records a burst and exits (thread gone, ring closed)
  // while producer B is still streaming; A's tail must be collected in
  // full even though its thread no longer exists.
  SessionOptions Opts;
  Opts.RingCapacity = 1024;
  Session S(Opts);
  Recorder A = S.attach(ThreadId(0));
  Recorder B = S.attach(ThreadId(1));

  std::thread ShortLived([&A] {
    for (unsigned I = 0; I != 700; ++I)
      A.write(VarId(I % 5));
    A.finish(); // Close and exit mid-stream.
  });
  ShortLived.join(); // A's thread is gone; nothing drained yet if the
  S.start();         // collector starts only now.
  std::thread LongLived([&B] {
    for (unsigned I = 0; I != 9000; ++I)
      B.read(VarId(I % 5));
    B.finish();
  });
  LongLived.join();
  S.stop();

  IngestMetrics M = S.metricsSnapshot();
  ASSERT_EQ(M.PerProducer.size(), 2u);
  EXPECT_EQ(M.PerProducer[0].Recorded, 700u);
  EXPECT_EQ(M.PerProducer[0].Drained, 700u);
  EXPECT_EQ(M.PerProducer[1].Drained, 9000u);
  EXPECT_EQ(M.EventsCollected, 9700u);
}

TEST(IngestTest, AttachCapacityOverrideAndRounding) {
  SessionOptions Opts;
  Opts.RingCapacity = 64;
  Session S(Opts);
  Recorder Default = S.attach(ThreadId(0));
  Recorder Wide = S.attach(ThreadId(1), 500); // Rounded up to 512.
  Default.finish();
  Wide.finish();
  S.drainAll();
  IngestMetrics M = S.metricsSnapshot();
  ASSERT_EQ(M.PerProducer.size(), 2u);
  EXPECT_EQ(M.PerProducer[0].RingCapacity, 64u);
  EXPECT_EQ(M.PerProducer[1].RingCapacity, 512u);
}

TEST(IngestTest, MetricsSnapshotAndJson) {
  SessionOptions Opts;
  Opts.RingCapacity = 32;
  Opts.TraceRounds = true;
  Session S(Opts);
  wire::PipelineOptions POpts;
  wire::StreamPipeline Pipe(POpts);
  Pipe.setDefaultProvider(&dictRep());
  S.setPipeline(&Pipe);

  std::vector<Recorder> Recs;
  Recs.push_back(S.attach());
  Recs.push_back(S.attach());
  S.start();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 2; ++T)
    Threads.emplace_back([&Recs, T] { runScript(Recs[T], 800); });
  for (std::thread &T : Threads)
    T.join();
  S.stop();
  Pipe.finish();

  IngestMetrics M = S.metricsSnapshot();
  EXPECT_EQ(M.Producers, 2u);
  EXPECT_EQ(M.EventsCollected, 1600u);
  EXPECT_GE(M.Rounds, 1u);
  EXPECT_GE(M.Batches, 1u);
  for (const ProducerMetricsSnapshot &P : M.PerProducer) {
    uint64_t DepthSamples = 0;
    for (uint64_t C : P.DepthPow2)
      DepthSamples += C;
    // Every drain visit samples the depth histogram exactly once.
    EXPECT_EQ(DepthSamples, P.Drains);
  }

  std::ostringstream JSON;
  S.writeMetricsJson(JSON);
  std::string Doc = JSON.str();
  for (const char *Key :
       {"\"policy\"", "\"events_collected\"", "\"drops\"", "\"rounds\"",
        "\"per_producer\"", "\"recorded\"", "\"depth_pow2\"",
        "\"round_ns_pow2\""})
    EXPECT_NE(Doc.find(Key), std::string::npos) << Key << "\n" << Doc;

  std::ostringstream TraceJSON;
  writeIngestChromeTrace(TraceJSON, M);
  EXPECT_NE(TraceJSON.str().find("ingest collector"), std::string::npos);
}

TEST(IngestTest, LiveRecorderSinkMatchesTraceRecorderPerThread) {
  // The same seeded SimRuntime program recorded two ways: the
  // materializing TraceRecorder, and LiveRecorderSink through a real
  // ingestion session into a wire buffer. The collector merge may
  // interleave threads differently than emission order, but each
  // thread's subsequence must match exactly, with nothing lost —
  // including threads the runtime retires mid-run (onThreadExit closes
  // their rings while the rest keep streaming).
  auto Run = [](EventSink &Sink) {
    SimRuntime RT(1234);
    InstrumentedMap M1(RT), M2(RT);
    LockId L = RT.newLock();
    ThreadId Main = RT.addInitialThread();
    RT.schedule(Main, [&](SimThread &T) {
      for (unsigned W = 0; W != 3; ++W) {
        ThreadId Tid = T.fork([](SimThread &) {});
        for (unsigned Q = 0; Q != 60; ++Q)
          RT.schedule(Tid, [&M1, &M2, L, Q](SimThread &T2) {
            InstrumentedMap &M = Q % 2 ? M1 : M2;
            if (Q % 10 == 0)
              T2.acquire(L);
            M.put(T2, Value::integer(Q % 7), Value::integer(Q));
            if (Q % 10 == 9)
              T2.release(L);
          });
        T.defer([Tid](SimThread &T2) { T2.join(Tid); });
      }
    });
    RT.run(Sink);
  };

  TraceRecorder Reference;
  Run(Reference);

  SessionOptions Opts;
  Opts.RingCapacity = 64;
  Session S(Opts);
  std::ostringstream WireBuf;
  wire::WireWriter Writer(WireBuf);
  S.setWireWriter(&Writer);
  S.start();
  {
    LiveRecorderSink Sink(S);
    Run(Sink);
    Sink.finishAll();
  }
  S.stop();
  Writer.finish();

  std::map<uint32_t, std::vector<std::string>> RefByThread, LiveByThread;
  for (const Event &E : Reference.trace())
    RefByThread[E.thread().index()].push_back(E.toString());
  for (const Event &E : decodeWire(WireBuf.str()))
    LiveByThread[E.thread().index()].push_back(E.toString());
  EXPECT_EQ(LiveByThread, RefByThread);
  EXPECT_EQ(S.eventsCollected(), Reference.trace().size());
}

TEST(IngestTest, ProcessBatchMatchesRun) {
  Trace T = testgen::randomTrace(77, 3, 120, 6);
  wire::PipelineOptions POpts;

  std::unique_ptr<wire::StreamPipeline> Pulled;
  testgen::StreamedRaces PulledRaces;
  {
    std::ostringstream OS;
    wire::WireWriter W(OS);
    W.writeTrace(T);
    W.finish();
    std::istringstream In(OS.str());
    DiagnosticEngine Diags;
    wire::BinaryStreamSource Src(In, Diags);
    Pulled = std::make_unique<wire::StreamPipeline>(POpts);
    Pulled->setDefaultProvider(&dictRep());
    PulledRaces.collect(*Pulled);
    Pulled->run(Src);
  }

  wire::StreamPipeline Pushed(POpts);
  Pushed.setDefaultProvider(&dictRep());
  testgen::StreamedRaces PushedRaces;
  PushedRaces.collect(Pushed);
  EventBatch B;
  for (size_t I = 0; I != T.size(); ++I) {
    B.append(T[I]);
    if (B.size() == 7 || I + 1 == T.size())
      Pushed.processBatch(B); // Returns B empty, buffers warm.
  }
  Pushed.finish();
  EXPECT_EQ(PushedRaces.Races, PulledRaces.Races);
  EXPECT_EQ(Pushed.eventsProcessed(), T.size());
}

TEST(IngestTest, RecorderMoveAndAutoFinish) {
  Session S((SessionOptions()));
  Recorder A = S.attach();
  EXPECT_TRUE(A.attached());
  Recorder B = std::move(A);
  EXPECT_FALSE(A.attached());
  EXPECT_TRUE(B.attached());
  B.write(VarId(1));
  { Recorder C = std::move(B); } // Destructor closes the ring.
  EXPECT_FALSE(B.attached());
  S.drainAll();
  EXPECT_EQ(S.eventsCollected(), 1u);
}

} // namespace
