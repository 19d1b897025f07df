//===- ingest/Session.cpp - Live multi-producer ingestion --------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "ingest/Session.h"

#include <algorithm>
#include <chrono>
#include <ostream>

using namespace crd;
using namespace crd::ingest;

namespace {

/// Smallest power of two ≥ \p N (≥ 1); ring capacities are quietly
/// rounded up rather than rejected.
size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

/// How many events tryPopN moves per call; bounds the scratch buffer,
/// not the per-round quota (the drain loop repeats until the quota or
/// the ring is exhausted).
constexpr size_t DrainChunk = 256;

const char *policyName(BackpressurePolicy P) {
  return P == BackpressurePolicy::Block ? "block" : "drop_newest";
}

} // namespace

Session::Session(SessionOptions Opts) : Opts(Opts) {
  this->Opts.RingCapacity = roundUpPow2(std::max<size_t>(1, Opts.RingCapacity));
  this->Opts.BatchCapacity = std::max<size_t>(1, Opts.BatchCapacity);
  Scratch.resize(DrainChunk);
}

Session::~Session() { stop(); }

Recorder Session::attachLocked(ThreadId Tid, size_t Capacity) {
  Channels.emplace_back(Tid, Capacity, Opts.Policy);
  Ptrs.push_back(&Channels.back());
  return Recorder(Ptrs.back());
}

Recorder Session::attach() {
  std::lock_guard<std::mutex> L(RegMutex);
  return attachLocked(ThreadId(NextTid++), Opts.RingCapacity);
}

Recorder Session::attach(ThreadId Tid, size_t RingCapacityOverride) {
  std::lock_guard<std::mutex> L(RegMutex);
  NextTid = std::max(NextTid, Tid.index() + 1);
  size_t Cap = RingCapacityOverride == 0 ? Opts.RingCapacity
                                         : roundUpPow2(RingCapacityOverride);
  return attachLocked(Tid, Cap);
}

size_t Session::producerCount() const {
  std::lock_guard<std::mutex> L(RegMutex);
  return Ptrs.size();
}

void Session::flushBatch() {
  Pipeline->processBatch(Batch);
  ++Batches;
}

void Session::deliver(const Event &E) {
  if (Writer)
    Writer->append(E);
  if (Pipeline) {
    Batch.append(E);
    if (Batch.size() >= Opts.BatchCapacity)
      flushBatch();
  }
  ++Collected;
}

size_t Session::drainRound() {
  uint64_t T0 = metrics::nowNs();
  {
    std::lock_guard<std::mutex> L(RegMutex);
    RoundPtrs = Ptrs;
  }
  size_t Total = 0;
  for (ProducerChannel *C : RoundPtrs) {
    C->DepthOnDrain.record(C->Ring.approxSize());
    ++C->Drains;
    size_t Quota = Opts.DrainQuota ? Opts.DrainQuota : C->Ring.capacity();
    while (Quota != 0) {
      size_t Want = std::min(Quota, Scratch.size());
      size_t N = C->Ring.tryPopN(Scratch.data(), Want);
      if (N == 0)
        break;
      for (size_t I = 0; I != N; ++I)
        deliver(Scratch[I]);
      C->Drained += N;
      Total += N;
      Quota -= N;
    }
  }
  // Flush the partial batch every round so live detection never sits on
  // events through a lull; recycled batches make the refill free.
  if (Pipeline && !Batch.empty())
    flushBatch();
  ++Rounds;
  if (Total == 0)
    ++EmptyRounds;
  uint64_t T1 = metrics::nowNs();
  RoundNs.record(T1 - T0);
  CollectNs += T1 - T0;
  if (Opts.TraceRounds && Total != 0 && Spans.size() < SpanCapacity)
    Spans.push_back({T0, T1, Total});
  return Total;
}

bool Session::allDrained() const {
  std::lock_guard<std::mutex> L(RegMutex);
  for (const ProducerChannel *C : Ptrs)
    if (!C->Ring.closed() || C->Ring.approxSize() != 0)
      return false;
  return true;
}

void Session::collectorMain() {
  unsigned Idle = 0;
  for (;;) {
    if (drainRound() != 0) {
      Idle = 0;
      continue;
    }
    if (StopRequested.load(std::memory_order_acquire) && allDrained())
      break;
    // Idle backoff: yield first, then exponentially longer short sleeps
    // capped at ~1ms. No producer-side doorbell — producers never write
    // shared state, so the collector polls; the cap bounds both wake-up
    // latency and idle CPU burn.
    if (Idle < 8) {
      std::this_thread::yield();
    } else {
      unsigned Shift = std::min(Idle - 8, 10u);
      std::this_thread::sleep_for(std::chrono::microseconds(1u << Shift));
    }
    ++Idle;
  }
}

void Session::start() {
  if (Started)
    return;
  StopRequested.store(false, std::memory_order_relaxed);
  Collector = std::thread([this] { collectorMain(); });
  Started = true;
}

void Session::stop() {
  if (!Started)
    return;
  StopRequested.store(true, std::memory_order_release);
  Collector.join();
  Started = false;
}

void Session::drainAll() {
  while (!allDrained())
    drainRound();
}

IngestMetrics Session::metricsSnapshot() const {
  IngestMetrics M;
  M.EventsCollected = Collected;
  M.Rounds = Rounds;
  M.EmptyRounds = EmptyRounds;
  M.Batches = Batches;
  M.CollectNs = CollectNs;
  M.RoundNsPow2 = RoundNs.counts();
  M.RoundNsMax = RoundNs.max();
  M.Spans = Spans;
  std::lock_guard<std::mutex> L(RegMutex);
  M.Producers = Ptrs.size();
  M.PerProducer.reserve(Ptrs.size());
  for (const ProducerChannel *C : Ptrs) {
    ProducerMetricsSnapshot P;
    P.Thread = C->Tid.index();
    P.Recorded = C->Recorded;
    P.Dropped = C->Dropped;
    P.Drained = C->Drained;
    P.Drains = C->Drains;
    P.RingCapacity = C->Ring.capacity();
    P.DepthPow2 = C->DepthOnDrain.counts();
    P.DepthMax = C->DepthOnDrain.max();
    M.DropsTotal += P.Dropped;
    M.PerProducer.push_back(std::move(P));
  }
  return M;
}

void Session::writeMetricsJson(std::ostream &OS) const {
  IngestMetrics M = metricsSnapshot();
  metrics::JsonWriter W(OS);
  W.beginObject();
  W.field("policy", policyName(Opts.Policy));
  W.field("ring_capacity", static_cast<uint64_t>(Opts.RingCapacity));
  W.field("batch_capacity", static_cast<uint64_t>(Opts.BatchCapacity));
  W.field("producers", M.Producers);
  W.field("events_collected", M.EventsCollected);
  W.field("drops", M.DropsTotal);
  W.field("rounds", M.Rounds);
  W.field("empty_rounds", M.EmptyRounds);
  W.field("batches", M.Batches);
  W.field("collect_ns", M.CollectNs);
  W.fieldArray("round_ns_pow2", M.RoundNsPow2);
  W.field("round_ns_max", M.RoundNsMax);
  W.field("round_spans", static_cast<uint64_t>(M.Spans.size()));
  W.key("per_producer");
  W.beginArray();
  for (const ProducerMetricsSnapshot &P : M.PerProducer) {
    W.beginObject();
    W.field("thread", static_cast<uint64_t>(P.Thread));
    W.field("recorded", P.Recorded);
    W.field("dropped", P.Dropped);
    W.field("drained", P.Drained);
    W.field("drains", P.Drains);
    W.field("producer_ring_capacity", P.RingCapacity);
    W.fieldArray("depth_pow2", P.DepthPow2);
    W.field("depth_max", P.DepthMax);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << '\n';
}

void crd::ingest::writeIngestChromeTrace(std::ostream &OS,
                                         const IngestMetrics &M) {
  metrics::JsonWriter W(OS);
  uint64_t Base = ~uint64_t(0);
  for (const RoundSpan &S : M.Spans)
    Base = std::min(Base, S.BeginNs);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  if (!M.Spans.empty()) {
    W.beginObject();
    W.field("name", "thread_name");
    W.field("ph", "M");
    W.field("pid", uint64_t(0));
    W.field("tid", uint64_t(0));
    W.key("args");
    W.beginObject();
    W.field("name", "ingest collector");
    W.endObject();
    W.endObject();
  }
  for (const RoundSpan &S : M.Spans) {
    W.beginObject();
    W.field("name", "round (" + std::to_string(S.Events) + " ev)");
    W.field("ph", "X");
    W.field("pid", uint64_t(0));
    W.field("tid", uint64_t(0));
    W.field("ts", static_cast<double>(S.BeginNs - Base) / 1000.0);
    W.field("dur", static_cast<double>(S.EndNs - S.BeginNs) / 1000.0);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << '\n';
}
