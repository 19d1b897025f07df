//===- ingest/Session.h - Live multi-producer ingestion ---------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live recording front-end: real threads log events into per-thread
/// SPSC rings (Recorder.h) and a collector drains all rings in rounds,
/// sequencing the streams into one deterministic total order that feeds
/// the existing StreamPipeline (live detection) and/or a WireWriter
/// (record now, analyze later). When both sinks are set they see the
/// identical order, which is the determinism contract the ingestion
/// tests pin down: replaying the wire file yields bit-identical races to
/// what the live pipeline reported.
///
/// Ordering. The merged order is defined by (round, registration order,
/// per-producer FIFO): each collector round visits producers in
/// registration order and appends whatever their rings hold (bounded by
/// the drain quota). Per-producer order is always preserved — producer
/// sequence numbers are exactly the Recorded tallies. The cross-producer
/// interleaving depends on collector timing, so two *live runs* may
/// merge differently (each is one valid observed interleaving, like two
/// runs of a real program); what is deterministic is that the analyzed
/// order and the recorded order of one run are the same sequence.
///
/// Threading. attach() may be called from any thread at any time
/// (registration takes a mutex; the record fast path never does). The
/// collector is either the dedicated thread started by start()/stop()
/// or the caller of drainRound()/drainAll() — never both at once.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_INGEST_SESSION_H
#define CRD_INGEST_SESSION_H

#include "ingest/Recorder.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"

#include <array>
#include <atomic>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

namespace crd {
namespace ingest {

/// Session-wide ingestion knobs.
struct SessionOptions {
  /// Default per-producer ring capacity in events; must be a power of
  /// two. attach() can override per producer (the Resize-at-registration
  /// knob).
  size_t RingCapacity = 1024;
  BackpressurePolicy Policy = BackpressurePolicy::Block;
  /// Max events drained from one producer per round, so a hot producer
  /// cannot starve the rotation. 0 = that producer's ring capacity.
  size_t DrainQuota = 0;
  /// Events per EventBatch handed to the pipeline (the pipeline sink
  /// batches; the wire sink writes event-at-a-time into its own chunks).
  size_t BatchCapacity = 4096;
  /// Record a RoundSpan per non-empty collector round for Chrome tracing
  /// (capped at SpanCapacity rounds).
  bool TraceRounds = false;
};

/// One producer's corner of the metrics snapshot.
struct ProducerMetricsSnapshot {
  uint32_t Thread = 0;
  uint64_t Recorded = 0; ///< Events accepted into the ring.
  uint64_t Dropped = 0;  ///< Events discarded by DropNewest backpressure.
  uint64_t Drained = 0;  ///< Events the collector pulled out.
  uint64_t Drains = 0;   ///< Collector visits.
  uint64_t RingCapacity = 0;
  std::array<uint64_t, 18> DepthPow2{}; ///< Ring depth per collector visit.
  uint64_t DepthMax = 0;
};

/// One non-empty collector round, for the Chrome-trace collector row.
struct RoundSpan {
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  uint64_t Events = 0;
};

/// Whole-session snapshot; see Session::metricsSnapshot() for validity.
struct IngestMetrics {
  uint64_t Producers = 0;
  uint64_t EventsCollected = 0;
  uint64_t Rounds = 0;
  uint64_t EmptyRounds = 0;
  uint64_t Batches = 0;
  uint64_t DropsTotal = 0;
  uint64_t CollectNs = 0; ///< Total wall time inside drainRound().
  std::array<uint64_t, 24> RoundNsPow2{};
  uint64_t RoundNsMax = 0;
  std::vector<ProducerMetricsSnapshot> PerProducer;
  std::vector<RoundSpan> Spans;
};

/// Registry of producers plus the collector that merges their streams.
class Session {
public:
  /// Hard cap on recorded RoundSpans (first-N truncation) so an opt-in
  /// trace of a long stress run stays bounded.
  static constexpr size_t SpanCapacity = size_t(1) << 20;

  explicit Session(SessionOptions Opts = {});

  /// Stops the collector first (see stop()'s blocking caveat). Does not
  /// finish() the pipeline or wire writer — they outlive the session and
  /// the caller flushes them.
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Live-detection sink; events stream in as EventBatches. The pipeline
  /// must outlive the session. Call StreamPipeline::finish() after
  /// stop()/drainAll() to flush and read races.
  void setPipeline(wire::StreamPipeline *P) { Pipeline = P; }
  /// Record-now-analyze-later sink; receives every collected event in
  /// the merged order. The caller finishes the writer after the session
  /// quiesces.
  void setWireWriter(wire::WireWriter *W) { Writer = W; }

  /// Registers a producer on the next free thread id.
  Recorder attach();
  /// Registers a producer recording as \p Tid. \p RingCapacityOverride
  /// (power of two; 0 = session default) is the per-producer resize
  /// knob — capacity is fixed at registration because a live lock-free
  /// ring cannot grow.
  Recorder attach(ThreadId Tid, size_t RingCapacityOverride = 0);

  /// Spawns the collector thread. Rounds run until stop().
  void start();
  /// Waits until every registered producer has finish()ed and every ring
  /// is drained, then joins the collector. Blocks as long as producers
  /// are still attached — finish the recorders (join the producer
  /// threads) first.
  void stop();

  /// Manual pumping for collector-less use (tests, single-threaded
  /// embedding): drains one round, returns events moved. Must not race
  /// with a start()ed collector.
  size_t drainRound();
  /// Pumps until all producers are finished and drained. Same
  /// precondition as stop(): unfinished recorders make this spin.
  void drainAll();

  size_t producerCount() const;

  /// Events delivered to the sinks. Stable only once quiesced (after
  /// stop() or drainAll()).
  uint64_t eventsCollected() const { return Collected; }

  /// Valid once quiesced — producer tallies ride the ring-close
  /// happens-before edge, so a snapshot taken mid-stream would race.
  IngestMetrics metricsSnapshot() const;

  /// Emits the snapshot as a JSON document (schema: docs/ingestion.md).
  /// Same validity rule as metricsSnapshot().
  void writeMetricsJson(std::ostream &OS) const;

private:
  Recorder attachLocked(ThreadId Tid, size_t Capacity);
  void collectorMain();
  bool allDrained() const;
  void deliver(const Event &E);
  void flushBatch();

  SessionOptions Opts;
  wire::StreamPipeline *Pipeline = nullptr;
  wire::WireWriter *Writer = nullptr;

  /// Guards registration state (Channels/Ptrs/NextTid). The collector
  /// takes it once per round to snapshot the producer list; producers
  /// take it once at attach(); the record fast path never does.
  mutable std::mutex RegMutex;
  /// Deque for stable addresses across registration.
  std::deque<ProducerChannel> Channels;
  /// Registration order — the collector's (deterministic) visit order.
  std::vector<ProducerChannel *> Ptrs;
  uint32_t NextTid = 0;

  /// Collector-only state (single writer).
  std::vector<ProducerChannel *> RoundPtrs; ///< Per-round snapshot of Ptrs.
  std::vector<Event> Scratch;               ///< tryPopN landing pad.
  EventBatch Batch;                         ///< Pipeline-bound fill.
  uint64_t Collected = 0;
  uint64_t Rounds = 0;
  uint64_t EmptyRounds = 0;
  uint64_t Batches = 0;
  uint64_t CollectNs = 0;
  metrics::Pow2Histogram<24> RoundNs;
  std::vector<RoundSpan> Spans;

  std::thread Collector;
  std::atomic<bool> StopRequested{false};
  bool Started = false;
};

/// Renders the collector as a Chrome-trace row (chrome://tracing /
/// Perfetto): one X event per recorded round, events-per-round in args.
/// Complements the detector's writeChromeTrace(); `crd record
/// --chrome-trace` emits this document.
void writeIngestChromeTrace(std::ostream &OS, const IngestMetrics &M);

} // namespace ingest
} // namespace crd

#endif // CRD_INGEST_SESSION_H
