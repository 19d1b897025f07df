//===- wire/StreamPipeline.h - Streaming detection pipeline -----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming ingestion pipeline: pulls batches of decoded events from
/// any EventSource (or takes batches a caller cuts itself) and feeds them
/// incrementally into a detector backend — the Algorithm 1 detector, the
/// FastTrack baseline, or the online atomicity checker. Findings are
/// streamed, not retained: after every batch each new race record or
/// atomicity violation goes to the optional callback and is then dropped,
/// so the pipeline keeps only counters and the distinct racy
/// objects/locations for the end-of-stream summary, and its memory does
/// not grow with the finding count. No Trace is ever materialized.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_WIRE_STREAMPIPELINE_H
#define CRD_WIRE_STREAMPIPELINE_H

#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "detect/OnlineAtomicity.h"
#include "wire/EventSource.h"

#include <functional>
#include <iosfwd>
#include <memory>

namespace crd {
namespace wire {

/// Which detector consumes the stream.
enum class Backend {
  Sequential, ///< CommutativityRaceDetector (Algorithm 1).
  FastTrack,  ///< Low-level read/write races.
  Atomicity,  ///< OnlineAtomicityChecker (conflict-serializability).
};

/// End-of-stream report.
struct StreamSummary {
  size_t Events = 0;
  size_t Races = 0;            ///< Commutativity races (Sequential).
  size_t DistinctRacyObjects = 0;
  size_t MemoryRaces = 0;      ///< FastTrack backend.
  size_t DistinctRacyVars = 0;
  size_t Violations = 0;       ///< Atomicity backend.

  /// True when the selected backend reported nothing.
  bool clean() const { return Races + MemoryRaces + Violations == 0; }
};

/// Pipeline configuration.
struct PipelineOptions {
  Backend TheBackend = Backend::Sequential;
  /// Chunk memoization for binary sources carrying content digests
  /// (docs/trace-format.md). Full memoizes detector chunk summaries and
  /// replays a verified-repeat chunk without decoding it (sequential
  /// backend only — other backends run as Off). Races are bit-identical
  /// in both modes.
  MemoMode Memo = MemoMode::Off;
};

/// Detector-side memoization counters (see docs/observability.md "memo").
struct PipelineMemoStats {
  uint64_t SummaryHits = 0;      ///< Chunks replayed from a summary.
  uint64_t SummaryRecords = 0;   ///< Summaries recorded (incl. re-records).
  uint64_t SummaryFallbacks = 0; ///< Version-mismatch fallbacks to interpret.
  uint64_t EventsReplayed = 0;   ///< Events covered by replays.
  uint64_t ChunksInterpreted = 0;///< Chunks run through the detector.
};

/// Streaming detector pipeline; batches are its only feed.
class StreamPipeline {
public:
  explicit StreamPipeline(PipelineOptions Opts = {});

  /// Representation for objects without an explicit bind(). Ignored by the
  /// FastTrack backend.
  void setDefaultProvider(const AccessPointProvider *Provider);
  void bind(ObjectId Obj, const AccessPointProvider *Provider);

  /// Invoked for every commutativity race once the batch that holds the
  /// offending event is processed. The record is dropped once the
  /// callback returns; copy it to keep it (records are self-contained,
  /// see Race.h). Without a callback races are only counted.
  void setRaceCallback(std::function<void(const CommutativityRace &)> Cb) {
    RaceCallback = std::move(Cb);
  }
  /// FastTrack counterpart of setRaceCallback.
  void setMemoryRaceCallback(std::function<void(const MemoryRace &)> Cb) {
    MemoryRaceCallback = std::move(Cb);
  }
  /// Atomicity counterpart of setRaceCallback.
  void setViolationCallback(
      std::function<void(const AtomicityViolation &)> Cb) {
    ViolationCallback = std::move(Cb);
  }

  /// Feeds a whole batch: the step run() repeats on each pulled batch,
  /// open to callers that cut their own batches. On return \p B is empty
  /// with warm buffers, so a caller can refill the same batch
  /// allocation-free.
  void processBatch(EventBatch &B);

  /// Pulls \p Source dry, then finish()es. Returns the summary. With
  /// PipelineOptions::Memo == Full, the sequential backend and a binary
  /// source, drives the memoized chunk loop (see pumpChunk()).
  StreamSummary run(EventSource &Source);

  /// Incremental counterpart of run(): pulls whatever \p Source can
  /// deliver right now and feeds it to the backend, returning when the
  /// source reports end of stream — which, for a resumable stream (a
  /// serve session's byte queue after WireReader::resume()), just means
  /// "no more complete input yet". Unlike run() this neither finish()es
  /// nor summarizes: callers pump again as input arrives and call
  /// finish() once the stream truly ends. The memo loop is chosen by the
  /// same rule as in run(). run() itself is
  /// pump-until-dry + finish(), so batch shapes and race callback timing
  /// are identical on both paths.
  void pump(EventSource &Source);

  /// Forwards the paper's §5.3 reclamation hook to the backend that keeps
  /// per-object state (sequential; FastTrack and atomicity key state by
  /// variable/transaction and ignore it). Serving sessions
  /// call this for client die notices so long-lived streams keep the
  /// detector footprint bounded. Races already found stay counted (their
  /// records went to the callback when they were reported).
  void objectDied(ObjectId Obj);

  /// Memoization counters (zero unless run() drove the Full memo loop).
  const PipelineMemoStats &memoStats() const { return MemoStats; }

  /// Resident bytes of the recycled pull batch's columns — the piece of
  /// pipeline footprint a serving session must budget alongside the
  /// decoder's memo store (EventBatch::memoryFootprint()).
  size_t batchFootprint() const { return PumpBatch.memoryFootprint(); }

  /// Hands any findings not yet passed to the callbacks over; call once
  /// the stream ends. Idempotent.
  void finish();

  size_t eventsProcessed() const { return Events; }
  StreamSummary summary() const;

  /// The sequential backend, or nullptr for other backends. Exposed so
  /// callers can read the batched-kernel timing and the detector counters
  /// directly. Its races() holds no record between batches: the pipeline
  /// drains it.
  const CommutativityRaceDetector *sequentialDetector() const {
    return Seq.get();
  }

  /// Emits the observability snapshot as a JSON document (schema:
  /// docs/observability.md). Valid on a quiesced pipeline — after run(),
  /// or finish() when batches were fed directly. Pass the \p Source the
  /// stream was pulled from to include decode-side counters (binary
  /// sources only).
  void writeMetricsJson(std::ostream &OS,
                        const EventSource *Source = nullptr) const;

private:
  /// Hands every undrained record to its callback, then drops it.
  void drainFindings();
  void tallyBatchKinds(const EventBatch &B);
  /// processBatch() without the drain and the final clear(): counts and
  /// detects.
  void detectBatch(const EventBatch &B);
  /// One step of the Full-memo chunk loop: replay a verified-repeat chunk
  /// whose summary footprint matches, decode + interpret + record
  /// otherwise. Returns false when the reader has no further chunk (end
  /// of stream).
  bool pumpChunk(WireReader &Reader);

  PipelineOptions Opts;
  ChunkMemoTable MemoTable;
  PipelineMemoStats MemoStats;
  std::unique_ptr<CommutativityRaceDetector> Seq;
  std::unique_ptr<FastTrackDetector> FT;
  std::unique_ptr<OnlineAtomicityChecker> Atom;
  std::function<void(const CommutativityRace &)> RaceCallback;
  std::function<void(const MemoryRace &)> MemoryRaceCallback;
  std::function<void(const AtomicityViolation &)> ViolationCallback;
  size_t Events = 0;
  size_t Violations = 0; ///< Drained atomicity violations.
  /// Recycled pull batch shared by pump()'s loops, kept as a member so a
  /// resumable stream's many short pump rounds stay allocation-free.
  EventBatch PumpBatch;
  /// Per-kind ingress counters (single writer: the feeding thread).
  /// Invoke + Sync + Mem + Tx == Events.
  uint64_t InvokeEvents = 0;
  uint64_t SyncEvents = 0;
  uint64_t MemEvents = 0;
  uint64_t TxEvents = 0;
};

} // namespace wire
} // namespace crd

#endif // CRD_WIRE_STREAMPIPELINE_H
