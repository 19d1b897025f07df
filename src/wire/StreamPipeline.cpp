//===- wire/StreamPipeline.cpp - Streaming detection pipeline ----------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "wire/StreamPipeline.h"

#include "support/Metrics.h"

#include <algorithm>
#include <ostream>

using namespace crd;
using namespace crd::wire;

namespace {

const char *backendName(Backend B) {
  switch (B) {
  case Backend::Sequential:
    return "sequential";
  case Backend::FastTrack:
    return "fasttrack";
  case Backend::Atomicity:
    return "atomicity";
  }
  return "unknown";
}

const char *memoModeName(MemoMode M) {
  switch (M) {
  case MemoMode::Off:
    return "off";
  case MemoMode::Full:
    return "full";
  }
  return "unknown";
}

void writeEngineStats(metrics::JsonWriter &W, const Algorithm1Stats &S) {
  W.field("actions", S.Actions);
  W.field("conflict_checks", S.ConflictChecks);
  W.field("object_cache_hits", S.ObjectCacheHits);
  W.field("object_cache_misses", S.ObjectCacheMisses);
  W.field("activations", S.Activations);
  W.field("active_points", S.ActivePoints);
  W.field("kernel_events", S.KernelEvents);
}

} // namespace

StreamPipeline::StreamPipeline(PipelineOptions Opts) : Opts(Opts) {
  switch (Opts.TheBackend) {
  case Backend::Sequential:
    Seq = std::make_unique<CommutativityRaceDetector>();
    break;
  case Backend::FastTrack:
    FT = std::make_unique<FastTrackDetector>();
    break;
  case Backend::Atomicity:
    Atom = std::make_unique<OnlineAtomicityChecker>();
    break;
  }
}

void StreamPipeline::setDefaultProvider(const AccessPointProvider *Provider) {
  if (Seq)
    Seq->setDefaultProvider(Provider);
  if (Atom)
    Atom->setDefaultProvider(Provider);
}

void StreamPipeline::bind(ObjectId Obj, const AccessPointProvider *Provider) {
  if (Seq)
    Seq->bind(Obj, Provider);
  if (Atom)
    Atom->bind(Obj, Provider);
}

void StreamPipeline::drainFindings() {
  if (Seq)
    Seq->drainRaces([this](const CommutativityRace &R) {
      if (RaceCallback)
        RaceCallback(R);
    });
  if (FT)
    FT->drainRaces([this](const MemoryRace &R) {
      if (MemoryRaceCallback)
        MemoryRaceCallback(R);
    });
  if (Atom)
    Atom->drainViolations([this](const AtomicityViolation &V) {
      ++Violations;
      if (ViolationCallback)
        ViolationCallback(V);
    });
}

void StreamPipeline::tallyBatchKinds(const EventBatch &B) {
  // Ingress kind tally from the batch's kind bytes — one pass over a
  // dense byte array instead of a per-event switch.
  uint64_t Tally[4] = {0, 0, 0, 0};
  for (uint8_t K : B.Kinds) {
    unsigned Bucket =
        K < SyncKindBound
            ? 1u
            : (K == static_cast<uint8_t>(EventKind::Invoke)
                   ? 0u
                   : (K <= static_cast<uint8_t>(EventKind::Write) ? 2u : 3u));
    ++Tally[Bucket];
  }
  InvokeEvents += Tally[0];
  SyncEvents += Tally[1];
  MemEvents += Tally[2];
  TxEvents += Tally[3];
}

void StreamPipeline::processBatch(EventBatch &B) {
  detectBatch(B);
  drainFindings();
  B.clear();
}

void StreamPipeline::detectBatch(const EventBatch &B) {
  if (B.empty())
    return;
  Events += B.size();
  tallyBatchKinds(B);
  if (Seq) {
    // Whole batch through the sequential detector's batched kernel; races
    // surface (and hit the callback) after the batch.
    Seq->processBatch(B);
  } else {
    EventBatch::Cursor Events(B);
    Event E;
    while (Events.next(E)) {
      if (FT)
        FT->process(E);
      else
        Atom->process(E);
    }
  }
}

void StreamPipeline::finish() { drainFindings(); }

bool StreamPipeline::pumpChunk(WireReader &Reader) {
  // Chunk-at-a-time: verified-repeat chunks consult the summary table
  // before any of their events is decoded.
  std::optional<WireReader::ChunkView> View = Reader.beginChunk();
  if (!View)
    return false;
  if (View->VerifiedRepeat) {
    if (const ChunkSummary *S = MemoTable.find(View->Digest)) {
      if (S->Memoizable && Seq->tryReplayChunk(*S)) {
        Reader.skipChunk();
        ++MemoStats.SummaryHits;
        MemoStats.EventsReplayed += S->Events;
        Events += S->Events;
        InvokeEvents += S->Invokes;
        MemEvents += S->MemEvents;
        TxEvents += S->TxEvents;
        drainFindings();
        return true;
      }
      if (S->Memoizable)
        ++MemoStats.SummaryFallbacks; // Entry-state footprint moved on.
    }
  }
  EventBatch &B = PumpBatch;
  B.clear();
  if (Reader.finishChunkInto(B) == 0)
    return true;
  CommutativityRaceDetector::MemoRecordToken Token = Seq->beginMemoRecord();
  detectBatch(B);
  ++MemoStats.ChunksInterpreted;
  // Record (or re-record after a fallback) only for verified repeats:
  // a summary keyed by digest alone could be poisoned by a collision.
  // Sync-bearing chunks become sticky negative entries (never
  // memoizable); a sync-free chunk that merely mutated state this time
  // is retried on its next occurrence — repeated payloads often reach a
  // detector fixed point after a warm-up pass. The summary copies the
  // chunk's records, so the drain comes after it.
  if (View->VerifiedRepeat) {
    const ChunkSummary *Existing = MemoTable.find(View->Digest);
    if (!Existing || Existing->Memoizable) {
      ChunkSummary &S = MemoTable.insert(View->Digest);
      if (Seq->finishMemoRecord(Token, B, 0, B.size(), S))
        ++MemoStats.SummaryRecords;
      else if (std::none_of(B.Kinds.begin(), B.Kinds.end(),
                            [](uint8_t K) { return K < SyncKindBound; }))
        MemoTable.erase(View->Digest);
    }
  }
  drainFindings();
  return true;
}

void StreamPipeline::pump(EventSource &Source) {
  // Batches hold up to PullBatchEvents events (a chunk, on the memo loop):
  // size the per-event columns once instead of growing them step by step.
  PumpBatch.reserve(PullBatchEvents);
  // The summary loop needs the sequential detector (chunk replay needs
  // exclusive, in-order access to the full detector state) and a wire
  // source; every other combination takes the batched pull.
  if (WireReader *Reader =
          Opts.Memo == MemoMode::Full && Seq ? Source.memoReader() : nullptr) {
    while (pumpChunk(*Reader)) {
    }
    return;
  }
  // Batched pull: whole event batches flow from the source into
  // processBatch() — for the sequential backend, the detector's kinded
  // kernel (one kind scan per batch, runs through its batched
  // loop) — with the batch recycled each round so
  // the loop is allocation-free in the steady state. Finding callbacks
  // fire after each batch.
  while (Source.nextBatch(PumpBatch, PullBatchEvents))
    processBatch(PumpBatch);
}

void StreamPipeline::objectDied(ObjectId Obj) {
  if (Seq)
    Seq->objectDied(Obj);
}

StreamSummary StreamPipeline::run(EventSource &Source) {
  pump(Source);
  finish();
  return summary();
}

StreamSummary StreamPipeline::summary() const {
  StreamSummary S;
  S.Events = Events;
  if (Seq) {
    S.Races = Seq->raceCount();
    S.DistinctRacyObjects = Seq->distinctRacyObjects();
  }
  if (FT) {
    S.MemoryRaces = FT->raceCount();
    S.DistinctRacyVars = FT->distinctRacyVars();
  }
  S.Violations = Violations;
  return S;
}

void StreamPipeline::writeMetricsJson(std::ostream &OS,
                                      const EventSource *Source) const {
  metrics::JsonWriter W(OS);
  W.beginObject();
  W.field("backend", backendName(Opts.TheBackend));
  W.field("events", static_cast<uint64_t>(Events));

  W.key("events_by_kind");
  W.beginObject();
  W.field("invoke", InvokeEvents);
  W.field("sync", SyncEvents);
  W.field("mem", MemEvents);
  W.field("tx", TxEvents);
  W.endObject();

  StreamSummary Sum = summary();
  W.key("summary");
  W.beginObject();
  W.field("races", static_cast<uint64_t>(Sum.Races));
  W.field("distinct_racy_objects",
          static_cast<uint64_t>(Sum.DistinctRacyObjects));
  W.field("memory_races", static_cast<uint64_t>(Sum.MemoryRaces));
  W.field("distinct_racy_vars", static_cast<uint64_t>(Sum.DistinctRacyVars));
  W.field("violations", static_cast<uint64_t>(Sum.Violations));
  W.endObject();

  W.key("memo");
  W.beginObject();
  W.field("mode", memoModeName(Opts.Memo));
  W.field("summary_hits", MemoStats.SummaryHits);
  W.field("summary_records", MemoStats.SummaryRecords);
  W.field("summary_fallbacks", MemoStats.SummaryFallbacks);
  W.field("events_replayed", MemoStats.EventsReplayed);
  W.field("chunks_interpreted", MemoStats.ChunksInterpreted);
  W.field("summary_entries", static_cast<uint64_t>(MemoTable.size()));
  W.endObject();

  if (const WireReader *Reader = Source ? Source->wireReader() : nullptr) {
    WireReaderStats RS = Reader->stats();
    W.key("source");
    W.beginObject();
    W.field("chunks", RS.Chunks);
    W.field("events", RS.Events);
    W.field("crc_errors", RS.CrcErrors);
    W.field("digest_errors", RS.DigestErrors);
    W.field("payload_bytes", RS.PayloadBytes);
    W.field("symbols", RS.Symbols);
    W.field("arena_peak_bytes", RS.ArenaPeakBytes);
    W.field("memo_hits", RS.MemoHits);
    W.field("memo_misses", RS.MemoMisses);
    W.field("memo_bytes_saved", RS.MemoBytesSaved);
    W.field("memo_cache_entries", RS.MemoCacheEntries);
    W.field("memo_cache_bytes", RS.MemoCacheBytes);
    W.endObject();
  }

  W.key("detector");
  W.beginObject();
  W.field("kind", backendName(Opts.TheBackend));
  if (Seq) {
    writeEngineStats(W, Seq->engineStats());
    W.field("kernel_ns", Seq->kernelNs());
  }
  if (FT) {
    FastTrackStats FS = FT->stats();
    W.field("reads", FS.Reads);
    W.field("writes", FS.Writes);
    W.field("table_probes", FS.TableProbes);
    W.field("same_epoch_hits", FS.SameEpochHits);
  }
  // The atomicity backend has no counters beyond the summary yet.
  W.endObject();

  W.endObject();
  OS << '\n';
}
