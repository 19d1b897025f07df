//===- wire/WireReader.h - Streaming binary trace reader --------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming decoder for the chunked binary trace format (WireFormat.h).
/// The reader holds one chunk payload in memory at a time (plus, once the
/// chunk API is in use, one stored payload per distinct digest) and
/// decodes events on demand — a whole-file Trace is never materialized.
/// Every structural problem (bad magic/version, truncated chunk, CRC
/// mismatch, malformed varint, dangling symbol reference, ...) is reported
/// as a diagnostic with the file offset, never as a crash: the reader is
/// the wire-fuzz target and must survive arbitrary bytes.
///
/// Events come out in batches, from one decode loop (nextBatch()) that
/// writes each event straight into the batch's columns (EventBatch.h): no
/// Event is built and no value is staged. The lifetime rule is the
/// batch's: the batch owns the decoded values, so it may span chunks, and
/// an Action read back from it views its value column until the batch is
/// cleared. Consumers that keep an event longer copy it — Action's copy
/// constructor deep-copies the values out. A recycled batch keeps its
/// column capacity, so in the steady state decoding allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_WIRE_WIREREADER_H
#define CRD_WIRE_WIREREADER_H

#include "support/Diagnostics.h"
#include "trace/Event.h"
#include "trace/EventBatch.h"
#include "wire/WireFormat.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace crd {
namespace wire {

/// Decode-side observability counters (docs/observability.md). Events and
/// Chunks mirror eventsRead()/chunksRead(). CrcErrors and DigestErrors are
/// at most 1 per reader — the reader fails hard on the first mismatch of
/// either kind.
struct WireReaderStats {
  uint64_t Chunks = 0;
  uint64_t Events = 0;
  uint64_t CrcErrors = 0;
  uint64_t DigestErrors = 0;     ///< Chunk-header digest mismatches.
  uint64_t PayloadBytes = 0;     ///< Chunk payload bytes read (ex-headers).
  uint64_t Symbols = 0;          ///< Symbol-table entries across all chunks.
  uint64_t ArenaPeakBytes = 0;   ///< Peak bytes in a pulled batch's value
                                 ///< column.
  uint64_t MemoHits = 0;         ///< beginChunk(): verified repeats.
  uint64_t MemoMisses = 0;       ///< beginChunk(): all other chunks.
  uint64_t MemoBytesSaved = 0;   ///< Payload bytes skipped undecoded.
  uint64_t MemoCacheEntries = 0; ///< Payloads in the memo store.
  uint64_t MemoCacheBytes = 0;   ///< Payload bytes in the memo store.
};

/// Whether the pipeline memoizes repeated chunks. Off = decode every
/// chunk; Full = StreamPipeline drives the reader's chunk API and replays
/// a verified-repeat, sync-free chunk's race effects from a detector
/// summary without decoding its events (sequential backend only).
enum class MemoMode { Off, Full };

/// Pull-based decoder over a binary trace stream.
class WireReader {
public:
  /// Reads and validates the file header immediately; on failure the
  /// reader starts out failed and nextBatch() returns 0.
  WireReader(std::istream &In, DiagnosticEngine &Diags);

  /// Batch decode: appends up to \p MaxEvents events to \p B's columns,
  /// crossing chunk boundaries as needed, and returns how many were
  /// appended (0 at end of stream or on the first structural error; check
  /// failed() to tell them apart). A failed pull appends only the whole
  /// events before the error. Invoke values land in B.Values, so the
  /// batch is self-contained — it survives chunk turnover.
  size_t nextBatch(EventBatch &B, size_t MaxEvents);

  /// True once a structural error has been diagnosed; the stream position
  /// is then unspecified and nextBatch() keeps returning 0.
  bool failed() const { return Failed; }

  /// Serving path: tells the reader the underlying stream has grown since
  /// nextBatch()/beginChunk() last reported end of stream. End of
  /// stream is non-destructive when it falls on a chunk boundary (the
  /// reader probes for it before the first header byte), so resume()
  /// clears the stream's eof state and the next pull retries the
  /// chunk-header read where decoding stopped. The feeder must only ever
  /// expose whole chunks to the stream — EOF inside a chunk header or
  /// payload is diagnosed as truncation and is permanent. No-op after a
  /// structural failure.
  void resume();

  size_t eventsRead() const { return NumEvents; }
  size_t chunksRead() const { return NumChunks; }

  //===--------------------------------------------------------------------===//
  // Chunk memoization (docs/trace-format.md, docs/observability.md).
  //
  // The chunk API shows the caller each chunk before any of its events is
  // decoded. beginChunk() loads and validates the next chunk exactly as
  // nextBatch() would, then checks its payload against a digest-keyed store:
  // a chunk byte-identical to the payload stored under its digest is a
  // verified repeat (the full-payload compare makes 64-bit digest
  // collisions harmless); any other chunk's payload is stored. The store
  // never evicts (insertion stops at a byte cap), so a digest maps to one
  // payload for the reader's lifetime — the invariant the detector's
  // summary table builds on.
  //===--------------------------------------------------------------------===//

  /// What beginChunk() reveals about the open chunk before any event is
  /// handed out — enough for a caller to decide replay-vs-interpret.
  struct ChunkView {
    uint64_t Digest = 0;    ///< Content digest (header-carried).
    bool HasDigest = false; ///< False for legacy digest-less chunks.
    /// The payload is byte-identical to the stored payload under Digest —
    /// i.e. this exact chunk was read before by this reader. Only a
    /// verified repeat is safe to key detector summaries by.
    bool VerifiedRepeat = false;
    size_t Events = 0;      ///< Events in the chunk.
  };

  /// Opens the next non-empty chunk and describes it. Repeated calls
  /// without consuming return the same view. Returns nullopt at end of
  /// stream or on a structural error.
  std::optional<ChunkView> beginChunk();

  /// Drops the open chunk's remaining events undecoded: the caller
  /// replayed their effect from a summary of a verified repeat.
  void skipChunk();

  /// Decodes the open chunk's remaining events into \p B (see nextBatch())
  /// and returns how many were appended.
  size_t finishChunkInto(EventBatch &B) {
    return nextBatch(B, static_cast<size_t>(EventsLeft));
  }

  /// Metrics snapshot; valid any time, complete once decoding finished.
  WireReaderStats stats() const {
    WireReaderStats S;
    S.Chunks = NumChunks;
    S.Events = NumEvents;
    S.CrcErrors = CrcErrors;
    S.DigestErrors = DigestErrors;
    S.PayloadBytes = PayloadBytes;
    S.Symbols = SymbolCount;
    S.ArenaPeakBytes = ArenaPeak;
    S.MemoHits = MemoHits;
    S.MemoMisses = MemoMisses;
    S.MemoBytesSaved = MemoBytesSaved;
    S.MemoCacheEntries = Store.size();
    S.MemoCacheBytes = StoreBytes;
    return S;
  }

private:
  bool loadChunk();
  /// Decodes the event at Pos into \p B's columns. On a structural error
  /// it diagnoses, leaves \p B as it was and returns false.
  bool decodeInto(EventBatch &B);
  void fail(std::string Message);

  std::istream &In;
  DiagnosticEngine &Diags;
  std::string Payload;       ///< Current chunk payload.
  size_t Pos = 0;            ///< Decode offset within Payload.
  size_t ChunkBase = 0;      ///< File offset of the current payload.
  size_t FileOffset = 0;     ///< File offset past everything consumed.
  uint64_t EventsLeft = 0;   ///< Undecoded events in the current chunk.
  std::vector<Symbol> Syms;  ///< Current chunk's symbol table.
  uint32_t PrevThread = 0;   ///< Thread delta predictor (resets per chunk).
  uint32_t PrevObject = 0;   ///< Object delta predictor (resets per chunk).
  uint8_t Flags = 0;         ///< File-header flags (digest layout bit).
  ChunkView Open;            ///< Current chunk (beginChunk() marks repeats).
  size_t NumEvents = 0;
  size_t NumChunks = 0;
  bool Failed = false;
  /// Observability counters (single writer).
  uint64_t CrcErrors = 0;
  uint64_t DigestErrors = 0;
  uint64_t PayloadBytes = 0;
  uint64_t SymbolCount = 0;
  uint64_t ArenaPeak = 0;

  /// beginChunk()'s payload store: digest -> the first payload seen
  /// under it. Insert-only; insertion stops once StoreBytes crosses
  /// MemoStoreMaxBytes.
  static constexpr size_t MemoStoreMaxBytes = size_t(256) << 20;
  std::unordered_map<uint64_t, std::string> Store;
  size_t StoreBytes = 0;
  /// Memo counters.
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  uint64_t MemoBytesSaved = 0;
};

/// Shape report of one chunk, as produced by scanWire (the `crd stats`
/// backend): sizes and entry counts, no event decoding.
struct WireChunkInfo {
  size_t Offset = 0;       ///< File offset of the chunk header.
  size_t PayloadBytes = 0; ///< Payload size (excluding the header).
  size_t Events = 0;
  size_t Symbols = 0;
  size_t SymbolBytes = 0;  ///< Bytes of the symbol table section.
  /// Content digest over the chunk's event bytes. Read from the header
  /// when the file carries digests (and verified), computed by the scan
  /// for legacy files — so repetition statistics work on any wire file.
  uint64_t Digest = 0;
  bool DigestInHeader = false;
};

/// Whole-file shape summary.
struct WireFileInfo {
  std::vector<WireChunkInfo> Chunks;
  size_t TotalBytes = 0; ///< File header + all chunk headers + payloads.
  size_t TotalEvents = 0;

  double bytesPerEvent() const {
    return TotalEvents ? static_cast<double>(TotalBytes) /
                             static_cast<double>(TotalEvents)
                       : 0.0;
  }
};

/// Scans \p In chunk-by-chunk, validating headers and CRCs but decoding
/// only the per-chunk prologues. Returns nullopt after diagnosing a
/// structural error.
std::optional<WireFileInfo> scanWire(std::istream &In,
                                     DiagnosticEngine &Diags);

} // namespace wire
} // namespace crd

#endif // CRD_WIRE_WIREREADER_H
