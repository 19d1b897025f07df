//===- wire/EventSource.h - Pull-based event streams ------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ingestion half of the streaming pipeline: an EventSource yields the
/// events of one execution in trace order, regardless of where the
/// execution comes from — a binary wire file (WireReader), a textual trace
/// file (line-by-line parse), or an already-materialized Trace.
/// openEventSource() sniffs the file magic so every tool accepts both
/// on-disk formats transparently. StreamPipeline pulls whole batches; the
/// offline verbs that walk a trace event by event (convert, stats,
/// analyze) call next().
///
/// Lifetime: the binary source decodes a batch at a time, and an invoke
/// event's values live in the arena of the batch that holds it. next()
/// hands out the events of the source's own batch, so an event it returns
/// is valid until the next next() call; consumers that retain one longer
/// copy it (Action's copy constructor detaches from the arena).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_WIRE_EVENTSOURCE_H
#define CRD_WIRE_EVENTSOURCE_H

#include "support/Diagnostics.h"
#include "trace/Trace.h"
#include "wire/WireReader.h"

#include <fstream>
#include <memory>
#include <string>

namespace crd {
namespace wire {

/// Yields the events of one execution in trace order.
class EventSource {
public:
  virtual ~EventSource();

  /// Produces the next event. Returns false at end of stream or on a
  /// diagnosed input error (check failed()).
  virtual bool next(Event &E) = 0;

  /// Batch pull: appends up to \p MaxEvents events to \p B and returns how
  /// many were appended (0 at end of stream / on error). The batch owns
  /// every payload (B pins invoke values into its own arena) and carries
  /// the kind array the batched detection kernel scans. The default pulls
  /// next() one event at a time; the binary source overrides this with the
  /// decoder's batch loop.
  virtual size_t nextBatch(EventBatch &B, size_t MaxEvents) {
    Event E = Event::txBegin(ThreadId(0)); // Overwritten by next().
    size_t N = 0;
    while (N != MaxEvents && next(E)) {
      B.append(E);
      ++N;
    }
    return N;
  }

  /// True once the underlying input was diagnosed as malformed.
  virtual bool failed() const { return false; }

  /// The binary decoder behind this source, when there is one — lets the
  /// observability snapshot report decode counters without knowing how
  /// many wrappers deep the WireReader sits. Wrapper sources forward.
  virtual const WireReader *wireReader() const { return nullptr; }

  /// Mutable access to the binary decoder for the chunk-memo loop
  /// (beginChunk/skipChunk) and resume(). Null for sources with no wire
  /// reader — --memo=full then degrades to plain streaming.
  virtual WireReader *memoReader() { return nullptr; }
};

/// Streams an in-memory Trace (e.g. a TraceRecorder capture).
class TraceSource : public EventSource {
public:
  explicit TraceSource(const Trace &T) : T(T) {}

  bool next(Event &E) override {
    if (Pos == T.size())
      return false;
    E = T[Pos++];
    return true;
  }

private:
  const Trace &T;
  size_t Pos = 0;
};

/// Streams a textual trace line-by-line; no whole-file buffer, no Trace.
class TextStreamSource : public EventSource {
public:
  TextStreamSource(std::istream &In, DiagnosticEngine &Diags)
      : In(In), Diags(Diags) {}

  bool next(Event &E) override;
  bool failed() const override { return Failed; }

private:
  std::istream &In;
  DiagnosticEngine &Diags;
  std::string Line;
  uint32_t LineNo = 0;
  bool Failed = false;
};

/// Events per batch that StreamPipeline and BinaryStreamSource::next()
/// pull from a source.
inline constexpr size_t PullBatchEvents = 4096;

/// Streams a binary wire trace. Batches come straight from the decoder's
/// one loop; next() hands out the events of a batch of its own, refilled
/// through the same loop. Pull a source either way, not both: nextBatch()
/// does not see events that next() has buffered.
class BinaryStreamSource : public EventSource {
public:
  BinaryStreamSource(std::istream &In, DiagnosticEngine &Diags)
      : Reader(In, Diags) {}

  bool next(Event &E) override;
  size_t nextBatch(EventBatch &B, size_t MaxEvents) override {
    return Reader.nextBatch(B, MaxEvents);
  }
  bool failed() const override { return Reader.failed(); }
  const WireReader *wireReader() const override { return &Reader; }
  WireReader *memoReader() override { return &Reader; }

  const WireReader &reader() const { return Reader; }

private:
  WireReader Reader;
  EventBatch Buffered; ///< next()'s batch.
  size_t Handed = 0;   ///< Events of Buffered that next() returned.
};

/// Opens \p Path and returns the matching source: binary when the file
/// starts with the wire magic, textual otherwise. Returns nullptr (with a
/// diagnostic) when the file cannot be opened.
std::unique_ptr<EventSource> openEventSource(const std::string &Path,
                                             DiagnosticEngine &Diags);

/// True when \p Path starts with the binary wire magic.
bool isWireFile(const std::string &Path);

} // namespace wire
} // namespace crd

#endif // CRD_WIRE_EVENTSOURCE_H
