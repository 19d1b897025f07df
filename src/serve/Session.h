//===- serve/Session.h - One client's detection session ---------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One connection's worth of daemon state: the protocol state machine
/// (handshake → streaming → done), the inner wire framing that turns an
/// arbitrarily sliced byte stream back into whole chunks, and the
/// per-session decode + detection pipeline. Everything that used to be
/// one-trace-per-process — the WireReader with its memo payload store and
/// spill arenas, the StreamPipeline with its detector state and memo
/// table, the diagnostic engine — lives here, one instance per session, so
/// N sessions detect N traces with zero shared mutable state (the one
/// deliberate exception is the process-wide symbol table, which is
/// mutex-guarded, append-only and content-addressed: concurrent interning
/// can reorder ids but never change what a symbol spells, so it cannot
/// leak information across sessions).
///
/// Threading contract: the server's I/O thread calls the "I/O side"
/// methods; runWork() is called by pool workers, at most one at a time
/// per session (the server's scheduling flag guarantees it — detector
/// state itself is single-threaded and migrates between workers with the
/// queue's happens-before). The internal mutex only guards the thin
/// handoff buffers, never detection.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SERVE_SESSION_H
#define CRD_SERVE_SESSION_H

#include "serve/Protocol.h"
#include "support/Diagnostics.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

namespace crd {
namespace serve {

/// Per-session resource bounds (the daemon's limits table, docs/serve.md).
struct SessionLimits {
  /// Bound on buffered-but-unprocessed input bytes. Crossing it stops
  /// reading the socket (kernel flow control pushes back to the client).
  size_t MaxBufferedBytes = 8u << 20;
  /// Ceiling on the session's resident footprint (buffers + decode arenas
  /// + memo payload store); 0 = unlimited. A session that exceeds it is
  /// killed with an `error` line — client die notices ('D' frames) are
  /// the cooperative way to stay under it.
  size_t MaxSessionBytes = 0;
};

/// Point-in-time per-session counters for the status document.
struct SessionMetricsSnapshot {
  uint64_t Id = 0;
  const char *State = "handshake";
  const char *Backend = "";
  const char *Memo = "";
  uint64_t Events = 0;
  uint64_t Races = 0;         ///< Findings of whichever backend runs.
  uint64_t BytesIn = 0;       ///< Raw socket bytes accepted.
  uint64_t BufferedBytes = 0; ///< Input accepted but not yet detected.
  uint64_t FootprintBytes = 0;
  uint64_t ObjectsDied = 0;   ///< Die notices applied.
  uint64_t ActivePoints = 0;  ///< Live per-object detector state (seq).
  uint64_t PumpRounds = 0;
};

/// One pump round for the --chrome-trace timeline (one row per session).
struct SessionSpan {
  uint64_t SessionId = 0;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint64_t Events = 0; ///< Pipeline events after the round.
};

/// A growable FIFO byte window exposed as a streambuf, so the session can
/// append complete wire chunks on one side while the WireReader pulls an
/// istream on the other. Reads past the end report EOF (never block);
/// append() + WireReader::resume() continue the stream. Consumed bytes
/// are compacted away once they outweigh the live window.
class ByteQueueBuf final : public std::streambuf {
public:
  void append(const char *Data, size_t N) {
    maybeCompact();
    Bytes.append(Data, N);
  }
  size_t pending() const { return Bytes.size() - Read; }
  size_t capacityBytes() const { return Bytes.capacity(); }

protected:
  int underflow() override {
    return Read < Bytes.size() ? traits_type::to_int_type(Bytes[Read])
                               : traits_type::eof();
  }
  int uflow() override {
    return Read < Bytes.size() ? traits_type::to_int_type(Bytes[Read++])
                               : traits_type::eof();
  }
  std::streamsize xsgetn(char *S, std::streamsize N) override {
    size_t Take = std::min(static_cast<size_t>(N), pending());
    std::char_traits<char>::copy(S, Bytes.data() + Read, Take);
    Read += Take;
    return static_cast<std::streamsize>(Take);
  }
  std::streamsize showmanyc() override {
    return static_cast<std::streamsize>(pending());
  }

private:
  void maybeCompact() {
    if (Read > (1u << 16) && Read > Bytes.size() / 2) {
      Bytes.erase(0, Read);
      Read = 0;
    }
  }

  std::string Bytes;
  size_t Read = 0;
};

/// One connection's protocol + detection state. Created by the server on
/// accept; destroyed by the I/O thread once closable().
class Session : public std::enable_shared_from_this<Session> {
public:
  Session(uint64_t Id, const SessionLimits &Limits,
          const AccessPointProvider *Provider, bool TraceSpans);
  ~Session();

  uint64_t id() const { return Id; }

  //===--------------------------------------------------------------------===//
  // I/O-thread side.
  //===--------------------------------------------------------------------===//

  /// Appends raw socket bytes; returns true when the session now has work
  /// for a pool worker.
  bool enqueueInput(const char *Data, size_t N);

  /// Peer half-closed (or closed) its write side: end of trace once the
  /// buffered input is processed.
  bool noteEof();

  /// Server drain (SIGTERM): finish what is buffered, then summarize —
  /// same path as a client 'E', so drained sessions still get their
  /// complete race report.
  bool requestDrain() { return noteEof(); }

  /// Kill paths that bypass the worker: idle timeout, server overload.
  /// Emits an `error` line and marks the session done.
  void killWithError(std::string_view Reason);

  /// Moves out whatever reply bytes are ready for the socket.
  std::string takeOutput();
  bool hasOutput() const;

  /// Finished (summary or error emitted). The connection closes once the
  /// remaining output flushes.
  bool done() const;

  /// Done, every reply byte taken, and no worker holds the session: the
  /// server may close the connection and drop the session.
  bool closable() const;

  /// True while the input backlog is over the cap, i.e. the server must
  /// stop polling this connection for reads.
  bool readPaused() const;

  /// True once a `status` handshake arrived: the server (owner of the
  /// session table) writes the document and closes.
  bool statusRequested() const;

  /// The server's reply to a status request: queues the document and
  /// marks the session done (the connection closes once it flushes).
  void deliverStatus(std::string Doc);

  /// nowNs() of the last input/progress, for idle-timeout sweeps.
  uint64_t lastActivityNs() const;

  SessionMetricsSnapshot metricsSnapshot() const;

  /// Drains the recorded chrome-trace spans (TraceSpans sessions only).
  std::vector<SessionSpan> takeSpans();

  /// Scheduling handshake with the server's work queue: claimWork() marks
  /// the session queued and returns false if it already was.
  /// releaseWork(), called by the worker after a round, keeps the claim
  /// and returns true when more input arrived meanwhile (the caller
  /// requeues), and un-marks the session otherwise. Guarded by the
  /// session mutex so an I/O-thread enqueue racing a worker finish never
  /// strands input.
  bool claimWork();
  bool releaseWork();

  //===--------------------------------------------------------------------===//
  // Worker side (one worker at a time).
  //===--------------------------------------------------------------------===//

  /// Processes everything buffered: handshake, envelope frames, chunk
  /// reassembly, pipeline pump, reply emission.
  void runWork();

private:
  enum class State { Handshake, Streaming, Done };

  // All called on the worker, lock-free (fields only the worker touches).
  void processPending();
  bool handleHandshake();
  bool handleFrame(FrameType T, std::string_view Body);
  bool splitWireBytes(std::string_view Data);
  void pumpPipeline();
  void finishTrace();
  void failSession(std::string_view Reason);
  void emitLine(std::string_view Line);
  /// Renders \p R straight into the reusable reply line: one `race` line.
  template <typename RaceT> void emitRaceLine(const RaceT &R);
  void emitViolationLine(const AtomicityViolation &V);
  void emitSummary();
  size_t footprintBytes() const;
  bool overFootprintCeiling();

  const uint64_t Id;
  const SessionLimits Limits;
  const AccessPointProvider *const Provider;
  const bool TraceSpans;

  /// Handoff state (guarded by Mu): raw socket bytes in, reply bytes out,
  /// EOF/done/scheduled flags, counters the I/O thread snapshots.
  mutable std::mutex Mu;
  std::string RawIn;
  std::string OutBuf;
  bool EofSeen = false;
  bool EofHandled = false;
  bool DoneFlag = false;
  bool FailedFlag = false;
  bool StatusFlag = false;
  bool Scheduled = false;
  uint64_t BytesIn = 0;
  uint64_t LastActivityNs = 0;
  uint64_t WorkerBufferedBytes = 0; ///< Pending+WireBuf+Queue, post-round.
  SessionMetricsSnapshot Snapshot;  ///< Re-published after every round.
  std::vector<SessionSpan> Spans;

  /// Worker-only protocol state.
  State St = State::Handshake;
  std::string Pending;  ///< Raw bytes not yet framed (handshake + frames).
  std::string WireBuf;  ///< 'W' bodies not yet split into whole chunks.
  bool SawFileHeader = false;
  uint8_t WireFlags = 0;
  uint64_t ObjectsDied = 0;
  uint64_t PumpRounds = 0;
  uint64_t RaceLines = 0;
  uint64_t ViolationLines = 0;
  std::string RaceLine; ///< emitRaceLine()'s buffer, warm across races.

  /// Worker-only detection state, constructed at handshake (pipeline) and
  /// at first whole file header (reader/source).
  Handshake Config;
  DiagnosticEngine Diags;
  ByteQueueBuf Queue;
  std::istream QueueStream;
  std::unique_ptr<wire::StreamPipeline> Pipeline;
  std::unique_ptr<wire::BinaryStreamSource> Source;
};

} // namespace serve
} // namespace crd

#endif // CRD_SERVE_SESSION_H
