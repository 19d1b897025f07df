//===- serve/Session.cpp - One client's detection session --------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Session.h"

#include "support/Metrics.h"
#include "support/TextRender.h"
#include "wire/WireFormat.h"

#include <algorithm>
#include <sstream>

using namespace crd;
using namespace crd::serve;

namespace {

/// Diagnostics arrive multi-line ("error: ...\n"); reply lines must stay
/// single-line JSON, so collapse to the first line without the severity
/// prefix the client would just re-add.
std::string firstDiagnosticLine(const DiagnosticEngine &Diags) {
  std::string Text = Diags.toString();
  size_t End = Text.find('\n');
  if (End != std::string::npos)
    Text.resize(End);
  if (Text.rfind("error: ", 0) == 0)
    Text.erase(0, 7);
  return Text;
}

} // namespace

Session::Session(uint64_t Id, const SessionLimits &Limits,
                 const AccessPointProvider *Provider, bool TraceSpans)
    : Id(Id), Limits(Limits), Provider(Provider), TraceSpans(TraceSpans),
      QueueStream(&Queue) {
  LastActivityNs = monotonicNs();
  Snapshot.Id = Id;
}

Session::~Session() = default;

bool Session::enqueueInput(const char *Data, size_t N) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (DoneFlag)
    return false;
  RawIn.append(Data, N);
  BytesIn += N;
  LastActivityNs = monotonicNs();
  return true;
}

bool Session::noteEof() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (DoneFlag || EofSeen)
    return false;
  EofSeen = true;
  LastActivityNs = monotonicNs();
  return true;
}

void Session::killWithError(std::string_view Reason) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (DoneFlag)
    return;
  std::string Line = "{\"type\":\"error\",\"session\":";
  Line += std::to_string(Id);
  Line += ",\"reason\":\"";
  appendJsonEscaped(Line, Reason);
  Line += "\"}\n";
  OutBuf += Line;
  DoneFlag = true;
}

std::string Session::takeOutput() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = std::move(OutBuf);
  OutBuf.clear();
  return Out;
}

bool Session::hasOutput() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return !OutBuf.empty();
}

bool Session::done() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return DoneFlag;
}

bool Session::readPaused() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return RawIn.size() + WorkerBufferedBytes > Limits.MaxBufferedBytes;
}

bool Session::statusRequested() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return StatusFlag && !DoneFlag;
}

uint64_t Session::lastActivityNs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return LastActivityNs;
}

SessionMetricsSnapshot Session::metricsSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  SessionMetricsSnapshot S = Snapshot;
  S.BytesIn = BytesIn;
  S.BufferedBytes = RawIn.size() + WorkerBufferedBytes;
  if (FailedFlag)
    S.State = "failed";
  else if (DoneFlag)
    S.State = "done";
  return S;
}

std::vector<SessionSpan> Session::takeSpans() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<SessionSpan> Out = std::move(Spans);
  Spans.clear();
  return Out;
}

bool Session::claimWork() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Scheduled)
    return false;
  Scheduled = true;
  return true;
}

bool Session::releaseWork() {
  std::lock_guard<std::mutex> Lock(Mu);
  Scheduled = false;
  // Requeue when input (or an EOF the worker's snapshot missed) arrived
  // while the round was running.
  return !DoneFlag && (!RawIn.empty() || (EofSeen && !EofHandled));
}

void Session::deliverStatus(std::string Doc) {
  std::lock_guard<std::mutex> Lock(Mu);
  StatusFlag = false;
  if (DoneFlag)
    return;
  OutBuf += Doc;
  DoneFlag = true;
}

void Session::emitLine(std::string_view Line) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (DoneFlag)
    return; // Killed from the I/O side; the error line already went out.
  OutBuf += Line;
  OutBuf += '\n';
}

template <typename RaceT> void Session::emitRaceLine(const RaceT &R) {
  RaceLine.assign("{\"type\":\"race\",\"index\":");
  RaceLine += std::to_string(RaceLines++);
  RaceLine += ",\"text\":\"";
  size_t Text = RaceLine.size();
  text::append(RaceLine, R);
  escapeJsonFrom(RaceLine, Text);
  RaceLine += "\"}";
  emitLine(RaceLine);
}

void Session::failSession(std::string_view Reason) {
  if (St == State::Done)
    return;
  std::string Line = "{\"type\":\"error\",\"session\":";
  Line += std::to_string(Id);
  Line += ",\"reason\":\"";
  appendJsonEscaped(Line, Reason);
  Line += "\"}";
  emitLine(std::move(Line));
  St = State::Done;
  std::lock_guard<std::mutex> Lock(Mu);
  DoneFlag = true;
  FailedFlag = true;
}

void Session::runWork() {
  bool Eof;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Pending += RawIn;
    RawIn.clear();
    Eof = EofSeen;
  }
  processPending();
  bool StatusPending;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    StatusPending = StatusFlag;
  }
  // A status session stays in Handshake state while it waits for the I/O
  // thread to write the document; EOF from the client is expected there
  // (it has nothing more to say), not a truncated handshake.
  if (Eof && St != State::Done && !StatusPending) {
    if (St == State::Handshake)
      failSession("connection closed before a complete handshake line");
    else if (!Pending.empty())
      failSession("connection closed inside an envelope frame");
    else
      finishTrace();
  }

  // Publish the round's snapshot for the I/O thread's status document and
  // backpressure checks.
  SessionMetricsSnapshot S;
  S.Id = Id;
  S.State = St == State::Handshake ? "handshake"
            : St == State::Streaming ? "streaming"
                                     : "done";
  if (Pipeline) {
    S.Backend = backendToken(Config.TheBackend);
    S.Memo = memoToken(Config.Memo);
    S.Events = Pipeline->eventsProcessed();
    wire::StreamSummary Sum = Pipeline->summary();
    S.Races = Sum.Races + Sum.MemoryRaces + Sum.Violations;
    if (const CommutativityRaceDetector *Seq = Pipeline->sequentialDetector())
      S.ActivePoints = Seq->activePointCount();
  }
  S.FootprintBytes = footprintBytes();
  S.ObjectsDied = ObjectsDied;
  S.PumpRounds = PumpRounds;
  std::lock_guard<std::mutex> Lock(Mu);
  Snapshot = S;
  if (FailedFlag)
    Snapshot.State = "failed";
  else if (DoneFlag)
    Snapshot.State = "done";
  else if (StatusFlag)
    Snapshot.State = "status";
  if (Eof)
    EofHandled = true;
  WorkerBufferedBytes = Pending.size() + WireBuf.size() + Queue.pending();
  LastActivityNs = monotonicNs();
}

void Session::processPending() {
  if (St == State::Handshake && !handleHandshake())
    return;
  if (St != State::Streaming) {
    Pending.clear();
    return;
  }

  size_t Pos = 0;
  while (St == State::Streaming && Pending.size() - Pos >= FrameHeaderSize) {
    const unsigned char *H =
        reinterpret_cast<const unsigned char *>(Pending.data() + Pos);
    char Type = static_cast<char>(H[0]);
    uint32_t Len = static_cast<uint32_t>(H[1]) |
                   (static_cast<uint32_t>(H[2]) << 8) |
                   (static_cast<uint32_t>(H[3]) << 16) |
                   (static_cast<uint32_t>(H[4]) << 24);
    if (Type != 'W' && Type != 'D' && Type != 'E') {
      failSession("unknown frame type");
      break;
    }
    if (Len > MaxFrameBody) {
      failSession("frame body of " + std::to_string(Len) +
                  " bytes exceeds the limit");
      break;
    }
    if (Pending.size() - Pos < FrameHeaderSize + Len)
      break; // Wait for the rest of the body.
    std::string_view Body(Pending.data() + Pos + FrameHeaderSize, Len);
    Pos += FrameHeaderSize + Len;
    if (!handleFrame(static_cast<FrameType>(Type), Body))
      break;
  }
  Pending.erase(0, Pos);
  if (St == State::Done)
    Pending.clear();
}

bool Session::handleHandshake() {
  size_t NL = Pending.find('\n');
  if (NL == std::string::npos) {
    if (Pending.size() > 4096)
      failSession("handshake line too long");
    return false;
  }
  std::string Error;
  if (!parseHandshake(std::string_view(Pending.data(), NL), Config, Error)) {
    failSession(Error);
    return false;
  }
  Pending.erase(0, NL + 1);
  if (Config.Status) {
    std::lock_guard<std::mutex> Lock(Mu);
    StatusFlag = true; // The server owns the table; it writes the doc.
    return false;
  }
  wire::PipelineOptions Opts;
  Opts.TheBackend = Config.TheBackend;
  Opts.Memo = Config.Memo;
  Pipeline = std::make_unique<wire::StreamPipeline>(Opts);
  if (Config.TheBackend != wire::Backend::FastTrack && Provider)
    Pipeline->setDefaultProvider(Provider);
  Pipeline->setRaceCallback(
      [this](const CommutativityRace &R) { emitRaceLine(R); });
  Pipeline->setMemoryRaceCallback(
      [this](const MemoryRace &R) { emitRaceLine(R); });
  std::string Hello = "{\"type\":\"hello\",\"session\":";
  Hello += std::to_string(Id);
  Hello += ",\"detector\":\"";
  Hello += backendToken(Config.TheBackend);
  Hello += "\",\"memo\":\"";
  Hello += memoToken(Config.Memo);
  Hello += "\"}";
  emitLine(std::move(Hello));
  St = State::Streaming;
  return true;
}

bool Session::handleFrame(FrameType T, std::string_view Body) {
  switch (T) {
  case FrameType::Wire:
    if (!splitWireBytes(Body))
      return false;
    pumpPipeline();
    return St == State::Streaming && !overFootprintCeiling();
  case FrameType::Died: {
    if (Body.size() % 4 != 0) {
      failSession("die notice body must be a multiple of 4 bytes");
      return false;
    }
    // Everything buffered ahead of the notice must reach the detector
    // first, or the reclamation would apply out of order.
    pumpPipeline();
    if (St != State::Streaming)
      return false;
    if (Pipeline) {
      const unsigned char *P =
          reinterpret_cast<const unsigned char *>(Body.data());
      for (size_t I = 0; I != Body.size(); I += 4) {
        uint32_t Obj = static_cast<uint32_t>(P[I]) |
                       (static_cast<uint32_t>(P[I + 1]) << 8) |
                       (static_cast<uint32_t>(P[I + 2]) << 16) |
                       (static_cast<uint32_t>(P[I + 3]) << 24);
        Pipeline->objectDied(ObjectId(Obj));
        ++ObjectsDied;
      }
    }
    return true;
  }
  case FrameType::End:
    finishTrace();
    return false;
  }
  failSession("unknown frame type");
  return false;
}

bool Session::splitWireBytes(std::string_view Data) {
  WireBuf.append(Data.data(), Data.size());
  size_t Pos = 0;
  while (true) {
    size_t Avail = WireBuf.size() - Pos;
    if (!SawFileHeader) {
      if (Avail < wire::FileHeaderSize)
        break;
      // Pass the header through verbatim and let the reader's canonical
      // validation diagnose bad magic/version/flags; the flags byte is all
      // the splitter needs for chunk-header geometry.
      WireFlags = static_cast<uint8_t>(WireBuf[Pos + 5]);
      Queue.append(WireBuf.data() + Pos, wire::FileHeaderSize);
      Pos += wire::FileHeaderSize;
      SawFileHeader = true;
      Source = std::make_unique<wire::BinaryStreamSource>(QueueStream, Diags);
      if (Source->failed()) {
        failSession(firstDiagnosticLine(Diags));
        break;
      }
      continue;
    }
    size_t HeaderSize = (WireFlags & wire::FlagChunkDigests)
                            ? wire::DigestChunkHeaderSize
                            : wire::ChunkHeaderSize;
    if (Avail < HeaderSize)
      break;
    const unsigned char *H =
        reinterpret_cast<const unsigned char *>(WireBuf.data() + Pos);
    uint32_t PayloadSize = static_cast<uint32_t>(H[0]) |
                           (static_cast<uint32_t>(H[1]) << 8) |
                           (static_cast<uint32_t>(H[2]) << 16) |
                           (static_cast<uint32_t>(H[3]) << 24);
    if (PayloadSize > wire::MaxChunkPayload) {
      // Feed just the header: the reader rejects the size before wanting
      // the payload, producing the canonical oversize diagnostic without
      // this session ever buffering toward the bogus length.
      Queue.append(WireBuf.data() + Pos, HeaderSize);
      Pos += HeaderSize;
      break;
    }
    if (Avail < HeaderSize + PayloadSize)
      break;
    Queue.append(WireBuf.data() + Pos, HeaderSize + PayloadSize);
    Pos += HeaderSize + PayloadSize;
  }
  WireBuf.erase(0, Pos);
  return St == State::Streaming;
}

void Session::pumpPipeline() {
  if (!Source || !Pipeline || St != State::Streaming)
    return;
  if (Queue.pending() == 0 && PumpRounds != 0)
    return;
  uint64_t Start = TraceSpans ? monotonicNs() : 0;
  if (wire::WireReader *Reader = Source->memoReader())
    Reader->resume();
  Pipeline->pump(*Source);
  ++PumpRounds;
  if (TraceSpans) {
    SessionSpan Span;
    Span.SessionId = Id;
    Span.StartNs = Start;
    Span.DurNs = monotonicNs() - Start;
    Span.Events = Pipeline->eventsProcessed();
    std::lock_guard<std::mutex> Lock(Mu);
    if (Spans.size() < 4096)
      Spans.push_back(Span);
  }
  if (Source->failed())
    failSession(firstDiagnosticLine(Diags));
}

bool Session::overFootprintCeiling() {
  if (!Limits.MaxSessionBytes || St != State::Streaming)
    return false;
  size_t Footprint = footprintBytes();
  if (Footprint <= Limits.MaxSessionBytes)
    return false;
  failSession("session footprint of " + std::to_string(Footprint) +
              " bytes exceeds the ceiling of " +
              std::to_string(Limits.MaxSessionBytes) +
              " (send die notices to reclaim per-object state, or raise "
              "--session-cap)");
  return true;
}

size_t Session::footprintBytes() const {
  size_t Bytes = Pending.size() + WireBuf.size() + Queue.capacityBytes();
  if (Pipeline)
    Bytes += Pipeline->batchFootprint();
  if (Source)
    Bytes += Source->reader().stats().MemoCacheBytes;
  return Bytes;
}

void Session::finishTrace() {
  if (St != State::Streaming)
    return;
  if (!WireBuf.empty()) {
    failSession("wire stream ended inside a chunk (" +
                std::to_string(WireBuf.size()) + " dangling bytes)");
    return;
  }
  pumpPipeline();
  if (St != State::Streaming)
    return;
  if (Pipeline)
    Pipeline->finish();
  // Violations have no streaming callback; they surface here, before the
  // summary, exactly as `crd check` prints them.
  if (Pipeline)
    for (const AtomicityViolation &V : Pipeline->violations()) {
      std::ostringstream OS;
      OS << V;
      std::string Line = "{\"type\":\"violation\",\"index\":";
      Line += std::to_string(ViolationLines++);
      Line += ",\"text\":\"";
      appendJsonEscaped(Line, OS.str());
      Line += "\"}";
      emitLine(std::move(Line));
    }
  emitSummary();
  St = State::Done;
  std::lock_guard<std::mutex> Lock(Mu);
  DoneFlag = true;
}

void Session::emitSummary() {
  wire::StreamSummary Sum =
      Pipeline ? Pipeline->summary() : wire::StreamSummary();
  std::string Line = "{\"type\":\"summary\",\"session\":";
  Line += std::to_string(Id);
  Line += ",\"events\":" + std::to_string(Sum.Events);
  Line += ",\"races\":" + std::to_string(Sum.Races);
  Line += ",\"distinct_racy_objects\":" + std::to_string(Sum.DistinctRacyObjects);
  Line += ",\"memory_races\":" + std::to_string(Sum.MemoryRaces);
  Line += ",\"distinct_racy_vars\":" + std::to_string(Sum.DistinctRacyVars);
  Line += ",\"violations\":" + std::to_string(Sum.Violations);
  Line += ",\"objects_died\":" + std::to_string(ObjectsDied);
  Line += "}";
  emitLine(std::move(Line));
}
