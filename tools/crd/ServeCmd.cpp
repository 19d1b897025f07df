//===- tools/crd/ServeCmd.cpp - crd serve: detection daemon + client ---------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `crd serve` in two roles. Daemon mode (--socket) runs the src/serve
/// multi-tenant detection server until SIGTERM drains it.
/// Client mode (--connect) drives a running daemon: stream one trace file
/// and print its findings in `crd check`'s exact format (--trace), fetch
/// the status document (--status), or open many concurrent sessions from
/// the same trace and assert their reply streams are byte-identical
/// (--stress), which is the zero-cross-session-interference check.
///
//===----------------------------------------------------------------------===//

#include "CliInternal.h"

#include "serve/Protocol.h"
#include "serve/Server.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

using namespace crd;
using namespace crd::cli;
using namespace crd::cli::internal;

namespace {

const char ServeHelp[] =
    "usage: crd serve --socket=PATH [daemon options]\n"
    "       crd serve --connect=PATH (--trace=FILE | --status) [options]\n"
    "\n"
    "Long-running detection daemon and its client. The daemon accepts\n"
    "binary wire-format traces over a Unix-domain socket from many\n"
    "concurrent clients; every connection is an isolated detection\n"
    "session and races stream back as line-delimited JSON, bit-identical\n"
    "to 'crd check' on the same trace (protocol and schemas:\n"
    "docs/serve.md). SIGTERM drains: buffered input finishes detecting\n"
    "and every open session still gets its summary.\n"
    "\n"
    "daemon options:\n"
    "  --socket=PATH        listen on a Unix-domain socket at PATH\n"
    "  --workers=N          detection worker pool size (default: cores)\n"
    "  --idle-timeout=MS    kill sessions idle for MS milliseconds\n"
    "                       (default 0 = never)\n"
    "  --max-sessions=N     reject connections beyond N live sessions\n"
    "                       (default 0 = unlimited)\n"
    "  --buffer-cap=BYTES   per-session bound on buffered undetected\n"
    "                       input; a full buffer stops reading the socket\n"
    "                       (default 8388608)\n"
    "  --session-cap=BYTES  per-session footprint ceiling: buffers +\n"
    "                       the pull batch + memo payload store (default\n"
    "                       0 = unlimited); sessions over it are killed\n"
    "  --spec=FILE          ECL spec for action commutativity (default:\n"
    "                       builtin dictionary, paper Fig 6)\n"
    "  --chrome-trace=FILE  on exit, write a chrome://tracing timeline\n"
    "                       with one row per session\n"
    "\n"
    "client options (with --connect=SOCKET-PATH):\n"
    "  --trace=FILE         stream a binary wire trace, print findings in\n"
    "                       'crd check' format (exit 1 when races found)\n"
    "  --status             print the daemon's status document (JSON)\n"
    "  --stress             open --sessions concurrent sessions per wave,\n"
    "                       all streaming --trace; reply streams must be\n"
    "                       identical across every session\n"
    "  --sessions=N         concurrent stress sessions per wave (default 8)\n"
    "  --waves=N            sequential stress waves (default 1)\n"
    "  --detector=seq|fasttrack|atomicity   session backend (default seq)\n"
    "  --memo[=off|full]    chunk memoization for traces with content\n"
    "                       digests (default off; bare --memo = full)\n"
    "  --json               print the raw reply lines instead of check-\n"
    "                       format rendering\n";

//===----------------------------------------------------------------------===//
// Daemon mode
//===----------------------------------------------------------------------===//

/// SIGTERM/SIGINT handlers reach the server through this; requestDrain()
/// and requestStop() are async-signal-safe by design.
std::atomic<serve::Server *> ActiveServer{nullptr};
std::atomic<int> SignalCount{0};

void handleShutdownSignal(int) {
  serve::Server *S = ActiveServer.load(std::memory_order_acquire);
  if (!S)
    return;
  if (SignalCount.fetch_add(1, std::memory_order_acq_rel) == 0)
    S->requestDrain();
  else
    S->requestStop();
}

/// Pins glibc's mmap threshold at 4 MiB, which also pins the trim
/// threshold at its 128 KiB default. Left dynamic, each mapped block a
/// session frees raises the mmap threshold to that block's size and the
/// trim threshold to twice that, so each per-thread arena may keep that
/// much free memory at its top, which malloc_trim() does not release: the
/// daemon's resident size after a wave then follows how past sessions
/// interleaved, not what is still live. Blocks under 4 MiB stay in the
/// arenas, where they cost no system call.
void pinMallocThresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
#endif
}

int runDaemon(const ParsedArgs &Args, std::ostream &Out, std::ostream &Err) {
  serve::ServeOptions Opts;
  Opts.UnixPath = Args.option("socket").value_or("");
  if (Opts.UnixPath.empty()) {
    Err << "error: daemon mode needs a listener: --socket=PATH\n";
    return ExitUsage;
  }
  if (auto W = Args.option("workers")) {
    auto N = parseCount(*W);
    if (!N || *N == 0 || *N > 4096) {
      Err << "error: --workers expects a positive integer <= 4096\n";
      return ExitUsage;
    }
    Opts.Workers = static_cast<unsigned>(*N);
  }
  if (auto I = Args.option("idle-timeout")) {
    auto N = parseCount(*I);
    if (!N) {
      Err << "error: --idle-timeout expects milliseconds (0 = never)\n";
      return ExitUsage;
    }
    Opts.IdleTimeoutMs = *N;
  }
  if (auto M = Args.option("max-sessions")) {
    auto N = parseCount(*M);
    if (!N) {
      Err << "error: --max-sessions expects an integer (0 = unlimited)\n";
      return ExitUsage;
    }
    Opts.MaxSessions = static_cast<size_t>(*N);
  }
  if (auto B = Args.option("buffer-cap")) {
    auto N = parseCount(*B);
    if (!N || *N == 0) {
      Err << "error: --buffer-cap expects a positive byte count\n";
      return ExitUsage;
    }
    Opts.Limits.MaxBufferedBytes = static_cast<size_t>(*N);
  }
  if (auto S = Args.option("session-cap")) {
    auto N = parseCount(*S);
    if (!N) {
      Err << "error: --session-cap expects a byte count (0 = unlimited)\n";
      return ExitUsage;
    }
    Opts.Limits.MaxSessionBytes = static_cast<size_t>(*N);
  }
  std::string ChromePath = Args.option("chrome-trace").value_or("");
  Opts.TraceSessions = !ChromePath.empty();

  int Exit = ExitClean;
  std::unique_ptr<TranslatedRep> Rep =
      loadProvider(Args.option("spec").value_or(""), Err, Exit);
  if (!Rep)
    return Exit;
  Opts.Provider = Rep.get();

  pinMallocThresholds();
  serve::Server Server(std::move(Opts));
  std::string Error;
  if (!Server.start(Error)) {
    Err << "error: " << Error << "\n";
    return ExitUsage;
  }
  Out << "listening on unix:" << *Args.option("socket") << "\n";
  Out.flush();

  ActiveServer.store(&Server, std::memory_order_release);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = handleShutdownSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);

  Server.run();
  ActiveServer.store(nullptr, std::memory_order_release);

  serve::ServeMetrics M = Server.metricsSnapshot();
  Out << "drained: " << M.SessionsClosed << " sessions ("
      << M.SessionsFailed << " failed, " << M.SessionsTimedOut
      << " timed out, " << M.SessionsRejected << " rejected), "
      << M.EventsTotal << " events, " << M.RacesTotal << " races\n";

  if (!ChromePath.empty()) {
    std::ofstream TraceFile(ChromePath);
    Server.writeChromeTrace(TraceFile);
    if (!TraceFile) {
      Err << "error: cannot write chrome trace file '" << ChromePath << "'\n";
      return ExitUsage;
    }
    Err << "wrote " << ChromePath << "\n";
  }
  return ExitClean;
}

//===----------------------------------------------------------------------===//
// Client plumbing
//===----------------------------------------------------------------------===//

/// Connects to the daemon's Unix-domain socket at \p Path.
int connectTo(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: '" + Path + "'";
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = "cannot connect to '" + Path + "': " + std::strerror(errno);
    if (Fd >= 0)
      ::close(Fd);
    return -1;
  }
  return Fd;
}

bool writeAll(int Fd, const char *Data, size_t N, std::string &Error) {
  while (N != 0) {
    ssize_t W = ::write(Fd, Data, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    Data += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

/// Reads until the server closes the connection.
bool readAll(int Fd, std::string &Out, std::string &Error) {
  char Buf[65536];
  for (;;) {
    ssize_t R = ::read(Fd, Buf, sizeof(Buf));
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("read: ") + std::strerror(errno);
      return false;
    }
    if (R == 0)
      return true;
    Out.append(Buf, static_cast<size_t>(R));
  }
}

/// One full client session: handshake, the trace as 'W' frames, 'E', then
/// the complete reply stream. Replies are small relative to socket
/// buffers and the server never blocks on writes (it buffers), so the
/// write-everything-then-read shape cannot deadlock.
bool runTraceSession(const std::string &Target, const serve::Handshake &H,
                     const std::string &TraceBytes, std::string &Reply,
                     std::string &Error) {
  int Fd = connectTo(Target, Error);
  if (Fd < 0)
    return false;
  std::string Msg = serve::renderHandshake(H);
  Msg += '\n';
  // Deliberately fragment the trace so the daemon's chunk reassembly is
  // exercised on every client run, not just in unit tests.
  constexpr size_t Slice = 60000;
  for (size_t Pos = 0; Pos < TraceBytes.size(); Pos += Slice) {
    size_t N = std::min(Slice, TraceBytes.size() - Pos);
    serve::appendFrameHeader(Msg, serve::FrameType::Wire,
                             static_cast<uint32_t>(N));
    Msg.append(TraceBytes, Pos, N);
  }
  serve::appendFrameHeader(Msg, serve::FrameType::End, 0);
  bool Ok = writeAll(Fd, Msg.data(), Msg.size(), Error) &&
            (::shutdown(Fd, SHUT_WR), readAll(Fd, Reply, Error));
  ::close(Fd);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Reply-line parsing (the JSON subset the daemon emits)
//===----------------------------------------------------------------------===//

/// Extracts "Key":"..." from a reply line, undoing appendJsonEscaped.
std::optional<std::string> jsonStringField(std::string_view Line,
                                           std::string_view Key) {
  std::string Needle = "\"";
  Needle += Key;
  Needle += "\":\"";
  size_t At = Line.find(Needle);
  if (At == std::string_view::npos)
    return std::nullopt;
  std::string Out;
  for (size_t I = At + Needle.size(); I < Line.size(); ++I) {
    char C = Line[I];
    if (C == '"')
      return Out;
    if (C != '\\') {
      Out += C;
      continue;
    }
    if (++I == Line.size())
      return std::nullopt;
    switch (Line[I]) {
    case 'n': Out += '\n'; break;
    case 'r': Out += '\r'; break;
    case 't': Out += '\t'; break;
    case 'u': {
      if (I + 4 >= Line.size())
        return std::nullopt;
      unsigned V = 0;
      for (int K = 0; K != 4; ++K) {
        char H = Line[++I];
        V <<= 4;
        if (H >= '0' && H <= '9')
          V |= static_cast<unsigned>(H - '0');
        else if (H >= 'a' && H <= 'f')
          V |= static_cast<unsigned>(H - 'a' + 10);
        else if (H >= 'A' && H <= 'F')
          V |= static_cast<unsigned>(H - 'A' + 10);
        else
          return std::nullopt;
      }
      Out += static_cast<char>(V);
      break;
    }
    default: Out += Line[I]; break;
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> jsonUintField(std::string_view Line,
                                      std::string_view Key) {
  std::string Needle = "\"";
  Needle += Key;
  Needle += "\":";
  size_t At = Line.find(Needle);
  if (At == std::string_view::npos)
    return std::nullopt;
  size_t I = At + Needle.size();
  if (I >= Line.size() || Line[I] < '0' || Line[I] > '9')
    return std::nullopt;
  uint64_t V = 0;
  while (I < Line.size() && Line[I] >= '0' && Line[I] <= '9')
    V = V * 10 + static_cast<uint64_t>(Line[I++] - '0');
  return V;
}

/// Renders a session's reply stream exactly as `crd check` prints the
/// same trace: per-finding lines, then the one-line summary. Returns the
/// check-compatible exit code; daemon `error` lines map to exit 1.
int renderCheckStyle(const std::string &Reply, wire::Backend Backend,
                     std::ostream &Out, std::ostream &Err) {
  std::istringstream Lines(Reply);
  std::string Line;
  int Exit = ExitClean;
  bool SawSummary = false;
  while (std::getline(Lines, Line)) {
    auto Type = jsonStringField(Line, "type");
    if (!Type)
      continue;
    if (*Type == "race" || *Type == "violation") {
      if (auto Text = jsonStringField(Line, "text"))
        Out << (*Type == "race" ? "race: " : "violation: ") << *Text << '\n';
    } else if (*Type == "error") {
      Err << "error from daemon: "
          << jsonStringField(Line, "reason").value_or(Line) << "\n";
      return ExitFindings;
    } else if (*Type == "summary") {
      SawSummary = true;
      auto Field = [&Line](std::string_view Key) {
        return jsonUintField(Line, Key).value_or(0);
      };
      wire::StreamSummary Sum;
      Sum.Events = Field("events");
      Sum.Races = Field("races");
      Sum.DistinctRacyObjects = Field("distinct_racy_objects");
      Sum.MemoryRaces = Field("memory_races");
      Sum.DistinctRacyVars = Field("distinct_racy_vars");
      Sum.Violations = Field("violations");
      Exit = printCheckSummary(Out, Backend, Sum);
    }
  }
  if (!SawSummary) {
    Err << "error: connection closed before a summary line\n";
    return ExitFindings;
  }
  return Exit;
}

/// The reply stream minus its `hello` line (session ids differ between
/// sessions; everything else must not).
std::string stripHello(const std::string &Reply) {
  std::string Out;
  std::istringstream Lines(Reply);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (jsonStringField(Line, "type").value_or("") == "hello")
      continue;
    // Summary/error lines carry the session id; blank it for comparison.
    size_t At = Line.find("\"session\":");
    if (At != std::string::npos) {
      size_t End = At + std::strlen("\"session\":");
      while (End < Line.size() && Line[End] >= '0' && Line[End] <= '9')
        ++End;
      Line.replace(At, End - At, "\"session\":_");
    }
    Out += Line;
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Client mode
//===----------------------------------------------------------------------===//

int runClient(const ParsedArgs &Args, std::ostream &Out, std::ostream &Err) {
  const std::string Target = *Args.option("connect");

  if (Args.option("status")) {
    if (Args.option("trace") || Args.option("stress")) {
      Err << "error: --status is exclusive with --trace/--stress\n";
      return ExitUsage;
    }
    std::string Error;
    int Fd = connectTo(Target, Error);
    if (Fd < 0) {
      Err << "error: " << Error << "\n";
      return ExitUsage;
    }
    std::string Msg = std::string(serve::ProtocolTag) + " status\n";
    std::string Reply;
    bool Ok = writeAll(Fd, Msg.data(), Msg.size(), Error) &&
              (::shutdown(Fd, SHUT_WR), readAll(Fd, Reply, Error));
    ::close(Fd);
    if (!Ok) {
      Err << "error: " << Error << "\n";
      return ExitUsage;
    }
    Out << Reply;
    return ExitClean;
  }

  auto TracePath = Args.option("trace");
  if (!TracePath) {
    Err << "error: client mode needs --trace=FILE or --status\n";
    return ExitUsage;
  }

  serve::Handshake H;
  std::string DetectorName = Args.option("detector").value_or("seq");
  if (auto B = serve::parseBackendToken(DetectorName)) {
    H.TheBackend = *B;
  } else {
    Err << "error: unknown detector '" << DetectorName << "'\n";
    return ExitUsage;
  }
  if (!parseMemoMode(Args, H.Memo, Err))
    return ExitUsage;

  auto TraceBytes = readFile(*TracePath);
  if (!TraceBytes) {
    Err << "error: cannot read trace file '" << *TracePath << "'\n";
    return ExitUsage;
  }

  if (Args.option("stress")) {
    uint64_t Sessions = 8, Waves = 1;
    if (auto S = Args.option("sessions")) {
      auto N = parseCount(*S);
      if (!N || *N == 0 || *N > 4096) {
        Err << "error: --sessions expects a positive integer <= 4096\n";
        return ExitUsage;
      }
      Sessions = *N;
    }
    if (auto W = Args.option("waves")) {
      auto N = parseCount(*W);
      if (!N || *N == 0) {
        Err << "error: --waves expects a positive integer\n";
        return ExitUsage;
      }
      Waves = *N;
    }

    std::string Canonical;
    bool Identical = true;
    std::mutex ReportMu;
    std::vector<std::string> Errors;
    for (uint64_t Wave = 0; Wave != Waves && Identical; ++Wave) {
      std::vector<std::thread> Threads;
      Threads.reserve(Sessions);
      for (uint64_t S = 0; S != Sessions; ++S)
        Threads.emplace_back([&] {
          std::string Reply, Error;
          if (!runTraceSession(Target, H, *TraceBytes, Reply, Error)) {
            std::lock_guard<std::mutex> Lock(ReportMu);
            Errors.push_back(Error);
            Identical = false;
            return;
          }
          std::string Stripped = stripHello(Reply);
          std::lock_guard<std::mutex> Lock(ReportMu);
          if (Canonical.empty())
            Canonical = Stripped;
          else if (Stripped != Canonical)
            Identical = false;
        });
      for (std::thread &T : Threads)
        T.join();
    }
    for (const std::string &E : Errors)
      Err << "error: " << E << "\n";
    Out << "sessions: " << Sessions * Waves << " (" << Sessions << " x "
        << Waves << " waves)  identical: " << (Identical ? "yes" : "NO")
        << "\n";
    if (Identical && !Canonical.empty())
      renderCheckStyle(Canonical, H.TheBackend, Out, Err);
    return Identical ? ExitClean : ExitFindings;
  }

  std::string Reply, Error;
  if (!runTraceSession(Target, H, *TraceBytes, Reply, Error)) {
    Err << "error: " << Error << "\n";
    return ExitUsage;
  }
  if (Args.option("json")) {
    Out << Reply;
    std::istringstream Lines(Reply);
    std::string Line;
    bool Clean = true;
    while (std::getline(Lines, Line)) {
      auto Type = jsonStringField(Line, "type").value_or("");
      if (Type == "race" || Type == "violation" || Type == "error")
        Clean = false;
    }
    return Clean ? ExitClean : ExitFindings;
  }
  return renderCheckStyle(Reply, H.TheBackend, Out, Err);
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point + mode restrictions
//===----------------------------------------------------------------------===//

int crd::cli::internal::runServe(const std::vector<std::string> &Raw,
                                 std::ostream &Out, std::ostream &Err) {
  ParsedArgs Args(joinValueOptions(
      Raw, {"--socket", "--workers", "--idle-timeout",
            "--max-sessions", "--buffer-cap", "--session-cap", "--spec",
            "--chrome-trace", "--connect", "--trace", "--detector",
            "--sessions", "--waves"}));
  if (Args.Help) {
    Out << ServeHelp;
    return ExitClean;
  }
  if (auto Bad = Args.unknownOption(
          {"socket", "workers", "idle-timeout", "max-sessions",
           "buffer-cap", "session-cap", "spec", "chrome-trace", "connect",
           "trace", "detector", "memo", "json", "status", "stress",
           "sessions", "waves"})) {
    Err << "error: unknown option --" << *Bad << "\n" << ServeHelp;
    return ExitUsage;
  }
  if (!Args.Positional.empty()) {
    Err << "error: crd serve takes no positional operands\n" << ServeHelp;
    return ExitUsage;
  }

  // The two roles take disjoint option sets; report a mix the same way
  // every verb reports a rejected mode (rejectUnsupported).
  const bool IsClient = Args.option("connect").has_value();
  static const char *const DaemonOnly[] = {
      "socket",      "workers", "idle-timeout", "max-sessions", "buffer-cap",
      "session-cap", "spec",    "chrome-trace"};
  static const char *const ClientOnly[] = {
      "trace", "detector", "memo",     "json",
      "status", "stress",  "sessions", "waves"};
  if (IsClient) {
    for (const char *Name : DaemonOnly)
      if (Args.option(Name))
        return rejectUnsupported(
            Err, "serve", std::string("--") + Name + " with --connect",
            "listener and session-limit flags configure the daemon; start "
            "one with 'crd serve --socket=PATH' and point clients at it "
            "with --connect");
  } else {
    for (const char *Name : ClientOnly)
      if (Args.option(Name))
        return rejectUnsupported(
            Err, "serve", std::string("--") + Name + " without --connect",
            "client flags drive a running daemon; pass "
            "--connect=SOCKET-PATH, or analyze a file in-process with "
            "'crd check'");
  }

  return IsClient ? runClient(Args, Out, Err) : runDaemon(Args, Out, Err);
}
