//===- tests/ServeTest.cpp - the crd serve daemon ----------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// The multi-tenant detection daemon (src/serve). The load-bearing
/// properties:
///
///  * bit-identity — a session's findings, rendered through the `crd
///    serve --connect` client, are byte-for-byte what `crd check` prints
///    for the same trace, across backends × memo modes, and stay that
///    way when all the sessions run concurrently against one daemon
///    (zero cross-session interference);
///  * malformed input kills only the offending session, with the wire
///    reader's canonical diagnostic;
///  * die notices ('D' frames) are applied in stream order and counted;
///  * idle sessions are reclaimed by the timeout sweep, capacity
///    rejections are loud, and SIGTERM-style drain still delivers every
///    open session's summary.
///
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Session.h"
#include "trace/TraceBuilder.h"
#include "wire/WireWriter.h"
#include "Cli.h"
#include "CliInternal.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace crd;

namespace {

//===----------------------------------------------------------------------===//
// Shared plumbing
//===----------------------------------------------------------------------===//

std::unique_ptr<TranslatedRep> loadDictionary() {
  std::ostringstream Err;
  int Exit = 0;
  auto Rep = cli::internal::loadProvider("", Err, Exit);
  EXPECT_NE(Rep, nullptr) << Err.str();
  return Rep;
}

/// A racy wire trace (with chunk digests) plus a file copy for the CLI.
struct TestTrace {
  std::string Bytes;
  std::string Path;

  explicit TestTrace(size_t EventsPerChunk = 64) {
    Trace T = testgen::randomTrace(/*Seed=*/7, /*Workers=*/3,
                                   /*OpsPerWorker=*/40, /*Keys=*/4);
    std::ostringstream OS;
    wire::WireWriter Writer(OS, EventsPerChunk);
    Writer.writeTrace(T);
    Writer.finish();
    Bytes = OS.str();
    Path = std::string(::testing::TempDir()) + "crd_serve_test_" +
           std::to_string(::getpid()) + ".crdb";
    std::ofstream File(Path, std::ios::binary);
    File << Bytes;
  }
  ~TestTrace() { ::unlink(Path.c_str()); }
};

/// Runs one session to completion on the calling thread, mimicking the
/// server's claim/release scheduling handshake.
void driveSession(serve::Session &S) {
  while (S.claimWork()) {
    S.runWork();
    if (!S.releaseWork())
      break;
  }
}

std::string frame(serve::FrameType T, std::string_view Body) {
  std::string Out;
  serve::appendFrameHeader(Out, T, static_cast<uint32_t>(Body.size()));
  Out.append(Body);
  return Out;
}

/// Collects the reply lines of a direct (no-socket) session fed the whole
/// \p Input at once.
std::string runDirect(serve::Session &S, const std::string &Input) {
  S.enqueueInput(Input.data(), Input.size());
  S.noteEof();
  driveSession(S);
  EXPECT_TRUE(S.done());
  return S.takeOutput();
}

/// In-process daemon on a Unix socket, run() on its own thread.
struct Daemon {
  std::unique_ptr<TranslatedRep> Rep;
  std::unique_ptr<serve::Server> S;
  std::thread Runner;
  std::string SockPath;

  explicit Daemon(serve::ServeOptions Opts = {}) {
    Rep = loadDictionary();
    static std::atomic<int> Counter{0};
    SockPath = std::string(::testing::TempDir()) + "crd_serve_" +
               std::to_string(::getpid()) + "_" +
               std::to_string(Counter.fetch_add(1)) + ".sock";
    Opts.UnixPath = SockPath;
    Opts.Provider = Rep.get();
    S = std::make_unique<serve::Server>(std::move(Opts));
    std::string Error;
    bool Started = S->start(Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Runner = std::thread([this] { S->run(); });
  }

  ~Daemon() {
    if (Runner.joinable()) {
      S->requestStop();
      Runner.join();
    }
  }

  /// Waits for a drain-initiated run() exit instead of forcing a stop.
  void joinAfterDrain() { Runner.join(); }
};

/// Raw blocking client socket for the partial-protocol tests.
struct RawClient {
  int Fd = -1;

  explicit RawClient(const std::string &Path) { open(Path); }
  ~RawClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void open(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0)
        << std::strerror(errno);
  }

  void send(std::string_view Data) {
    size_t Off = 0;
    while (Off != Data.size()) {
      ssize_t W = ::write(Fd, Data.data() + Off, Data.size() - Off);
      ASSERT_GT(W, 0) << std::strerror(errno);
      Off += static_cast<size_t>(W);
    }
  }

  /// Reads until the server closes the connection.
  std::string readToEof() {
    std::string Out;
    char Buf[4096];
    for (;;) {
      ssize_t R = ::read(Fd, Buf, sizeof(Buf));
      if (R <= 0)
        return Out;
      Out.append(Buf, static_cast<size_t>(R));
    }
  }
};

/// `crd <argv...>` through the library entry point, stdout captured.
std::pair<int, std::string> runCli(std::vector<std::string> Argv) {
  std::ostringstream Out, Err;
  int Exit = cli::crdMain(Argv, Out, Err);
  return {Exit, Out.str()};
}

struct ModeCase {
  const char *Detector;
  const char *Memo; ///< nullptr = no --memo flag.
};

const ModeCase Matrix[] = {
    {"seq", nullptr},       {"seq", "full"},       {"fasttrack", nullptr},
    {"fasttrack", "full"},  {"atomicity", nullptr}, {"atomicity", "full"},
};

std::vector<std::string> checkArgs(const TestTrace &T, const ModeCase &M) {
  std::vector<std::string> A{"check", std::string("--detector=") + M.Detector};
  if (M.Memo)
    A.push_back(std::string("--memo=") + M.Memo);
  A.push_back(T.Path);
  return A;
}

std::vector<std::string> clientArgs(const Daemon &D, const TestTrace &T,
                                    const ModeCase &M) {
  std::vector<std::string> A{"serve", "--connect=" + D.SockPath,
                             "--trace=" + T.Path,
                             std::string("--detector=") + M.Detector};
  if (M.Memo)
    A.push_back(std::string("--memo=") + M.Memo);
  return A;
}

//===----------------------------------------------------------------------===//
// Bit-identity: serve == check, solo and under concurrency
//===----------------------------------------------------------------------===//

TEST(ServeTest, ClientMatchesCheckAcrossBackendsAndMemoModes) {
  TestTrace T;
  Daemon D;
  for (const ModeCase &M : Matrix) {
    auto [CheckExit, CheckOut] = runCli(checkArgs(T, M));
    auto [ServeExit, ServeOut] = runCli(clientArgs(D, T, M));
    EXPECT_EQ(ServeOut, CheckOut)
        << "detector=" << M.Detector
        << " memo=" << (M.Memo ? M.Memo : "(none)");
    EXPECT_EQ(ServeExit, CheckExit) << "detector=" << M.Detector;
  }
}

TEST(ServeTest, ConcurrentSessionsDoNotInterfere) {
  TestTrace T;
  Daemon D;
  // Expected outputs first, solo.
  std::vector<std::string> Expected;
  for (const ModeCase &M : Matrix)
    Expected.push_back(runCli(checkArgs(T, M)).second);

  // Then every mode at once, several clients per mode, all racing on the
  // one daemon: each session must still see exactly its own findings.
  constexpr int PerMode = 3;
  const size_t Modes = std::size(Matrix);
  std::vector<std::string> Got(Modes * PerMode);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Got.size(); ++I)
    Threads.emplace_back([&, I] {
      Got[I] = runCli(clientArgs(D, T, Matrix[I % Modes])).second;
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_EQ(Got[I], Expected[I % Modes])
        << "detector=" << Matrix[I % Modes].Detector;
}

//===----------------------------------------------------------------------===//
// Session isolation and robustness
//===----------------------------------------------------------------------===//

TEST(ServeTest, MalformedChunkKillsOnlyTheOffendingSession) {
  TestTrace T;
  auto Rep = loadDictionary();
  serve::SessionLimits Limits;

  // The healthy session's solo output is the baseline.
  serve::Session Solo(1, Limits, Rep.get(), false);
  std::string Handshake = std::string(serve::ProtocolTag) + "\n";
  std::string GoodInput = Handshake + frame(serve::FrameType::Wire, T.Bytes) +
                          frame(serve::FrameType::End, "");
  std::string Baseline = runDirect(Solo, GoodInput);

  serve::Session Bad(2, Limits, Rep.get(), false);
  serve::Session Good(3, Limits, Rep.get(), false);
  std::string BadInput =
      Handshake + frame(serve::FrameType::Wire, "XXXXXXXXXXXXXXXX") +
      frame(serve::FrameType::End, "");
  std::string BadReply, GoodReply;
  std::thread A([&] { BadReply = runDirect(Bad, BadInput); });
  std::thread B([&] { GoodReply = runDirect(Good, GoodInput); });
  A.join();
  B.join();

  EXPECT_NE(BadReply.find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(BadReply.find("bad magic"), std::string::npos) << BadReply;
  // Modulo the session id, the neighbor is untouched.
  auto Normalize = [](std::string S) {
    for (size_t At; (At = S.find("\"session\":")) != std::string::npos;) {
      size_t End = At + std::strlen("\"session\":");
      while (End < S.size() && S[End] >= '0' && S[End] <= '9')
        ++End;
      S.replace(At, End - At, "sid");
    }
    return S;
  };
  EXPECT_EQ(Normalize(GoodReply), Normalize(Baseline));
}

TEST(ServeTest, DieNoticesAreCountedAndKeepFindingsIdentical) {
  TestTrace T;
  auto Rep = loadDictionary();
  serve::SessionLimits Limits;
  std::string Handshake = std::string(serve::ProtocolTag) + "\n";

  serve::Session Plain(1, Limits, Rep.get(), false);
  std::string Baseline = runDirect(
      Plain, Handshake + frame(serve::FrameType::Wire, T.Bytes) +
                 frame(serve::FrameType::End, ""));

  // Die notices for every object after the full trace: per-object state
  // reclamation must not change what was already detected.
  std::string Died;
  for (uint32_t Obj = 0; Obj != 8; ++Obj) {
    char Le[4] = {static_cast<char>(Obj), 0, 0, 0};
    Died.append(Le, 4);
  }
  serve::Session WithDied(2, Limits, Rep.get(), false);
  std::string Reply = runDirect(
      WithDied, Handshake + frame(serve::FrameType::Wire, T.Bytes) +
                    frame(serve::FrameType::Died, Died) +
                    frame(serve::FrameType::End, ""));

  EXPECT_NE(Reply.find("\"objects_died\":8"), std::string::npos) << Reply;
  // Same races line-for-line; only the summary's objects_died differs.
  auto RacesOf = [](const std::string &S) {
    std::string Out;
    std::istringstream Lines(S);
    std::string Line;
    while (std::getline(Lines, Line))
      if (Line.find("\"type\":\"race\"") != std::string::npos)
        Out += Line + "\n";
    return Out;
  };
  EXPECT_EQ(RacesOf(Reply), RacesOf(Baseline));
}

TEST(ServeTest, RaceLineRendersAndEscapesTheReport) {
  // A quoted string value exercises both text layers: the report escapes
  // the value as the trace lexer reads it, and the reply line JSON-escapes
  // the report. The prior is the epoch of T2's put.
  Value Key = Value::string("a\"b\\c\td");
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2);
  TB.invoke(2, 1, "put", {Key, Value::integer(100)}, Value::nil());
  TB.invoke(1, 1, "put", {Key, Value::integer(200)}, Value::integer(100));
  std::ostringstream OS;
  wire::WireWriter Writer(OS);
  Writer.writeTrace(TB.take());
  Writer.finish();

  auto Rep = loadDictionary();
  serve::Session S(1, serve::SessionLimits(), Rep.get(), false);
  std::string Reply = runDirect(
      S, std::string(serve::ProtocolTag) + "\n" +
             frame(serve::FrameType::Wire, OS.str()) +
             frame(serve::FrameType::End, ""));
  std::vector<std::string> RaceLines;
  std::istringstream Lines(Reply);
  for (std::string Line; std::getline(Lines, Line);)
    if (Line.find("\"type\":\"race\"") != std::string::npos)
      RaceLines.push_back(Line);
  ASSERT_EQ(RaceLines.size(), 1u) << Reply;
  EXPECT_EQ(RaceLines[0],
            R"x({"type":"race","index":0,"text":"commutativity race at event )x"
            R"x(3: T1 performs o1.put(\"a\\\"b\\\\c\\td\", 200)/100 conflicting )x"
            R"x(on put{!(x2 == x3),!(nil == x2),!(nil == x3)}:1 (prior <0,0,1> )x"
            R"x(|| current <1,1>)"})x");
}

TEST(ServeTest, ArbitrarySlicingReassemblesChunks) {
  TestTrace T(/*EventsPerChunk=*/8);
  auto Rep = loadDictionary();
  serve::SessionLimits Limits;
  std::string Handshake = std::string(serve::ProtocolTag) + "\n";
  std::string Whole = runDirect(
      *std::make_unique<serve::Session>(1, Limits, Rep.get(), false),
      Handshake + frame(serve::FrameType::Wire, T.Bytes) +
          frame(serve::FrameType::End, ""));

  // The same trace as hundreds of tiny 'W' frames, delivered byte-by-byte
  // to the session with a work round after every enqueue.
  serve::Session S(2, Limits, Rep.get(), false);
  std::string Input = Handshake;
  for (size_t Pos = 0; Pos < T.Bytes.size(); Pos += 7)
    Input += frame(serve::FrameType::Wire,
                   std::string_view(T.Bytes).substr(
                       Pos, std::min<size_t>(7, T.Bytes.size() - Pos)));
  Input += frame(serve::FrameType::End, "");
  for (char C : Input) {
    S.enqueueInput(&C, 1);
    driveSession(S);
  }
  S.noteEof();
  driveSession(S);
  ASSERT_TRUE(S.done());
  std::string Sliced = S.takeOutput();

  auto Normalize = [](std::string Str) {
    size_t At = Str.find("\"session\":");
    while (At != std::string::npos) {
      size_t End = At + std::strlen("\"session\":");
      while (End < Str.size() && Str[End] >= '0' && Str[End] <= '9')
        ++End;
      Str.replace(At, End - At, "sid");
      At = Str.find("\"session\":", At);
    }
    return Str;
  };
  EXPECT_EQ(Normalize(Sliced), Normalize(Whole));
}

TEST(ServeTest, FootprintCeilingKillsTheSessionWithAdvice) {
  TestTrace T;
  auto Rep = loadDictionary();
  serve::SessionLimits Limits;
  Limits.MaxSessionBytes = 1; // Anything trips it.
  serve::Session S(1, Limits, Rep.get(), false);
  std::string Reply = runDirect(
      S, std::string(serve::ProtocolTag) + "\n" +
             frame(serve::FrameType::Wire, T.Bytes) +
             frame(serve::FrameType::End, ""));
  EXPECT_NE(Reply.find("\"type\":\"error\""), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("--session-cap"), std::string::npos) << Reply;
}

TEST(ServeTest, BadHandshakeIsRejected) {
  auto Rep = loadDictionary();
  // A wrong protocol version, the keys and values of the removed
  // intra-trace parallel backend, and the removed decode memo mode: each
  // must get an error reply, not a session that silently ignores it.
  for (const char *Line :
       {"crd-serve/999 detector=seq", "crd-serve/1 detector=parallel",
        "crd-serve/1 shards=2", "crd-serve/1 batch=64",
        "crd-serve/1 memo=decode"}) {
    serve::Session S(1, serve::SessionLimits(), Rep.get(), false);
    std::string Reply = runDirect(S, std::string(Line) + "\n");
    EXPECT_NE(Reply.find("\"type\":\"error\""), std::string::npos)
        << Line << ": " << Reply;
  }
}

TEST(ServeTest, RemovedOptionsAreUsageErrors) {
  TestTrace T;
  std::string Sock = std::string(::testing::TempDir()) + "crd_serve_removed_" +
                     std::to_string(::getpid()) + ".sock";
  const std::vector<std::vector<std::string>> Cases = {
      {"check", "--detector=parallel", T.Path},
      {"check", "--shards=4", T.Path},
      {"check", "--batch=64", T.Path},
      {"analyze", "--memo=full", T.Path},
      {"serve", "--socket=" + Sock, "--policy=drop"},
  };
  for (const std::vector<std::string> &Argv : Cases) {
    std::ostringstream Out, Err;
    EXPECT_EQ(cli::crdMain(Argv, Out, Err), 2) << Argv[0] << " " << Argv[1];
    EXPECT_EQ(Out.str(), "") << Argv[0] << " " << Argv[1];
  }
  // The daemon refused --policy before binding its socket.
  EXPECT_NE(::access(Sock.c_str(), F_OK), 0);
  // `crd profile` reads recorded traces only; it has no --source option.
  std::ostringstream Out, Err;
  EXPECT_EQ(cli::crdMain({"profile", "--source=live", T.Path}, Out, Err), 2);
  EXPECT_EQ(Out.str(), "");
  EXPECT_NE(Err.str().find("unknown option --source"), std::string::npos)
      << Err.str();
  // There is no recorder verb: live producers stream to `crd serve`.
  std::ostringstream RecordOut, RecordErr;
  EXPECT_EQ(cli::crdMain({"record", "--stress"}, RecordOut, RecordErr), 2);
  EXPECT_EQ(RecordOut.str(), "");
  EXPECT_NE(RecordErr.str().find("unknown command 'record'"),
            std::string::npos)
      << RecordErr.str();
}

//===----------------------------------------------------------------------===//
// Daemon lifecycle
//===----------------------------------------------------------------------===//

TEST(ServeTest, StatusDocumentReportsSessions) {
  TestTrace T;
  Daemon D;
  runCli(clientArgs(D, T, {"seq", nullptr}));
  auto [Exit, Out] = runCli({"serve", "--connect=" + D.SockPath, "--status"});
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("\"sessions_opened\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"events_total\": " + std::to_string(0)), 0u) << Out;
  EXPECT_NE(Out.find("\"races_total\""), std::string::npos) << Out;
}

TEST(ServeTest, IdleSessionsAreReclaimed) {
  serve::ServeOptions Opts;
  Opts.IdleTimeoutMs = 50;
  Daemon D(std::move(Opts));
  RawClient C(D.SockPath);
  C.send(std::string(serve::ProtocolTag) + "\n");
  // Stay silent past the timeout; the sweep must kill the session and
  // close the connection with an explanatory error line.
  std::string Reply = C.readToEof();
  EXPECT_NE(Reply.find("\"type\":\"error\""), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("idle"), std::string::npos) << Reply;
}

TEST(ServeTest, CapacityRejectionIsLoud) {
  TestTrace T;
  serve::ServeOptions Opts;
  Opts.MaxSessions = 1;
  Daemon D(std::move(Opts));
  RawClient Holder(D.SockPath);
  Holder.send(std::string(serve::ProtocolTag) + "\n");
  // Give the daemon a poll round to accept and register the holder.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  RawClient Second(D.SockPath);
  std::string Reply = Second.readToEof();
  EXPECT_NE(Reply.find("session capacity"), std::string::npos) << Reply;
  // The holder still works after the rejection.
  Holder.send(frame(serve::FrameType::Wire, T.Bytes) +
              frame(serve::FrameType::End, ""));
  std::string HolderReply = Holder.readToEof();
  EXPECT_NE(HolderReply.find("\"type\":\"summary\""), std::string::npos)
      << HolderReply;
}

TEST(ServeTest, DrainDeliversSummariesToOpenSessions) {
  TestTrace T;
  Daemon D;
  RawClient C(D.SockPath);
  // Whole trace but no 'E': only the drain ends this session.
  C.send(std::string(serve::ProtocolTag) + "\n" +
         frame(serve::FrameType::Wire, T.Bytes));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  D.S->requestDrain();
  std::string Reply = C.readToEof();
  EXPECT_NE(Reply.find("\"type\":\"summary\""), std::string::npos) << Reply;
  // run() must return on its own once the drained session flushes.
  D.joinAfterDrain();
}

} // namespace
