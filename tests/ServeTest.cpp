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
///    reader's canonical diagnostic, and a well-formed wire stream of a
///    malformed trace kills nothing: `crd check` exits 0 or 1 on it with
///    every detector, and the daemon goes on serving;
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
#include "trace/TraceIO.h"
#include "wire/WireWriter.h"
#include "Cli.h"
#include "CliInternal.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
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

/// A wire trace (with chunk digests; racy by default) plus a file copy for
/// the CLI.
struct TestTrace {
  std::string Bytes;
  std::string Path;

  explicit TestTrace(size_t EventsPerChunk = 64,
                     const Trace &T = testgen::randomTrace(
                         /*Seed=*/7, /*Workers=*/3, /*OpsPerWorker=*/40,
                         /*Keys=*/4)) {
    std::ostringstream OS;
    wire::WireWriter Writer(OS, EventsPerChunk);
    Writer.writeTrace(T);
    Writer.finish();
    Bytes = OS.str();
    static std::atomic<int> Count{0};
    Path = std::string(::testing::TempDir()) + "crd_serve_test_" +
           std::to_string(::getpid()) + "_" + std::to_string(Count++) +
           ".crdb";
    std::ofstream File(Path, std::ios::binary);
    File << Bytes;
  }
  ~TestTrace() { ::unlink(Path.c_str()); }
};

/// traces/torn_commit.trace: T1's put tears T0's atomic check-then-act
/// block, which is one atomicity violation.
Trace tornCommitTrace() {
  std::ifstream In(std::string(CRD_REPO_DIR) + "/traces/torn_commit.trace");
  std::ostringstream Text;
  Text << In.rdbuf();
  DiagnosticEngine Diags;
  std::optional<Trace> T = parseTrace(Text.str(), Diags);
  EXPECT_TRUE(T) << Diags.toString();
  return T ? std::move(*T) : Trace();
}

Trace parseText(const std::string &Text) {
  DiagnosticEngine Diags;
  std::optional<Trace> T = parseTrace(Text, Diags);
  EXPECT_TRUE(T) << Diags.toString();
  return T ? std::move(*T) : Trace();
}

/// Malformed traces a client can send in well-formed wire bytes: a join
/// of a thread the trace never mentioned, a txend that closes no atomic
/// block, and a fork of a thread that already ran.
const char *const JoinUnseenThread = "T0: join T5\nT0: o1.get(0)/nil\n";
const char *const UnmatchedTxEnd = "T0: txend\nT0: o1.get(0)/nil\n";
const char *const ForkStartedThread =
    "T1: o1.get(0)/nil\nT0: fork T1\nT1: o1.get(0)/nil\n";

/// Runs one session to completion on the calling thread, mimicking the
/// server's claim/release scheduling handshake.
void driveSession(serve::Session &S) {
  if (!S.claimWork())
    return;
  do
    S.runWork();
  while (S.releaseWork());
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
  // The random trace races; the torn one has an atomicity violation,
  // which a session streams as it is found.
  TestTrace Racy, Torn(64, tornCommitTrace());
  Daemon D;
  for (const TestTrace *T : {&Racy, &Torn})
    for (const ModeCase &M : Matrix) {
      auto [CheckExit, CheckOut] = runCli(checkArgs(*T, M));
      auto [ServeExit, ServeOut] = runCli(clientArgs(D, *T, M));
      EXPECT_EQ(ServeOut, CheckOut)
          << T->Path << " detector=" << M.Detector
          << " memo=" << (M.Memo ? M.Memo : "(none)");
      EXPECT_EQ(ServeExit, CheckExit) << "detector=" << M.Detector;
    }
  EXPECT_NE(runCli(checkArgs(Torn, Matrix[4])).second.find(
                "\nevents: 6  atomicity violations: 1\n"),
            std::string::npos);
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

TEST(ServeTest, UnmatchedTxEndKillsNoSession) {
  // An atomicity session whose trace closes a block it never opened must
  // not take the daemon (and every other session) down with it.
  TestTrace Bad(64, parseText(UnmatchedTxEnd)), Torn(64, tornCommitTrace());
  Daemon D;
  const ModeCase Atomicity{"atomicity", nullptr};
  EXPECT_EQ(runCli(clientArgs(D, Bad, Atomicity)),
            runCli(checkArgs(Bad, Atomicity)));
  auto [CheckExit, CheckOut] = runCli(checkArgs(Torn, Atomicity));
  auto [ServeExit, ServeOut] = runCli(clientArgs(D, Torn, Atomicity));
  EXPECT_EQ(ServeOut, CheckOut);
  EXPECT_EQ(ServeExit, CheckExit);
  EXPECT_NE(ServeOut.find("atomicity violations: 1"), std::string::npos)
      << ServeOut;
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
  // Removed surface that names itself on stderr: `crd profile` reads
  // recorded traces only (no --source); live producers stream to `crd
  // serve` (no recorder verb) on its Unix socket (no --tcp); perfbench is
  // the performance instrument (no bench verb).
  const std::pair<std::vector<std::string>, const char *> Named[] = {
      {{"profile", "--source=live", T.Path}, "unknown option --source"},
      {{"record", "--stress"}, "unknown command 'record'"},
      {{"serve", "--socket=" + Sock, "--tcp=0"}, "unknown option --tcp"},
      {{"bench", T.Path}, "unknown command 'bench'"},
  };
  for (const auto &[Argv, Reason] : Named) {
    std::ostringstream Out, Err;
    EXPECT_EQ(cli::crdMain(Argv, Out, Err), 2) << Argv[0] << " " << Argv[1];
    EXPECT_EQ(Out.str(), "") << Argv[0] << " " << Argv[1];
    EXPECT_NE(Err.str().find(Reason), std::string::npos) << Err.str();
  }
  // The daemon refused --policy and --tcp before binding its socket.
  EXPECT_NE(::access(Sock.c_str(), F_OK), 0);
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

//===----------------------------------------------------------------------===//
// Malformed traces through the crd binary
//===----------------------------------------------------------------------===//

/// Runs the crd binary with \p Args in a child process, its stdout
/// discarded and its stderr returned in \p Err, and returns the wait
/// status. A child still running after 30 s is killed: a hang fails the
/// test like a crash does.
int runCrdProcess(const std::vector<std::string> &Args, std::string &Err) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return -1;
  pid_t Pid = ::fork();
  if (Pid == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Null, STDOUT_FILENO);
    ::dup2(Pipe[1], STDERR_FILENO);
    ::close(Pipe[0]);
    std::vector<char *> Argv{const_cast<char *>(CRD_BINARY)};
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(CRD_BINARY, Argv.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  char Buf[4096];
  for (;;) {
    int LeftMs = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Deadline - std::chrono::steady_clock::now())
            .count());
    pollfd P{Pipe[0], POLLIN, 0};
    if (LeftMs <= 0 || ::poll(&P, 1, LeftMs) <= 0) {
      ::kill(Pid, SIGKILL);
      Err += "\n(killed after 30 s)";
      break;
    }
    ssize_t R = ::read(Pipe[0], Buf, sizeof(Buf));
    if (R <= 0)
      break;
    Err.append(Buf, static_cast<size_t>(R));
  }
  ::close(Pipe[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  return Status;
}

TEST(MalformedInputTest, CheckExitsOnEveryDetectorAndFormat) {
  // Each input once as text and once as a wire file; every detector must
  // report and exit 0 or 1 — not die on a signal, hang, or (in sanitized
  // builds) trip a sanitizer.
  for (const char *Text :
       {JoinUnseenThread, UnmatchedTxEnd, ForkStartedThread}) {
    TestTrace Wire(64, parseText(Text));
    std::string TextPath = Wire.Path + ".trace";
    std::ofstream(TextPath) << Text;
    for (const std::string &Path : {TextPath, Wire.Path})
      for (const char *Detector : {"seq", "fasttrack", "atomicity"}) {
        std::string Err;
        int Status = runCrdProcess(
            {"check", std::string("--detector=") + Detector, Path}, Err);
        SCOPED_TRACE(::testing::Message()
                     << Detector << " on " << Path << ":\n"
                     << Err);
        EXPECT_TRUE(WIFEXITED(Status)) << "status " << Status;
        EXPECT_LE(WEXITSTATUS(Status), 1);
        EXPECT_EQ(Err.find("Sanitizer"), std::string::npos);
        EXPECT_EQ(Err.find("runtime error"), std::string::npos);
      }
    ::unlink(TextPath.c_str());
  }
}

} // namespace
