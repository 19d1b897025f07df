//===- perfbench/src/ServeBench.cpp - The `crd serve` workload -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-racy: a `crd serve` daemon child with max(1, nproc/2) workers, and
/// one generator thread that multiplexes nproc Unix-socket connections in a
/// closed loop. Each connection streams a racy trace drawn from a pool of
/// per-session seeds, waits for the summary, checks every reply line
/// against that trace's reference, and starts its next session.
///
/// The traced run spends its first half untraced and its second half
/// traced: client spans (session > connect, send, await), a status poller
/// for the daemon's buffered and footprint bytes, and the daemon's own
/// per-session pump rows from `crd serve --chrome-trace`.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "serve/Protocol.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

using namespace crd;
using namespace perfbench;

namespace {

constexpr size_t MinSessions = 100;
constexpr unsigned DaemonStarts = 5;

/// Blocking connect to the Unix socket at \p Path; -1 on failure.
int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off != S.size()) {
    ssize_t W = ::send(Fd, S.data() + Off, S.size() - Off, MSG_NOSIGNAL);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    Off += static_cast<size_t>(W);
  }
  return true;
}

std::string readAll(int Fd) {
  std::string Out;
  char Buf[65536];
  for (;;) {
    ssize_t R = ::read(Fd, Buf, sizeof(Buf));
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(R));
  }
  return Out;
}

/// The unsigned integer after `"Key":` (spaces allowed) at or after
/// \p From in \p S, with the position past it; nullopt if absent.
std::optional<uint64_t> jsonUint(std::string_view S, std::string_view Key,
                                 size_t &From) {
  std::string Needle(1, '"');
  Needle += Key;
  Needle += "\":";
  size_t At = S.find(Needle, From);
  if (At == std::string_view::npos)
    return std::nullopt;
  size_t P = At + Needle.size();
  while (P < S.size() && S[P] == ' ')
    ++P;
  uint64_t V = 0;
  bool Any = false;
  for (; P < S.size() && S[P] >= '0' && S[P] <= '9'; ++P, Any = true)
    V = V * 10 + uint64_t(S[P] - '0');
  From = P;
  return Any ? std::optional<uint64_t>(V) : std::nullopt;
}

std::optional<uint64_t> jsonUint(std::string_view S, std::string_view Key) {
  size_t From = 0;
  return jsonUint(S, Key, From);
}

/// Writes the JSON string body starting at \p S[Pos] (just past the
/// opening quote), unescaped, to \p Out. False if unterminated.
bool unescapeJson(std::string_view S, size_t Pos, std::streambuf &Out) {
  for (; Pos < S.size(); ++Pos) {
    char C = S[Pos];
    if (C == '"')
      return true;
    if (C != '\\') {
      Out.sputc(C);
      continue;
    }
    if (++Pos == S.size())
      return false;
    switch (S[Pos]) {
    case 'n': Out.sputc('\n'); break;
    case 'r': Out.sputc('\r'); break;
    case 't': Out.sputc('\t'); break;
    case 'b': Out.sputc('\b'); break;
    case 'f': Out.sputc('\f'); break;
    case 'u': {
      if (Pos + 4 >= S.size())
        return false;
      unsigned V = static_cast<unsigned>(
          std::strtoul(std::string(S.substr(Pos + 1, 4)).c_str(), nullptr, 16));
      Pos += 4;
      if (V < 0x80) {
        Out.sputc(static_cast<char>(V));
      } else if (V < 0x800) {
        Out.sputc(static_cast<char>(0xc0 | (V >> 6)));
        Out.sputc(static_cast<char>(0x80 | (V & 0x3f)));
      } else {
        Out.sputc(static_cast<char>(0xe0 | (V >> 12)));
        Out.sputc(static_cast<char>(0x80 | ((V >> 6) & 0x3f)));
        Out.sputc(static_cast<char>(0x80 | (V & 0x3f)));
      }
      break;
    }
    default: Out.sputc(S[Pos]); break;
    }
  }
  return false;
}

/// The `crd serve` child. The destructor stops it and waits for it.
class Daemon {
public:
  Daemon(const RunOptions &Opts, std::string Socket, unsigned Workers,
         std::string ChromePath)
      : Socket(std::move(Socket)), ChromePath(std::move(ChromePath)) {
    std::vector<std::string> Args = {Opts.CrdPath, "serve",
                                     "--socket=" + this->Socket,
                                     "--workers=" + std::to_string(Workers)};
    if (!this->ChromePath.empty())
      Args.push_back("--chrome-trace=" + this->ChromePath);
    std::string Log = Opts.WorkDir + "/daemon.log";
    ::unlink(this->Socket.c_str());
    SpawnNs = nowNs();
    Pid = ::fork();
    if (Pid == 0) {
      int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, 1);
        ::dup2(Fd, 2);
      }
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Waits until the daemon accepts a connection; returns the seconds from
  /// spawn to then, or a negative value on failure.
  double waitReady() {
    if (Pid <= 0)
      return -1;
    uint64_t Deadline = SpawnNs + uint64_t(30e9);
    while (nowNs() < Deadline) {
      int Fd = connectUnix(Socket);
      if (Fd >= 0) {
        double Ready = double(nowNs() - SpawnNs) * 1e-9;
        // A status request makes the probe a complete, clean session.
        std::string Req = std::string(serve::ProtocolTag) + " status\n";
        writeAll(Fd, Req);
        readAll(Fd);
        ::close(Fd);
        return Ready;
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return -1;
      }
      ::usleep(200);
    }
    return -1;
  }

  /// SIGTERM drain, then wait (SIGKILL after 20 s). True on a clean exit.
  bool stop() {
    if (Pid <= 0)
      return false;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    uint64_t Deadline = nowNs() + uint64_t(20e9);
    for (;;) {
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid || (R < 0 && errno != EINTR))
        break;
      if (nowNs() > Deadline) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(1000);
    }
    Pid = -1;
    ::unlink(Socket.c_str());
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  pid_t pid() const { return Pid; }
  uint64_t spawnNs() const { return SpawnNs; }

private:
  std::string Socket;
  std::string ChromePath;
  pid_t Pid = -1;
  uint64_t SpawnNs = 0;
};

/// One session's input: the framed byte stream and its reference.
struct SessionInput {
  std::string Message; ///< Handshake, 'W' frames, 'E'.
  Input In;
};

/// One completed session, as the generator saw it.
struct SessionRecord {
  bool Ok = false;
  uint64_t DaemonId = 0;
  uint64_t Events = 0, Races = 0, BytesIn = 0;
  uint64_t ConnectNs = 0, FirstByteNs = 0, EndWrittenNs = 0, SummaryNs = 0,
           ClosedNs = 0;
  uint64_t BlockedNs = 0;
};

/// Connection state of the closed-loop generator.
struct Conn {
  int Fd = -1;
  const SessionInput *Input = nullptr;
  size_t Sent = 0;
  std::string InBuf;
  size_t Parsed = 0;
  uint64_t BlockedSince = 0;
  uint64_t RaceLines = 0;
  uint64_t Distinct = 0;
  bool SawSummary = false, SawError = false;
  DigestBuf Races;
  SessionRecord Rec;
};

class Generator {
public:
  Generator(std::string Socket, const std::vector<SessionInput> &Pool,
            unsigned Connections, uint64_t Seed)
      : Socket(std::move(Socket)), Pool(Pool), Conns(Connections),
        Next(Seed) {}

  /// Runs sessions until \p Seconds have passed and at least \p Min
  /// sessions started, then drains the open ones. Completed sessions are
  /// appended to Records.
  void run(double Seconds, size_t Min) {
    uint64_t Start = nowNs();
    uint64_t Budget = static_cast<uint64_t>(Seconds * 1e9);
    size_t Started = 0;
    auto Open = [&] {
      return Started < Min || nowNs() - Start < Budget;
    };
    for (Conn &C : Conns)
      if (Open()) {
        begin(C);
        ++Started;
      }
    std::vector<pollfd> Fds(Conns.size());
    for (;;) {
      size_t Live = 0;
      for (size_t I = 0; I != Conns.size(); ++I) {
        Conn &C = Conns[I];
        Fds[I] = {C.Fd, 0, 0};
        if (C.Fd < 0)
          continue;
        ++Live;
        Fds[I].events = POLLIN;
        if (C.Sent != C.Input->Message.size())
          Fds[I].events |= POLLOUT;
      }
      if (Live == 0)
        break;
      int N = ::poll(Fds.data(), Fds.size(), 5000);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        // No progress for 5 s: fail every open session.
        for (Conn &C : Conns)
          if (C.Fd >= 0) {
            C.SawError = true;
            finish(C);
          }
        break;
      }
      for (size_t I = 0; I != Conns.size(); ++I) {
        Conn &C = Conns[I];
        if (C.Fd < 0 || Fds[I].revents == 0)
          continue;
        if (Fds[I].revents & POLLOUT)
          send(C);
        if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (receive(C)) {
            finish(C);
            if (Open()) {
              begin(C);
              ++Started;
            }
          }
        }
      }
    }
  }

  std::vector<SessionRecord> Records;

private:
  void begin(Conn &C) {
    C.Input = &Pool[Next++ % Pool.size()];
    C.Sent = 0;
    C.InBuf.clear();
    C.Parsed = 0;
    C.BlockedSince = 0;
    C.RaceLines = 0;
    C.Distinct = 0;
    C.SawSummary = C.SawError = false;
    C.Races.reset();
    C.Rec = SessionRecord();
    C.Rec.ConnectNs = nowNs();
    C.Fd = connectUnix(Socket);
    if (C.Fd < 0) {
      C.SawError = true;
      finish(C);
      return;
    }
    ::fcntl(C.Fd, F_SETFL, ::fcntl(C.Fd, F_GETFL) | O_NONBLOCK);
    C.Rec.FirstByteNs = nowNs();
    send(C);
  }

  void send(Conn &C) {
    const std::string &M = C.Input->Message;
    while (C.Sent != M.size()) {
      ssize_t W =
          ::send(C.Fd, M.data() + C.Sent, M.size() - C.Sent, MSG_NOSIGNAL);
      if (W < 0 && errno == EINTR)
        continue;
      if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!C.BlockedSince)
          C.BlockedSince = nowNs();
        return;
      }
      if (W <= 0) {
        C.SawError = true;
        C.Sent = M.size();
        return;
      }
      if (C.BlockedSince) {
        C.Rec.BlockedNs += nowNs() - C.BlockedSince;
        C.BlockedSince = 0;
      }
      C.Sent += static_cast<size_t>(W);
    }
    C.Rec.EndWrittenNs = nowNs();
  }

  /// Reads what is available; true once the daemon closed the connection.
  bool receive(Conn &C) {
    char Buf[65536];
    for (;;) {
      ssize_t R = ::read(C.Fd, Buf, sizeof(Buf));
      if (R < 0 && errno == EINTR)
        continue;
      if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return false;
      if (R <= 0)
        return true;
      C.Rec.BytesIn += static_cast<uint64_t>(R);
      C.InBuf.append(Buf, static_cast<size_t>(R));
      size_t NL;
      while ((NL = C.InBuf.find('\n', C.Parsed)) != std::string::npos) {
        line(C, std::string_view(C.InBuf).substr(C.Parsed, NL - C.Parsed));
        C.Parsed = NL + 1;
      }
      if (C.Parsed > 65536) {
        C.InBuf.erase(0, C.Parsed);
        C.Parsed = 0;
      }
    }
  }

  void line(Conn &C, std::string_view L) {
    static constexpr std::string_view Race = "{\"type\":\"race\",";
    static constexpr std::string_view Text = "\"text\":\"";
    if (L.substr(0, Race.size()) == Race) {
      size_t At = L.find(Text);
      ++C.RaceLines;
      C.Races.sputn("race: ", 6);
      if (At == std::string_view::npos ||
          !unescapeJson(L, At + Text.size(), C.Races))
        C.SawError = true;
      C.Races.sputc('\n');
      return;
    }
    if (L.substr(0, 17) == "{\"type\":\"summary\"") {
      C.Rec.SummaryNs = nowNs();
      C.SawSummary = true;
      C.Rec.Events = jsonUint(L, "events").value_or(~0ull);
      C.Rec.Races = jsonUint(L, "races").value_or(~0ull);
      C.Distinct = jsonUint(L, "distinct_racy_objects").value_or(~0ull);
      return;
    }
    if (L.substr(0, 15) == "{\"type\":\"hello\"") {
      C.Rec.DaemonId = jsonUint(L, "session").value_or(0);
      return;
    }
    C.SawError = true; // An error line, or anything unexpected.
  }

  void finish(Conn &C) {
    if (C.Fd >= 0)
      ::close(C.Fd);
    C.Fd = -1;
    C.Rec.ClosedNs = nowNs();
    const Reference &Ref = C.Input->In.Ref;
    C.Rec.Ok = !C.SawError && C.SawSummary &&
               C.Sent == C.Input->Message.size() &&
               C.Rec.Events == Ref.Events && C.Rec.Races == Ref.Races &&
               C.RaceLines == Ref.Races &&
               C.Races.digest() == Ref.RaceDigest &&
               summaryLine(C.Rec.Events, C.Rec.Races, C.Distinct) ==
                   Ref.SummaryLine;
    Records.push_back(C.Rec);
  }

  std::string Socket;
  const std::vector<SessionInput> &Pool;
  std::vector<Conn> Conns;
  uint64_t Next;
};

/// Polls the daemon's status document for the largest per-session
/// buffered and footprint bytes seen.
class StatusPoller {
public:
  explicit StatusPoller(std::string Socket) : Socket(std::move(Socket)) {
    Thread = std::thread([this] { loop(); });
  }
  ~StatusPoller() { stop(); }
  StatusPoller(const StatusPoller &) = delete;
  StatusPoller &operator=(const StatusPoller &) = delete;

  void stop() {
    Done.store(true);
    if (Thread.joinable())
      Thread.join();
  }

  uint64_t BufferedMax = 0, FootprintMax = 0, Polls = 0;

private:
  void loop() {
    std::string Req = std::string(serve::ProtocolTag) + " status\n";
    while (!Done.load()) {
      int Fd = connectUnix(Socket);
      if (Fd >= 0) {
        writeAll(Fd, Req);
        std::string Doc = readAll(Fd);
        ::close(Fd);
        ++Polls;
        size_t From = 0;
        while (auto V = jsonUint(Doc, "buffered_bytes", From))
          BufferedMax = std::max(BufferedMax, *V);
        From = 0;
        while (auto V = jsonUint(Doc, "footprint_bytes", From))
          FootprintMax = std::max(FootprintMax, *V);
      }
      ::usleep(20000);
    }
  }

  std::string Socket;
  std::atomic<bool> Done{false};
  std::thread Thread;
};

/// Per-daemon-session pump totals read back from `--chrome-trace`.
struct PumpTotals {
  uint64_t Ns = 0;
  uint64_t Rounds = 0;
  std::vector<std::pair<uint64_t, uint64_t>> Spans; ///< (start µs, dur µs).
};

std::map<uint64_t, PumpTotals> readPumpRows(const std::string &Path) {
  std::map<uint64_t, PumpTotals> Out;
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();
  size_t From = 0;
  while ((From = Doc.find("\"name\":\"pump\"", From)) != std::string::npos) {
    size_t Row = Doc.rfind('{', From);
    size_t P = Row;
    auto Tid = jsonUint(Doc, "tid", P);
    P = From;
    auto Ts = jsonUint(Doc, "ts", P);
    auto Dur = jsonUint(Doc, "dur", P);
    From += 12;
    if (!Tid || !Ts || !Dur)
      continue;
    PumpTotals &T = Out[*Tid];
    T.Ns += *Dur * 1000;
    ++T.Rounds;
    T.Spans.emplace_back(*Ts, *Dur);
  }
  return Out;
}

std::string framed(const std::string &Wire) {
  std::string Msg = std::string(serve::ProtocolTag) + "\n";
  constexpr size_t Slice = 65536;
  for (size_t Pos = 0; Pos < Wire.size(); Pos += Slice) {
    size_t N = std::min(Slice, Wire.size() - Pos);
    serve::appendFrameHeader(Msg, serve::FrameType::Wire,
                             static_cast<uint32_t>(N));
    Msg.append(Wire, Pos, N);
  }
  serve::appendFrameHeader(Msg, serve::FrameType::End, 0);
  return Msg;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

Result perfbench::runServeWorkload(const RunOptions &Opts) {
  Result Res;
  DiagnosticEngine Diags;
  std::unique_ptr<TranslatedRep> Provider =
      translateSpec(dictionarySpec(), Diags);
  if (!Provider || Opts.CrdPath.empty()) {
    Res.Notes.push_back("cannot set up: spec translation failed or no "
                        "--crd executable given");
    Res.Attempted = Res.Failed = 1;
    return Res;
  }

  std::vector<SessionInput> Pool(ServePoolSize);
  uint64_t PoolEvents = 0, PoolBytes = 0, PoolSync = 0;
  for (unsigned I = 0; I != ServePoolSize; ++I) {
    SessionInput &S = Pool[I];
    S.In = buildInput(Shape::Racy, serveSessionSeed(Opts.Seed, I), *Provider,
                      RacyServeEventsPerThread);
    if (Opts.CorruptReference)
      S.In.Ref.RaceDigest ^= 1;
    S.Message = framed(S.In.Wire);
    PoolEvents += S.In.Ref.Events;
    PoolBytes += S.In.Wire.size();
    PoolSync += S.In.SyncEvents;
  }

  unsigned Cpus = cpuCount();
  unsigned Workers = std::max(1u, Cpus / 2);
  // Relative to the working directory, which keeps the path well inside
  // the Unix socket path limit wherever the checkout lives.
  std::string Socket = Opts.WorkDir + "/crd.sock";
  std::string DaemonTrace =
      Opts.Trace ? Opts.WorkDir + "/daemon-trace.json" : std::string();

  // Set-up: spawn to first accepted connection, several times.
  std::vector<double> Setup;
  std::unique_ptr<Daemon> D;
  for (unsigned I = 0; I != DaemonStarts; ++I) {
    D.reset();
    D = std::make_unique<Daemon>(Opts, Socket, Workers,
                                 I + 1 == DaemonStarts ? DaemonTrace
                                                       : std::string());
    double S = D->waitReady();
    if (S < 0) {
      Res.Notes.push_back("crd serve did not come up (see " + Opts.WorkDir +
                          "/daemon.log)");
      Res.Attempted = Res.Failed = 1;
      return Res;
    }
    Setup.push_back(S);
  }
  RssProbe Rss;
  Rss.start(D->pid());

  Generator Gen(Socket, Pool, Cpus, Opts.Seed);
  // Warm-up: one session per connection.
  Gen.run(0.0, Cpus);
  size_t Warm = Gen.Records.size();
  uint64_t WindowStart = nowNs();
  Gen.run(Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds, MinSessions);
  size_t PlainEnd = Gen.Records.size();
  uint64_t TracedStart = 0, TracedEnd = 0;
  std::unique_ptr<StatusPoller> Poller;
  if (Opts.Trace) {
    Poller = std::make_unique<StatusPoller>(Socket);
    TracedStart = nowNs();
    Gen.run(Opts.Seconds / 2, MinSessions);
    TracedEnd = nowNs();
    Poller->stop();
  }
  double PeakMb = Rss.growthMb();
  uint64_t SpawnNs = D->spawnNs();
  bool CleanExit = D->stop();
  D.reset();

  for (const SessionRecord &R : Gen.Records) {
    ++Res.Attempted;
    Res.Failed += !R.Ok;
  }
  if (!CleanExit) {
    ++Res.Attempted;
    ++Res.Failed;
    Res.Notes.push_back("crd serve did not drain cleanly");
  }

  auto Phase = [&](size_t From, size_t To, uint64_t Begin) {
    struct Stats {
      double EventsPerS = 0;
      std::vector<double> Turnaround, Lag;
      size_t Sessions = 0;
    } S;
    uint64_t Events = 0, Last = Begin;
    for (size_t I = From; I != To; ++I) {
      const SessionRecord &R = Gen.Records[I];
      if (!R.Ok)
        continue;
      ++S.Sessions;
      Events += R.Events;
      Last = std::max(Last, R.SummaryNs);
      S.Turnaround.push_back(double(R.SummaryNs - R.FirstByteNs) * 1e-6);
      S.Lag.push_back(double(R.SummaryNs - R.EndWrittenNs) * 1e-6);
    }
    S.EventsPerS = ratio(double(Events), double(Last - Begin) * 1e-9);
    return S;
  };
  auto Plain = Phase(Warm, PlainEnd, WindowStart);

  if (!Opts.Trace) {
    Res.add("events_per_s", Plain.EventsPerS);
    Res.add("setup_s", median(Setup));
    Res.add("peak_rss_mb", PeakMb);
    std::ostringstream Note;
    Note << "sessions: " << Plain.Sessions << " timed after " << Warm
         << " warmup, " << Cpus << " connections, " << Workers
         << " daemon workers";
    Res.Notes.push_back(Note.str());
    return Res;
  }

  // Traced half: client spans, daemon pump rows, status maxima.
  auto Traced = Phase(PlainEnd, Gen.Records.size(), TracedStart);
  std::map<uint64_t, PumpTotals> Pumps = readPumpRows(DaemonTrace);
  std::vector<SpanRow> Rows;
  std::vector<double> Blocked, Wait;
  uint64_t PumpNs = 0, PumpRounds = 0, Races = 0, Events = 0, BytesIn = 0,
           Sessions = 0, SessionNs = 0, ChildNs = 0;
  for (size_t I = PlainEnd; I != Gen.Records.size(); ++I) {
    const SessionRecord &R = Gen.Records[I];
    if (!R.Ok)
      continue;
    ++Sessions;
    Races += R.Races;
    Events += R.Events;
    BytesIn += R.BytesIn;
    Blocked.push_back(double(R.BlockedNs) * 1e-6);
    const PumpTotals &P = Pumps[R.DaemonId];
    PumpNs += P.Ns;
    PumpRounds += P.Rounds;
    Wait.push_back(double(R.SummaryNs - R.FirstByteNs) * 1e-6 -
                   double(P.Ns) * 1e-6);
    SessionNs += R.ClosedNs - R.ConnectNs;
    ChildNs += (R.FirstByteNs - R.ConnectNs) + (R.EndWrittenNs - R.FirstByteNs) +
               (R.SummaryNs - R.EndWrittenNs);
    if (Rows.size() < 200000) {
      uint64_t Root = Rows.size() + 1;
      Rows.push_back({"session", R.DaemonId, 0, R.ConnectNs, R.ClosedNs});
      Rows.push_back({"connect", R.DaemonId, Root, R.ConnectNs, R.FirstByteNs});
      Rows.push_back({"send", R.DaemonId, Root, R.FirstByteNs, R.EndWrittenNs});
      Rows.push_back({"await", R.DaemonId, Root, R.EndWrittenNs, R.SummaryNs});
      // Daemon timestamps count from its own start, which sits just after
      // the spawn: the rows line up to within the daemon's start-up time.
      for (auto [Ts, Dur] : P.Spans)
        Rows.push_back({"pump", R.DaemonId, Root, SpawnNs + Ts * 1000,
                        SpawnNs + (Ts + Dur) * 1000});
    }
  }
  double N = double(std::max<uint64_t>(1, Sessions));
  Res.add("wire.bytes_per_event", ratio(double(PoolBytes), double(PoolEvents)));
  Res.add("hb.sync_events", double(PoolSync) / ServePoolSize);
  Res.add("hb.sync_fraction", ratio(double(PoolSync), double(PoolEvents)));
  Res.add("detect.races", double(Races) / N);
  Res.add("detect.races_per_kevent", ratio(double(Races), double(Events)) * 1e3);
  {
    // The daemon translates the same builtin spec at start-up.
    std::vector<double> Translate;
    for (int I = 0; I != 20; ++I) {
      uint64_t T0 = nowNs();
      DiagnosticEngine D2;
      auto P = translateSpec(dictionarySpec(), D2);
      Translate.push_back(double(nowNs() - T0) * 1e-6);
    }
    Res.add("translate.spec_ms", median(Translate));
  }
  // Latencies come from the untraced half, like the end-to-end metrics.
  Res.add("serve.turnaround_p50_ms", percentile(Plain.Turnaround, 50));
  Res.add("serve.turnaround_p90_ms", percentile(Plain.Turnaround, 90));
  Res.add("serve.reply_lag_p50_ms", percentile(Plain.Lag, 50));
  Res.add("serve.reply_lag_p90_ms", percentile(Plain.Lag, 90));
  Res.add("serve.send_blocked_ms", median(Blocked));
  Res.add("serve.wait_ms_p50", median(Wait));
  Res.add("serve.pump_ns", double(PumpNs) / N);
  Res.add("serve.pump_rounds", double(PumpRounds) / N);
  Res.add("serve.worker_busy_ratio",
          ratio(double(PumpNs), double(Workers) * double(TracedEnd - TracedStart)));
  Res.add("serve.buffered_bytes_max", double(Poller->BufferedMax));
  Res.add("serve.footprint_bytes_max", double(Poller->FootprintMax));
  Res.add("serve.bytes_out_per_race", ratio(double(BytesIn), double(Races)));
  Res.add("run.unaccounted_share",
          ratio(double(SessionNs) - double(ChildNs), double(SessionNs)));

  std::ostringstream Ledger;
  Ledger << std::fixed << std::setprecision(3)
         << "self time per session over " << Sessions
         << " traced sessions: turnaround p50 "
         << percentile(Traced.Turnaround, 50) << " ms = daemon pump "
         << double(PumpNs) / N * 1e-6 << " ms + waiting " << median(Wait)
         << " ms (p50); send blocked " << median(Blocked)
         << " ms (p50); daemon workers busy "
         << 100.0 * ratio(double(PumpNs),
                          double(Workers) * double(TracedEnd - TracedStart))
         << "%; " << Poller->Polls << " status polls";
  Res.Notes.push_back(Ledger.str());
  std::ostringstream Overhead;
  Overhead << std::fixed << std::setprecision(1) << "tracing overhead: traced "
           << Traced.EventsPerS << " events/s vs untraced " << Plain.EventsPerS
           << " events/s ("
           << 100.0 * (1.0 - ratio(Traced.EventsPerS, Plain.EventsPerS))
           << "% slower, " << Traced.Sessions << " + " << Plain.Sessions
           << " sessions)";
  Res.Notes.push_back(Overhead.str());
  std::string TracePath = Opts.WorkDir + "/trace-" + Opts.Workload + "-" +
                          std::to_string(Opts.Seed) + ".json";
  if (writeChromeTrace(TracePath, Rows))
    Res.Notes.push_back("chrome trace: " + TracePath + " (" +
                        std::to_string(Rows.size()) + " spans)");
  return Res;
}
