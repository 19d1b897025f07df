//===- serve/Server.cpp - Multi-tenant detection daemon ----------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cerrno>
#include <set>
#include <cstring>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace crd;
using namespace crd::serve;

namespace {

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

void closeIfOpen(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Hands the heap pages freed sessions left behind back to the OS. glibc
/// keeps freed blocks mapped for reuse, so without this an idle daemon
/// stays at the resident size of its busiest moment.
void releaseFreedHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

} // namespace

Server::Server(ServeOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Workers == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    this->Opts.Workers = HW ? HW : 2;
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    WorkersStop = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  for (Conn &C : Conns)
    closeIfOpen(C.Fd);
  closeIfOpen(UnixFd);
  closeIfOpen(TcpFd);
  closeIfOpen(WakeRead);
  int W = WakeWrite.exchange(-1);
  if (W >= 0)
    ::close(W);
  if (!Opts.UnixPath.empty())
    ::unlink(Opts.UnixPath.c_str());
}

bool Server::start(std::string &Error) {
  if (Opts.UnixPath.empty() && Opts.TcpPort < 0) {
    Error = "no listener configured (need a socket path or a TCP port)";
    return false;
  }
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  WakeRead = Pipe[0];
  WakeWrite.store(Pipe[1]);
  setNonBlocking(WakeRead);
  setNonBlocking(Pipe[1]);

  if (!Opts.UnixPath.empty()) {
    if (Opts.UnixPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
      Error = "socket path too long: " + Opts.UnixPath;
      return false;
    }
    UnixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (UnixFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(Opts.UnixPath.c_str()); // Replace a stale socket file.
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(UnixFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(UnixFd, 128) != 0) {
      Error = "cannot listen on " + Opts.UnixPath + ": " +
              std::strerror(errno);
      closeIfOpen(UnixFd);
      return false;
    }
    setNonBlocking(UnixFd);
  }

  if (Opts.TcpPort >= 0) {
    TcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(TcpFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // Loopback only.
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::bind(TcpFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(TcpFd, 128) != 0) {
      Error = "cannot listen on tcp port " + std::to_string(Opts.TcpPort) +
              ": " + std::strerror(errno);
      closeIfOpen(TcpFd);
      return false;
    }
    socklen_t Len = sizeof(Addr);
    if (::getsockname(TcpFd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
      BoundTcpPort = ntohs(Addr.sin_port);
    setNonBlocking(TcpFd);
  }

  StartNs = monotonicNs();
  Workers.reserve(Opts.Workers);
  for (unsigned I = 0; I != Opts.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::requestDrain() {
  DrainRequested.store(true);
  wakeIo();
}

void Server::requestStop() {
  StopRequested.store(true);
  wakeIo();
}

void Server::wakeIo() {
  int Fd = WakeWrite.load();
  if (Fd >= 0) {
    char B = 'w';
    [[maybe_unused]] ssize_t N = ::write(Fd, &B, 1);
  }
}

void Server::workerLoop() {
  while (true) {
    std::shared_ptr<Session> S;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] { return WorkersStop || !Queue.empty(); });
      if (WorkersStop && Queue.empty())
        return;
      S = std::move(Queue.front());
      Queue.pop_front();
    }
    S->runWork();
    if (S->releaseWork())
      scheduleSession(S);
    wakeIo();
  }
}

void Server::scheduleSession(const std::shared_ptr<Session> &S) {
  if (!S->claimWork())
    return; // Already queued or running; releaseWork() will requeue.
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queue.push_back(S);
  }
  QueueCv.notify_one();
}

void Server::collectSpans(Session &S) {
  if (!Opts.TraceSessions)
    return;
  std::vector<SessionSpan> Spans = S.takeSpans();
  std::lock_guard<std::mutex> Lock(StatsMu);
  if (Timeline.size() < 1u << 16)
    Timeline.insert(Timeline.end(), Spans.begin(), Spans.end());
}

void Server::acceptReady(int ListenFd) {
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN (or a transient error): nothing more to accept.
    setNonBlocking(Fd);
    if (Opts.MaxSessions && Conns.size() >= Opts.MaxSessions) {
      std::string Line =
          "{\"type\":\"error\",\"reason\":\"server at session capacity (" +
          std::to_string(Opts.MaxSessions) + ")\"}\n";
      [[maybe_unused]] ssize_t N = ::write(Fd, Line.data(), Line.size());
      ::close(Fd);
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Totals.SessionsRejected;
      continue;
    }
    Conn C;
    C.Fd = Fd;
    C.Sess = std::make_shared<Session>(NextSessionId++, Opts.Limits,
                                       Opts.Provider, Opts.TraceSessions);
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Totals.SessionsOpened;
      Live[C.Sess->id()] = C.Sess;
    }
    Conns.push_back(std::move(C));
  }
}

void Server::readConn(Conn &C) {
  char Buf[65536];
  size_t Round = 0;
  while (Round < (1u << 20)) { // Fairness bound per poll round.
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Round += static_cast<size_t>(N);
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        Totals.BytesIn += static_cast<uint64_t>(N);
      }
      if (C.Sess->enqueueInput(Buf, static_cast<size_t>(N)))
        scheduleSession(C.Sess);
      if (C.Sess->readPaused())
        break; // Backpressure: leave the rest in the kernel buffer.
      continue;
    }
    if (N == 0) {
      C.ReadClosed = true;
      if (C.Sess->noteEof())
        scheduleSession(C.Sess);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      break;
    // Hard error: treat like a close; the session drains what it has.
    C.ReadClosed = true;
    if (C.Sess->noteEof())
      scheduleSession(C.Sess);
    break;
  }
}

void Server::flushConn(Conn &C) {
  if (C.OutPending.empty())
    C.OutPending = C.Sess->takeOutput();
  while (!C.OutPending.empty()) {
    ssize_t N = ::write(C.Fd, C.OutPending.data(), C.OutPending.size());
    if (N > 0) {
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        Totals.BytesOut += static_cast<uint64_t>(N);
      }
      C.OutPending.erase(0, static_cast<size_t>(N));
      if (C.OutPending.empty())
        C.OutPending = C.Sess->takeOutput();
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return;
    // Peer gone mid-reply: drop the rest; the close path tallies below.
    C.OutPending.clear();
    C.Sess->killWithError("client hung up");
    (void)C.Sess->takeOutput();
    return;
  }
}

void Server::closeConn(size_t Index) {
  Conn &C = Conns[Index];
  SessionMetricsSnapshot S = C.Sess->metricsSnapshot();
  collectSpans(*C.Sess);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Totals.SessionsClosed;
    if (std::string_view(S.State) == "failed")
      ++Totals.SessionsFailed;
    Totals.EventsTotal += S.Events;
    Totals.RacesTotal += S.Races;
    Live.erase(C.Sess->id());
  }
  int Fd = C.Fd;
  Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(Index));
  // Trim before the last client sees EOF, so whoever waited for the
  // daemon to go idle observes its idle footprint.
  if (Conns.empty())
    releaseFreedHeap();
  closeIfOpen(Fd);
}

void Server::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  closeIfOpen(UnixFd);
  closeIfOpen(TcpFd);
  for (Conn &C : Conns) {
    if (!C.ReadClosed) {
      ::shutdown(C.Fd, SHUT_RD);
      C.ReadClosed = true;
    }
    if (C.Sess->requestDrain())
      scheduleSession(C.Sess);
    else if (!C.Sess->done())
      scheduleSession(C.Sess); // EOF already noted; make sure it runs.
  }
}

void Server::sweepIdle(uint64_t NowNs) {
  if (!Opts.IdleTimeoutMs)
    return;
  uint64_t LimitNs = Opts.IdleTimeoutMs * 1000000ull;
  for (Conn &C : Conns) {
    if (C.Sess->done())
      continue;
    uint64_t Last = C.Sess->lastActivityNs();
    if (NowNs > Last && NowNs - Last > LimitNs) {
      C.Sess->killWithError(
          "session idle for longer than " +
          std::to_string(Opts.IdleTimeoutMs) +
          " ms (daemon --idle-timeout); reconnect to continue");
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Totals.SessionsTimedOut;
      ++Totals.SessionsFailed;
    }
  }
}

void Server::run() {
  std::vector<pollfd> Fds;
  while (true) {
    if (StopRequested.load())
      break;
    if (DrainRequested.load())
      beginDrain();
    if (Draining && Conns.empty())
      break;
    ioRound(Fds);
  }
  // Tear down the pool before run() returns so detection is quiesced and
  // the timeline/metrics are complete for the caller.
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    WorkersStop = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  Workers.clear();
  while (!Conns.empty())
    closeConn(Conns.size() - 1);
}

void Server::ioRound(std::vector<pollfd> &Fds) {
  Fds.clear();
  Fds.push_back({WakeRead, POLLIN, 0});
  size_t UnixIdx = SIZE_MAX, TcpIdx = SIZE_MAX;
  if (UnixFd >= 0) {
    UnixIdx = Fds.size();
    Fds.push_back({UnixFd, POLLIN, 0});
  }
  if (TcpFd >= 0) {
    TcpIdx = Fds.size();
    Fds.push_back({TcpFd, POLLIN, 0});
  }
  size_t ConnBase = Fds.size();
  for (Conn &C : Conns) {
    short Events = 0;
    if (!C.ReadClosed && !C.Sess->readPaused())
      Events |= POLLIN;
    if (!C.OutPending.empty() || C.Sess->hasOutput())
      Events |= POLLOUT;
    Fds.push_back({C.Fd, Events, 0});
  }

  int TimeoutMs = -1;
  if (Opts.IdleTimeoutMs)
    TimeoutMs = static_cast<int>(
        std::min<uint64_t>(1000, std::max<uint64_t>(10, Opts.IdleTimeoutMs / 4)));
  int N = ::poll(Fds.data(), Fds.size(), TimeoutMs);
  if (N < 0 && errno != EINTR)
    return;

  if (Fds[0].revents & POLLIN) {
    char Buf[256];
    while (::read(WakeRead, Buf, sizeof(Buf)) > 0) {
    }
  }
  if (UnixIdx != SIZE_MAX && (Fds[UnixIdx].revents & POLLIN))
    acceptReady(UnixFd);
  if (TcpIdx != SIZE_MAX && (Fds[TcpIdx].revents & POLLIN))
    acceptReady(TcpFd);

  // Status requests are answered by the I/O thread — it owns the table.
  for (Conn &C : Conns)
    if (C.Sess->statusRequested()) {
      std::ostringstream OS;
      writeStatusJson(OS);
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Totals.StatusRequests;
      }
      C.Sess->deliverStatus(OS.str());
    }

  // Reads/writes. The fd array and Conns were parallel when poll() was
  // armed; accepts only append, so indexes below ConnBase + old size
  // still line up.
  size_t Polled = Fds.size() - ConnBase;
  for (size_t I = 0; I != Polled; ++I) {
    Conn &C = Conns[I];
    short Re = Fds[ConnBase + I].revents;
    if (Re & (POLLIN | POLLHUP | POLLERR))
      if (!C.ReadClosed)
        readConn(C);
    flushConn(C); // POLLOUT, or new output a worker queued.
  }

  sweepIdle(monotonicNs());

  // Close what is finished (done + everything flushed), back to front so
  // indexes stay valid.
  for (size_t I = Conns.size(); I != 0; --I) {
    Conn &C = Conns[I - 1];
    if (C.Sess->done() && C.OutPending.empty() && !C.Sess->hasOutput())
      closeConn(I - 1);
  }
}

ServeMetrics Server::metricsSnapshot() {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ServeMetrics M = Totals;
  M.SessionsActive = Live.size();
  for (const auto &Entry : Live) {
    SessionMetricsSnapshot S = Entry.second->metricsSnapshot();
    M.EventsTotal += S.Events;
    M.RacesTotal += S.Races;
    M.Sessions.push_back(S);
  }
  return M;
}

void Server::writeStatusJson(std::ostream &OS) {
  ServeMetrics M = metricsSnapshot();
  uint64_t Now = monotonicNs();
  metrics::JsonWriter W(OS);
  W.beginObject();
  W.field("uptime_ms", static_cast<uint64_t>((Now - StartNs) / 1000000));
  W.field("workers", static_cast<uint64_t>(Opts.Workers));
  W.field("sessions_opened", M.SessionsOpened);
  W.field("sessions_closed", M.SessionsClosed);
  W.field("sessions_active", M.SessionsActive);
  W.field("sessions_failed", M.SessionsFailed);
  W.field("sessions_timed_out", M.SessionsTimedOut);
  W.field("sessions_rejected", M.SessionsRejected);
  W.field("status_requests", M.StatusRequests);
  W.field("bytes_in", M.BytesIn);
  W.field("bytes_out", M.BytesOut);
  W.field("events_total", M.EventsTotal);
  W.field("races_total", M.RacesTotal);
  W.key("sessions");
  W.beginArray();
  for (const SessionMetricsSnapshot &S : M.Sessions) {
    W.beginObject();
    W.field("session", S.Id);
    W.field("state", S.State);
    W.field("backend", S.Backend);
    W.field("memo", S.Memo);
    W.field("events", S.Events);
    W.field("races", S.Races);
    W.field("bytes_in", S.BytesIn);
    W.field("buffered_bytes", S.BufferedBytes);
    W.field("footprint_bytes", S.FootprintBytes);
    W.field("objects_died", S.ObjectsDied);
    W.field("active_points", S.ActivePoints);
    W.field("pump_rounds", S.PumpRounds);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << '\n';
}

void Server::writeChromeTrace(std::ostream &OS) {
  std::vector<SessionSpan> Spans;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Spans = Timeline;
    for (const auto &Entry : Live) {
      std::vector<SessionSpan> More = Entry.second->takeSpans();
      Spans.insert(Spans.end(), More.begin(), More.end());
    }
  }
  std::sort(Spans.begin(), Spans.end(),
            [](const SessionSpan &A, const SessionSpan &B) {
              return A.StartNs < B.StartNs;
            });
  OS << "{\"traceEvents\":[";
  bool First = true;
  std::set<uint64_t> Named;
  for (const SessionSpan &S : Spans) {
    if (Named.insert(S.SessionId).second) {
      // One thread_name metadata row per session, on first sight.
      if (!First)
        OS << ",";
      First = false;
      OS << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << S.SessionId
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"session "
         << S.SessionId << "\"}}";
    }
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << S.SessionId
       << ",\"name\":\"pump\",\"ts\":" << (S.StartNs - StartNs) / 1000
       << ",\"dur\":" << S.DurNs / 1000 << ",\"args\":{\"events\":"
       << S.Events << "}}";
  }
  OS << "]}\n";
}
