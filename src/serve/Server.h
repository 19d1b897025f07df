//===- serve/Server.h - Multi-tenant detection daemon -----------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `crd serve` daemon core: a Unix-domain listener, one poll-based I/O
/// thread (the thread that calls run()), and a shared pool of detection
/// workers. Connections map 1:1 to Session objects; the I/O thread
/// shuttles bytes between sockets and sessions, and workers run each
/// session's decode + detection rounds — at most one worker per session
/// at a time, so detector state never needs a lock. An idle session holds
/// no queue slot and no worker: its cost is one pollfd entry and its
/// retained buffers, which is how hundreds of idle sessions cost
/// ~nothing. A worker lets go of a session before it gives the session's
/// claim back, and the I/O thread closes only unclaimed sessions, so the
/// close drops the last reference and the heap trim after the last close
/// finds every session freed.
///
/// Shutdown: requestDrain() (the SIGTERM path; async-signal-safe) stops
/// accepting, treats every open connection as end-of-trace, lets the
/// workers finish the buffered input, and returns from run() once every
/// session has its summary flushed — a drained client cannot tell the
/// difference from sending 'E' itself. requestStop() abandons open work.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SERVE_SERVER_H
#define CRD_SERVE_SERVER_H

#include "serve/Session.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

struct pollfd; // <poll.h>; kept out of this header.

namespace crd {
namespace serve {

/// Daemon configuration (`crd serve` flags map onto this 1:1).
struct ServeOptions {
  std::string UnixPath; ///< Unix-domain listen path.
  unsigned Workers = 0; ///< Detection pool size (0 = hardware threads).
  uint64_t IdleTimeoutMs = 0; ///< Kill sessions idle this long (0 = never).
  size_t MaxSessions = 0;     ///< Reject accepts beyond this (0 = unlimited).
  SessionLimits Limits;       ///< Per-session bounds.
  bool TraceSessions = false; ///< Record per-session timeline spans.
  /// Commutativity spec for sessions (shared, read-only; FastTrack
  /// sessions ignore it). Must outlive the server.
  const AccessPointProvider *Provider = nullptr;
};

/// Aggregate + per-session counters behind the status document.
struct ServeMetrics {
  uint64_t SessionsOpened = 0;
  uint64_t SessionsClosed = 0;
  uint64_t SessionsActive = 0;
  uint64_t SessionsFailed = 0;   ///< Malformed input / ceilings / kills.
  uint64_t SessionsTimedOut = 0; ///< Subset of failed: idle-timeout kills.
  uint64_t SessionsRejected = 0; ///< Accepts refused by MaxSessions.
  uint64_t StatusRequests = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t EventsTotal = 0; ///< Closed + live sessions.
  uint64_t RacesTotal = 0;
  std::vector<SessionMetricsSnapshot> Sessions; ///< Live sessions only.
};

/// The daemon. Construct, start(), then run() on the serving thread.
class Server {
public:
  explicit Server(ServeOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listener and spawns the worker pool. Returns false with a
  /// reason in \p Error (nothing half-started: failure cleans up).
  bool start(std::string &Error);

  /// The I/O loop; blocks until requestStop(), or requestDrain() plus the
  /// last session flushing. Call at most once, after start().
  void run();

  /// Async-signal-safe shutdown requests (SIGTERM → drain, SIGINT twice →
  /// stop is the CLI's convention).
  void requestDrain();
  void requestStop();

  /// Live counters; callable from any thread while run() executes.
  ServeMetrics metricsSnapshot();

  /// The status document (schema: docs/serve.md). Same bytes a `status`
  /// handshake gets on the socket.
  void writeStatusJson(std::ostream &OS);

  /// Chrome trace with one timeline row per session (TraceSessions runs;
  /// complete once run() returned).
  void writeChromeTrace(std::ostream &OS);

private:
  struct Conn {
    int Fd = -1;
    std::shared_ptr<Session> Sess;
    std::string OutPending; ///< Taken from the session, not yet written.
    bool ReadClosed = false;
  };

  void ioRound(std::vector<pollfd> &Fds);
  void acceptReady();
  void readConn(Conn &C);
  void flushConn(Conn &C);
  void closeConn(size_t Index);
  void scheduleSession(const std::shared_ptr<Session> &S);
  /// Queues a session that is already claimed.
  void enqueue(std::shared_ptr<Session> S);
  void beginDrain();
  void sweepIdle(uint64_t NowNs);
  void wakeIo();
  void workerLoop();
  void collectSpans(Session &S);

  ServeOptions Opts;
  int UnixFd = -1;
  int WakeRead = -1;
  std::atomic<int> WakeWrite{-1}; ///< Signal handlers write here.
  std::atomic<bool> DrainRequested{false};
  std::atomic<bool> StopRequested{false};
  bool Draining = false;
  uint64_t StartNs = 0;

  /// Connection table; I/O thread only.
  std::vector<Conn> Conns;
  uint64_t NextSessionId = 1;

  /// Work queue feeding the pool.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<Session>> Queue;
  bool WorkersStop = false;
  std::vector<std::thread> Workers;

  /// Counters + live-session index, shared with metricsSnapshot callers.
  std::mutex StatsMu;
  ServeMetrics Totals; ///< Sessions vector unused here; filled on demand.
  std::map<uint64_t, std::shared_ptr<Session>> Live;
  std::vector<SessionSpan> Timeline;
};

} // namespace serve
} // namespace crd

#endif // CRD_SERVE_SERVER_H
