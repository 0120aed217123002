// The ctdb network service: a long-running multi-client TCP server in
// front of a broker::Broker — a single DurableDatabase or a sharded
// topology (src/shard) — selected by the caller (DESIGN.md §12).
//
// Architecture: one event-loop thread multiplexes every socket with
// poll(2) — the listener, a self-pipe for cross-thread wakeups, and all
// client connections, each non-blocking. The loop does all socket reads
// and writes; request *execution* happens on the database's own
// util::ThreadPool via Submit, so a slow query never stalls I/O. Workers
// hand finished response frames back by appending to the connection's
// outbound buffer (mutex-guarded) and poking the self-pipe.
//
// Pipelining: a client may send any number of request frames back to back;
// the loop parses every complete frame out of the connection's read buffer
// and dispatches each one. Responses carry the request's correlation id.
//
// Admission control: at most ServerOptions::max_pending requests may be
// queued-or-executing at once. Past that the server load-sheds: it answers
// the overflow request immediately with Status::Unavailable — a response
// frame, never a hang — and counts net.shed.
//
// Backpressure: when a slow reader's outbound buffer exceeds
// max_outbound_bytes, the loop stops reading from (and thus stops
// accepting work from) that connection until the buffer drains below half
// the cap. Memory per connection is therefore bounded by the cap plus one
// frame.
//
// Protocol errors (bad CRC, oversized length) are unrecoverable for a
// byte stream: the server answers with one final error response frame
// (id 0) and closes the connection after flushing — other connections are
// unaffected (the torture tests hold it to that).
//
// Graceful drain (RequestDrain, Shutdown, SIGTERM in tools/ctdb_server):
// stop accepting connections, stop reading new bytes, finish every request
// already received (the WAL group-commit writer flushes as those
// registrations complete), flush every outbound buffer, then close. A
// connection that will not drain its responses is cut off after
// drain_timeout_ms so shutdown always terminates.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "util/result.h"

namespace ctdb::broker {
class Broker;
}
namespace ctdb::util {
class ThreadPool;
}

namespace ctdb::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
  /// Worker threads executing requests, in the server's own pool.
  size_t workers = 4;
  /// Admission-control cap: requests queued-or-executing before load-shed.
  size_t max_pending = 256;
  size_t max_connections = 1024;
  /// Per-connection outbound-buffer cap before reads pause (backpressure).
  size_t max_outbound_bytes = 8u << 20;
  /// Grace period for flushing outbound buffers during drain.
  int drain_timeout_ms = 5000;
};

/// \brief Multi-client TCP front end for a Broker.
///
/// Thread safety: Start/Shutdown/RequestDrain may be called from any
/// thread; RequestDrain is async-signal-safe after Start returned (one
/// relaxed store + one write(2) on the self-pipe).
class Server {
 public:
  /// Binds, listens and starts the event loop. `db` must outlive the
  /// server. With options.port == 0 the kernel picks a free port,
  /// reported by port().
  static Result<std::unique_ptr<Server>> Start(broker::Broker* db,
                                               const ServerOptions& options = {});

  /// Shuts down (gracefully) if still running.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolved when options.port was 0).
  uint16_t port() const { return port_; }

  /// Begins a graceful drain: stop accepting, stop reading, finish
  /// in-flight requests, flush, close. Returns immediately; Shutdown (or
  /// the destructor) joins. Async-signal-safe; idempotent.
  void RequestDrain();

  /// RequestDrain + join the event loop. Idempotent; returns OK once the
  /// loop exited cleanly.
  Status Shutdown();

  /// True once a drain was requested (the server no longer accepts work).
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Requests currently queued or executing (admission-control level).
  size_t pending_requests() const {
    return pending_.load(std::memory_order_acquire);
  }
  /// Currently open client connections.
  size_t connection_count() const {
    return connections_.load(std::memory_order_acquire);
  }

 private:
  struct Connection;
  class Loop;

  Server() = default;

  /// Pokes the self-pipe so a blocked poll() returns (async-signal-safe).
  void Wake();

  broker::Broker* db_ = nullptr;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::unique_ptr<util::ThreadPool> pool_;  ///< runs requests; sized by workers

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<size_t> pending_{0};
  std::atomic<size_t> connections_{0};

  std::unique_ptr<Loop> loop_;
  std::thread loop_thread_;
};

/// Executes one request against the database (shared by the server workers
/// and in-process tests). Never returns a transport error: the outcome —
/// including InvalidArgument for a bad query — is encoded in the Response.
Response ExecuteRequest(broker::Broker* db, const Request& request);

}  // namespace ctdb::net
