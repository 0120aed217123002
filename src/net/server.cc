#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "broker/broker.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ctdb::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// Per-connection state. The event loop owns the socket and the read side;
/// the outbound buffer is shared with workers under `out_mutex`.
struct Server::Connection {
  int fd = -1;

  // --- event-loop-thread state ------------------------------------------
  std::string inbuf;
  size_t in_pos = 0;          ///< parse offset into inbuf
  bool read_closed = false;   ///< EOF seen, or reads abandoned for good
  bool close_after_flush = false;
  bool paused = false;        ///< reads paused by outbound backpressure

  // --- shared with workers ----------------------------------------------
  std::mutex out_mutex;
  std::string outbuf;         ///< bytes [out_pos, size) await the socket
  size_t out_pos = 0;
  bool dead = false;          ///< socket closed; further appends discarded
  std::atomic<size_t> in_flight{0};  ///< requests executing for this conn

  /// Appends a frame for the loop to flush. Returns false when the
  /// connection already died (the frame is dropped).
  bool Append(std::string_view frame) {
    std::lock_guard<std::mutex> lock(out_mutex);
    if (dead) return false;
    outbuf.append(frame);
    return true;
  }

  size_t PendingOut() {
    std::lock_guard<std::mutex> lock(out_mutex);
    return outbuf.size() - out_pos;
  }
};

/// The poll(2) event loop (see server.h for the architecture comment).
class Server::Loop {
 public:
  explicit Loop(Server* server) : server_(*server) {}

  void Run() {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Connection>> polled;
    bool drain_seen = false;
    std::chrono::steady_clock::time_point drain_deadline{};

    for (;;) {
      const bool draining = server_.draining();
      if (draining && !drain_seen) {
        drain_seen = true;
        drain_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(
                             server_.options_.drain_timeout_ms);
        CloseListener();
      }

      ReapConnections(draining);
      if (draining) {
        if (conns_.empty()) break;
        if (std::chrono::steady_clock::now() >= drain_deadline) {
          for (auto& [fd, conn] : conns_) CloseSocket(*conn);
          conns_.clear();
          break;
        }
      }

      fds.clear();
      polled.clear();
      fds.push_back({server_.wake_read_fd_, POLLIN, 0});
      if (!draining && server_.listen_fd_ >= 0) {
        fds.push_back({server_.listen_fd_, POLLIN, 0});
      }
      const size_t first_conn = fds.size();
      for (auto& [fd, conn] : conns_) {
        short events = 0;
        if (!draining && !conn->read_closed && !conn->paused) events |= POLLIN;
        if (conn->PendingOut() > 0) events |= POLLOUT;
        if (events == 0) continue;
        fds.push_back({fd, events, 0});
        polled.push_back(conn);
      }

      const int timeout_ms = draining ? 20 : 200;
      const int n = poll(fds.data(), fds.size(), timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // unrecoverable poll failure; shut down
      }

      if (fds[0].revents & POLLIN) DrainWakePipe();
      if (!draining && first_conn == 2 && (fds[1].revents & POLLIN)) {
        AcceptConnections();
      }
      for (size_t i = first_conn; i < fds.size(); ++i) {
        const auto& conn = polled[i - first_conn];
        if (conn->fd < 0) continue;  // closed by an earlier event this round
        if (fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) {
          FlushConnection(*conn);
        }
        if (conn->fd >= 0 && (fds[i].revents & (POLLIN | POLLHUP))) {
          HandleReadable(conn);
        }
      }
      // Workers appended responses since the last poll; flush eagerly so a
      // response never waits for the next POLLOUT round trip.
      for (auto& [fd, conn] : conns_) {
        if (conn->PendingOut() > 0) FlushConnection(*conn);
        UpdateBackpressure(*conn);
      }
    }
    CloseListener();
  }

 private:
  void DrainWakePipe() {
    char buf[256];
    while (read(server_.wake_read_fd_, buf, sizeof buf) > 0) {
    }
  }

  void CloseListener() {
    if (server_.listen_fd_ >= 0) {
      close(server_.listen_fd_);
      server_.listen_fd_ = -1;
    }
  }

  void AcceptConnections() {
    for (;;) {
      const int fd = accept4(server_.listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure: try next round
      }
      if (conns_.size() >= server_.options_.max_connections) {
        close(fd);
        CTDB_OBS_COUNT("net.accept.rejected", 1);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conns_.emplace(fd, std::move(conn));
      server_.connections_.fetch_add(1, std::memory_order_acq_rel);
      CTDB_OBS_COUNT("net.connections.accepted", 1);
      CTDB_OBS_GAUGE_ADD("net.connections.active", 1);
    }
  }

  void HandleReadable(const std::shared_ptr<Connection>& conn) {
    char buf[64 * 1024];
    // Bounded rounds so one fast writer cannot monopolize the loop.
    for (int round = 0; round < 16 && !conn->read_closed; ++round) {
      const ssize_t n = read(conn->fd, buf, sizeof buf);
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        CTDB_OBS_COUNT("net.bytes.in", static_cast<uint64_t>(n));
        if (static_cast<size_t>(n) < sizeof buf) break;
      } else if (n == 0) {
        // Peer finished sending; answer what we already have, then close.
        conn->read_closed = true;
        conn->close_after_flush = true;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else if (errno != EINTR) {
        CloseConnection(*conn);
        return;
      }
    }
    ParseFrames(conn);
  }

  void ParseFrames(const std::shared_ptr<Connection>& conn) {
    const std::string_view data(conn->inbuf);
    size_t offset = conn->in_pos;
    while (conn->fd >= 0 && !conn->dead) {
      std::string_view payload;
      const FrameScan scan = ScanFrame(data, &offset, &payload);
      if (scan == FrameScan::kNeedMore) break;
      if (scan == FrameScan::kCorrupt) {
        ProtocolError(*conn, Status::Corruption("invalid frame"));
        break;
      }
      CTDB_OBS_COUNT("net.frames.in", 1);
      Request request;
      const Status status = DecodeRequestPayload(payload, &request);
      if (!status.ok()) {
        ProtocolError(*conn, status);
        break;
      }
      Dispatch(conn, std::move(request));
    }
    conn->in_pos = offset;
    // Compact once the parsed prefix dominates the buffer.
    if (conn->in_pos > 4096 && conn->in_pos * 2 >= conn->inbuf.size()) {
      conn->inbuf.erase(0, conn->in_pos);
      conn->in_pos = 0;
    }
  }

  /// A framing violation is unrecoverable on a byte stream: answer with one
  /// final error frame (correlation id 0 — the request id is unknowable),
  /// stop reading, and close once the error is flushed.
  void ProtocolError(Connection& conn, const Status& status) {
    CTDB_OBS_COUNT("net.protocol_errors", 1);
    Response response;
    response.id = 0;
    response.request_kind = MsgKind::kQuery;
    response.code = status.code();
    response.message = status.message();
    conn.Append(EncodeResponseFrame(response));
    CTDB_OBS_COUNT("net.frames.out", 1);
    conn.read_closed = true;
    conn.close_after_flush = true;
    conn.inbuf.clear();
    conn.in_pos = 0;
  }

  /// Admission control: executes the request on the pool, or load-sheds
  /// with an immediate Unavailable response when max_pending is reached.
  void Dispatch(const std::shared_ptr<Connection>& conn, Request request) {
    Server& server = server_;
    const size_t was =
        server.pending_.fetch_add(1, std::memory_order_acq_rel);
    if (was >= server.options_.max_pending) {
      server.pending_.fetch_sub(1, std::memory_order_acq_rel);
      CTDB_OBS_COUNT("net.shed", 1);
      conn->Append(EncodeResponseFrame(Response::Error(
          request,
          Status::Unavailable("server overloaded: request queue full"))));
      CTDB_OBS_COUNT("net.frames.out", 1);
      return;
    }
    CTDB_OBS_GAUGE_ADD("net.queue.depth", 1);
    conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
    server.pool_->Submit([&server, conn, request = std::move(request)] {
      const Timer timer;
      Response response = ExecuteRequest(server.db_, request);
      CTDB_OBS_HIST("net.request_us",
                    static_cast<uint64_t>(timer.ElapsedMicros()));
      CTDB_OBS_COUNT("net.requests", 1);
      if (conn->Append(EncodeResponseFrame(response))) {
        CTDB_OBS_COUNT("net.frames.out", 1);
      }
      conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      server.pending_.fetch_sub(1, std::memory_order_acq_rel);
      CTDB_OBS_GAUGE_ADD("net.queue.depth", -1);
      server.Wake();
    });
  }

  /// Non-blocking write of whatever the outbound buffer holds.
  void FlushConnection(Connection& conn) {
    std::lock_guard<std::mutex> lock(conn.out_mutex);
    if (conn.fd < 0) return;
    while (conn.out_pos < conn.outbuf.size()) {
      const ssize_t n =
          send(conn.fd, conn.outbuf.data() + conn.out_pos,
               conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
        CTDB_OBS_COUNT("net.bytes.out", static_cast<uint64_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        CloseSocketLocked(conn);
        return;
      }
    }
    if (conn.out_pos == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_pos = 0;
    } else if (conn.out_pos > (1u << 20)) {
      conn.outbuf.erase(0, conn.out_pos);
      conn.out_pos = 0;
    }
  }

  /// Pauses reads while a slow reader's responses pile up past the cap;
  /// resumes below half of it.
  void UpdateBackpressure(Connection& conn) {
    if (conn.fd < 0) return;
    const size_t pending = conn.PendingOut();
    if (!conn.paused && pending > server_.options_.max_outbound_bytes) {
      conn.paused = true;
      CTDB_OBS_COUNT("net.backpressure.pauses", 1);
    } else if (conn.paused &&
               pending < server_.options_.max_outbound_bytes / 2) {
      conn.paused = false;
    }
  }

  /// Closes connections that finished: nothing left to read, execute or
  /// flush. During drain every connection is "finished" once idle.
  void ReapConnections(bool draining) {
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      // ParseFrames dispatches every complete frame it sees, so leftover
      // inbuf bytes are always a partial frame — nothing pending there.
      const bool idle = conn.in_flight.load(std::memory_order_acquire) == 0 &&
                        conn.PendingOut() == 0;
      const bool done = (conn.close_after_flush || draining) && idle;
      if (conn.fd < 0 || done) {
        if (conn.fd >= 0) CloseSocket(conn);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void CloseSocket(Connection& conn) {
    std::lock_guard<std::mutex> lock(conn.out_mutex);
    CloseSocketLocked(conn);
  }

  void CloseSocketLocked(Connection& conn) {
    if (conn.fd < 0) return;
    close(conn.fd);
    conn.fd = -1;
    conn.dead = true;
    server_.connections_.fetch_sub(1, std::memory_order_acq_rel);
    CTDB_OBS_GAUGE_ADD("net.connections.active", -1);
  }

  void CloseConnection(Connection& conn) { CloseSocket(conn); }

  Server& server_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
};

Result<std::unique_ptr<Server>> Server::Start(broker::Broker* db,
                                              const ServerOptions& options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  std::unique_ptr<Server> server(new Server);
  server->db_ = db;
  server->options_ = options;
  if (server->options_.workers == 0) server->options_.workers = 1;
  if (server->options_.max_pending == 0) server->options_.max_pending = 1;

  const int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Errno("socket");
  server->listen_fd_ = listen_fd;
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable host " + options.host);
  }
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return Errno("bind");
  }
  if (listen(listen_fd, 128) != 0) return Errno("listen");
  if (!SetNonBlocking(listen_fd)) return Errno("fcntl");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) return Errno("pipe2");
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];

  server->pool_ = std::make_unique<util::ThreadPool>(server->options_.workers);
  server->loop_ = std::make_unique<Loop>(server.get());
  server->loop_thread_ = std::thread([loop = server->loop_.get()] {
    loop->Run();
  });
  return server;
}

Server::~Server() { Shutdown(); }

void Server::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  Wake();
}

void Server::Wake() {
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    // A full pipe means a wakeup is already pending — nothing to do.
    [[maybe_unused]] const ssize_t n = write(wake_write_fd_, &byte, 1);
  }
}

Status Server::Shutdown() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return Status::OK();
  }
  RequestDrain();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Workers may still be finishing requests whose connections were force
  // closed; draining the pool joins them before the pipe goes away.
  pool_.reset();
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  return Status::OK();
}

Response ExecuteRequest(broker::Broker* db, const Request& request) {
  Response response;
  response.id = request.id;
  response.request_kind = request.kind;
  switch (request.kind) {
    case MsgKind::kRegister: {
      auto result = db->Register(request.name, request.ltl);
      if (!result.ok()) return Response::Error(request, result.status());
      response.ids.push_back(*result);
      break;
    }
    case MsgKind::kRegisterBatch: {
      std::vector<broker::ContractDatabase::BatchEntry> entries;
      entries.reserve(request.entries.size());
      for (const Request::Entry& entry : request.entries) {
        entries.push_back({entry.name, entry.ltl});
      }
      auto result = db->RegisterBatch(entries);
      if (!result.ok()) return Response::Error(request, result.status());
      response.ids = std::move(*result);
      break;
    }
    case MsgKind::kQuery: {
      broker::QueryOptions options;
      options.as_of = request.as_of;
      auto result = db->Query(request.ltl, options);
      if (!result.ok()) return Response::Error(request, result.status());
      Response::Answer answer;
      answer.matches = std::move(result->matches);
      answer.total_us =
          static_cast<uint64_t>(result->stats.total_ms * 1000.0);
      answer.candidates = result->stats.candidates;
      response.answers.push_back(std::move(answer));
      break;
    }
    case MsgKind::kQueryBatch: {
      broker::QueryOptions options;
      options.as_of = request.as_of;
      auto result = db->QueryBatch(request.queries, options);
      if (!result.ok()) return Response::Error(request, result.status());
      response.answers.reserve(result->size());
      for (broker::QueryResult& qr : *result) {
        Response::Answer answer;
        answer.matches = std::move(qr.matches);
        answer.total_us = static_cast<uint64_t>(qr.stats.total_ms * 1000.0);
        answer.candidates = qr.stats.candidates;
        response.answers.push_back(std::move(answer));
      }
      break;
    }
    case MsgKind::kCheckpoint: {
      const Status status = db->Checkpoint();
      if (!status.ok()) return Response::Error(request, status);
      response.sequence = db->last_sequence();
      break;
    }
    case MsgKind::kStats: {
      response.stats_json = db->Metrics().ToJson();
      break;
    }
    case MsgKind::kUnregister: {
      auto result = db->Unregister(request.contract_id);
      if (!result.ok()) return Response::Error(request, result.status());
      response.sequence = *result;
      break;
    }
    case MsgKind::kReplace: {
      auto result = db->Replace(request.contract_id, request.ltl);
      if (!result.ok()) return Response::Error(request, result.status());
      response.sequence = *result;
      break;
    }
    case MsgKind::kStreamOpen: {
      monitor::StreamOptions options;
      options.as_of = request.as_of;
      auto result = db->StreamOpen(request.name, options);
      if (!result.ok()) return Response::Error(request, result.status());
      response.sequence = result->clock;
      response.tracked = result->tracked;
      break;
    }
    case MsgKind::kStreamAppend: {
      auto result = db->StreamAppend(request.name, request.events);
      if (!result.ok()) return Response::Error(request, result.status());
      response.events = result->events;
      response.stepped = result->stepped;
      response.pruned = result->pruned;
      response.verdicts = std::move(result->deltas);
      break;
    }
    case MsgKind::kStreamClose: {
      auto result = db->StreamClose(request.name);
      if (!result.ok()) return Response::Error(request, result.status());
      response.events = result->events;
      response.satisfied = result->satisfied;
      response.violated = result->violated;
      response.undetermined = result->undetermined;
      response.verdicts = std::move(result->verdicts);
      break;
    }
    case MsgKind::kResponse:
      return Response::Error(
          request, Status::InvalidArgument("kResponse is not a request"));
  }
  return response;
}

}  // namespace ctdb::net
