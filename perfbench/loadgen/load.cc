#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <latch>
#include <memory>
#include <thread>
#include <unordered_map>

#include "net/client.h"

namespace perfbench {

using ctdb::net::Client;
using ctdb::net::Request;
using ctdb::net::Response;

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return "query";
    case OpKind::kRegister: return "register";
    case OpKind::kReplace: return "replace";
    case OpKind::kUnregister: return "unregister";
    case OpKind::kAppend: return "append";
    case OpKind::kOpen: return "stream_open";
    case OpKind::kClose: return "stream_close";
  }
  return "?";
}

namespace {

std::unique_ptr<Client> Connect(uint16_t port) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto client = Client::Connect("127.0.0.1", port);
    if (client.ok()) return std::move(*client);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return nullptr;
}

/// \brief A pipelined connection for the open loop: requests go out when
/// due, whatever is still in flight, and responses are matched by
/// correlation id as they arrive. (net::Client reads frames blocking and
/// buffers ahead, so it cannot be polled for the next response.)
class PipelinedConnection {
 public:
  static std::unique_ptr<PipelinedConnection> Connect(uint16_t port) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return nullptr;
    }
    return std::unique_ptr<PipelinedConnection>(new PipelinedConnection(fd));
  }

  ~PipelinedConnection() { close(fd_); }
  PipelinedConnection(const PipelinedConnection&) = delete;
  PipelinedConnection& operator=(const PipelinedConnection&) = delete;

  bool Send(const Request& request) {
    const std::string frame = ctdb::net::EncodeRequestFrame(request);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = write(fd_, frame.data() + sent, frame.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Waits until data arrives or `deadline_us` passes, then appends every
  /// whole response frame received to `out`. False on a transport error.
  bool Poll(double deadline_us, std::vector<Response>* out) {
    const double wait_us = deadline_us - NowMicros();
    timespec timeout{};
    if (wait_us > 0) {
      timeout.tv_sec = static_cast<time_t>(wait_us / 1e6);
      timeout.tv_nsec = static_cast<long>((wait_us - timeout.tv_sec * 1e6) * 1e3);
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    char buf[64 * 1024];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<size_t>(n));
    size_t offset = 0;
    while (true) {
      std::string_view payload;
      const ctdb::net::FrameScan scan =
          ctdb::net::ScanFrame(buffer_, &offset, &payload);
      if (scan == ctdb::net::FrameScan::kNeedMore) break;
      if (scan == ctdb::net::FrameScan::kCorrupt) return false;
      Response response;
      if (!ctdb::net::DecodeResponsePayload(payload, &response).ok()) return false;
      out->push_back(std::move(response));
    }
    buffer_.erase(0, offset);
    return true;
  }

 private:
  explicit PipelinedConnection(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
};

class ClientRunner {
 public:
  ClientRunner(const PhaseOptions& options, size_t index, ClientPlan* plan,
               ClientResult* result)
      : options_(options), index_(index), plan_(plan), result_(result) {}

  /// Connects; false on failure.
  bool Prepare() {
    if (options_.open_loop) {
      pipe_ = PipelinedConnection::Connect(options_.port);
      return pipe_ != nullptr;
    }
    client_ = Connect(options_.port);
    return client_ != nullptr;
  }

  void Run(double start_us) {
    result_->records.resize(plan_->ops.size());
    for (size_t i = 0; i < plan_->ops.size(); ++i) {
      result_->records[i].kind = plan_->ops[i].kind;
      result_->records[i].due_us = start_us + plan_->ops[i].due_s * 1e6;
    }
    if (options_.open_loop) {
      RunOpen();
    } else {
      RunClosed();
    }
  }

 private:
  /// What an operation in flight needs when its response arrives.
  struct InFlight {
    size_t index = 0;
    uint64_t span = 0;
    std::string name;     ///< kRegister: the contract name sent
    uint32_t target = 0;  ///< kReplace / kUnregister: the contract id sent
  };

  uint64_t NextId() { return (uint64_t{index_ + 1} << 40) | ++sequence_; }

  void RunClosed() {
    for (size_t i = 0; i < plan_->ops.size(); ++i) {
      OpRecord* rec = &result_->records[i];
      InFlight flight;
      flight.index = i;
      Request request;
      if (!Build(plan_->ops[i], rec, &flight, &request)) continue;
      rec->sent_us = NowMicros();
      auto response = client_ != nullptr
                          ? client_->Call(request)
                          : ctdb::Result<Response>(ctdb::Status::Unavailable("no connection"));
      rec->done_us = NowMicros();
      if (!response.ok()) client_ = Connect(options_.port);
      Finish(flight, response.ok() ? &*response : nullptr);
    }
  }

  /// Sends each operation at its due time and collects responses as they
  /// arrive; a slow answer delays no later request.
  void RunOpen() {
    std::unordered_map<uint64_t, InFlight> in_flight;
    size_t next = 0;
    std::vector<Response> arrived;
    constexpr double kGiveUpUs = 60e6;
    double last_progress = NowMicros();
    while (next < plan_->ops.size() || !in_flight.empty()) {
      const double now = NowMicros();
      if (next < plan_->ops.size() && now >= result_->records[next].due_us) {
        OpRecord* rec = &result_->records[next];
        InFlight flight;
        flight.index = next++;
        Request request;
        if (!Build(plan_->ops[flight.index], rec, &flight, &request)) continue;
        rec->sent_us = NowMicros();
        if (!pipe_->Send(request)) break;
        in_flight.emplace(rec->request, std::move(flight));
        continue;
      }
      const double deadline = next < plan_->ops.size()
                                  ? result_->records[next].due_us
                                  : now + 100e3;
      arrived.clear();
      if (!pipe_->Poll(deadline, &arrived)) break;
      const double done = NowMicros();
      for (const Response& response : arrived) {
        auto it = in_flight.find(response.id);
        if (it == in_flight.end()) continue;
        result_->records[it->second.index].done_us = done;
        Finish(it->second, &response);
        in_flight.erase(it);
        last_progress = done;
      }
      if (done - last_progress > kGiveUpUs) break;
    }
    // Whatever was not answered (or sent) failed in transport.
    for (auto& [id, flight] : in_flight) {
      result_->records[flight.index].done_us = NowMicros();
      Finish(flight, nullptr);
    }
    for (; next < plan_->ops.size(); ++next) {
      result_->records[next].outcome = Outcome::kTransport;
    }
  }

  /// Builds the request for `op`; false (with the record failed) when the
  /// client has nothing to send it to.
  bool Build(const Op& op, OpRecord* rec, InFlight* flight, Request* request) {
    const Inputs& in = *options_.inputs;
    std::string key;
    const uint64_t id = NextId();
    switch (op.kind) {
      case OpKind::kQuery:
        *request = Request::Query(id, in.queries[op.arg]);
        key = QueryKey(in.queries[op.arg]);
        break;
      case OpKind::kRegister:
        flight->name = plan_->name_prefix + std::to_string(registered_++);
        *request = Request::Register(id, flight->name, in.texts[op.arg]);
        key = RegisterKey(flight->name);
        break;
      case OpKind::kReplace:
      case OpKind::kUnregister:
        if (plan_->owned.empty()) {
          rec->outcome = Outcome::kError;
          return false;
        }
        flight->target = plan_->owned[op.target % plan_->owned.size()];
        *request = op.kind == OpKind::kReplace
                       ? Request::Replace(id, flight->target, in.texts[op.arg])
                       : Request::Unregister(id, flight->target);
        key = ContractKey(flight->target);
        break;
      case OpKind::kAppend:
        *request = Request::StreamAppend(id, session_, plan_->batches[op.arg]);
        key = StreamKey('A', session_);
        rec->instants = static_cast<uint32_t>(plan_->batches[op.arg].size());
        break;
      case OpKind::kOpen:
      case OpKind::kClose: {
        const std::string name = plan_->stream + "-" + std::to_string(op.arg);
        *request = op.kind == OpKind::kOpen ? Request::StreamOpen(id, name)
                                            : Request::StreamClose(id, name);
        key = StreamKey(op.kind == OpKind::kOpen ? 'O' : 'C', name);
        if (op.kind == OpKind::kOpen) session_ = name;
        break;
      }
    }
    rec->request = id;
    if (options_.spans != nullptr && options_.spans->enabled()) {
      flight->span = options_.spans->NextId();
      options_.correlator->Expect(key, id, flight->span);
    }
    return true;
  }

  /// Classifies the answer (nullptr: transport failure) and records the
  /// client span.
  void Finish(const InFlight& flight, const Response* response) {
    OpRecord* rec = &result_->records[flight.index];
    const Op& op = plan_->ops[flight.index];
    if (response == nullptr) {
      rec->outcome = Outcome::kTransport;
    } else if (response->code == ctdb::StatusCode::kUnavailable) {
      rec->outcome = Outcome::kShed;
    } else if (response->code != ctdb::StatusCode::kOk) {
      rec->outcome = Outcome::kError;
    } else {
      Accept(op, *response, flight, rec);
    }
    if (flight.span != 0) {
      Span span;
      span.name = std::string("client.") + OpKindName(op.kind);
      span.id = flight.span;
      span.request = rec->request;
      span.start_us = rec->sent_us;
      span.end_us = rec->done_us;
      span.attrs = {{"lag_us", options_.open_loop ? rec->sent_us - rec->due_us : 0},
                    {"ok", rec->outcome == Outcome::kOk ? 1 : 0}};
      options_.spans->Add(std::move(span));
    }
  }

  /// Checks an OK response and applies its effect to the client's state.
  void Accept(const Op& op, const Response& r, const InFlight& flight,
              OpRecord* rec) {
    const Inputs& in = *options_.inputs;
    switch (op.kind) {
      case OpKind::kQuery:
        if (r.answers.size() != 1) {
          rec->outcome = Outcome::kWrong;
          return;
        }
        rec->server_us = r.answers[0].total_us;
        if (!in.expected.empty() && r.answers[0].matches != in.expected[op.arg]) {
          rec->outcome = Outcome::kWrong;
        }
        return;
      case OpKind::kRegister:
        if (r.ids.size() != 1) {
          rec->outcome = Outcome::kWrong;
          return;
        }
        plan_->owned.push_back(r.ids[0]);
        result_->acks.push_back({op.kind, r.ids[0], op.arg, flight.name});
        result_->user_bytes += flight.name.size() + in.texts[op.arg].size();
        return;
      case OpKind::kReplace:
        result_->acks.push_back({op.kind, flight.target, op.arg, {}});
        result_->user_bytes += in.texts[op.arg].size();
        return;
      case OpKind::kUnregister: {
        result_->acks.push_back({op.kind, flight.target, 0, {}});
        auto& owned = plan_->owned;
        owned[op.target % owned.size()] = owned.back();
        owned.pop_back();
        return;
      }
      case OpKind::kAppend:
        rec->stepped = r.stepped;
        rec->pruned = r.pruned;
        result_->deltas.push_back(r.verdicts);
        return;
      case OpKind::kOpen:
        return;
      case OpKind::kClose:
        result_->close_verdicts.push_back(r.verdicts);
        return;
    }
  }

  const PhaseOptions& options_;
  const size_t index_;
  ClientPlan* plan_;
  ClientResult* result_;
  std::unique_ptr<Client> client_;             ///< closed loop
  std::unique_ptr<PipelinedConnection> pipe_;  ///< open loop
  uint64_t sequence_ = 0;
  size_t registered_ = 0;
  std::string session_;  ///< the stream session appends go to
};

}  // namespace

std::vector<ClientResult> RunPhase(const PhaseOptions& options,
                                   std::vector<ClientPlan>* plans) {
  const size_t n = plans->size();
  std::vector<ClientResult> results(n);
  std::latch ready(static_cast<std::ptrdiff_t>(n));
  std::latch go(1);
  std::atomic<double> start_us{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ClientRunner runner(options, i, &(*plans)[i], &results[i]);
      const bool connected = runner.Prepare();
      ready.count_down();
      go.wait();
      if (!connected) {
        for (const Op& op : (*plans)[i].ops) {
          OpRecord rec;
          rec.kind = op.kind;
          rec.outcome = Outcome::kTransport;
          results[i].records.push_back(rec);
        }
        return;
      }
      runner.Run(start_us.load());
    });
  }
  ready.wait();
  start_us.store(NowMicros() + 2000);
  go.count_down();
  for (std::thread& t : threads) t.join();
  return results;
}

}  // namespace perfbench
