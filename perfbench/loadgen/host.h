// Where the server under test runs, and the benchmark-side tracing around it.
//
// Untraced runs drive the unmodified ctdb_server binary as a child process
// (ServerProcess). Traced runs host net::Server in the benchmark's own
// process over TracingBroker, a broker::Broker decorator that forwards every
// call to the real DurableDatabase / ShardedDatabase and records one span
// per call, carrying the per-call stats the public API returns. All timing
// happens here, around calls into public functions; nothing inside the
// program is instrumented for the benchmark.

#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "net/server.h"
#include "util/result.h"

namespace perfbench {

/// Microseconds on the steady clock since the process started measuring.
double NowMicros();

/// \brief A ctdb_server child process. The destructor SIGKILLs and reaps
/// it if it is still running, so no server outlives the benchmark.
class ServerProcess {
 public:
  /// Spawns `binary args...`, with stderr appended to `log_path`, and waits
  /// (at most `timeout_s`) for its "listening on host:port" line.
  static ctdb::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, double timeout_s = 120);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Peak resident set (VmHWM) so far, in MiB; 0 when unreadable.
  double PeakRssMiB() const;
  /// SIGKILL and reap.
  void Kill();
  /// SIGTERM (graceful drain) and reap; OK when the server exited 0.
  ctdb::Status Stop();

 private:
  ServerProcess() = default;
  void Reap(int* exit_status);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One recorded span. `parent` 0 marks a root; spans of one wire request
/// share `request` (the wire correlation id).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  double start_us = 0;
  double end_us = 0;
  std::vector<std::pair<const char*, double>> attrs;

  double duration_us() const { return end_us - start_us; }
  double attr(const char* key, double fallback = 0) const;
};

/// \brief In-memory span store, written out as JSON lines at the end.
class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Span span);
  /// Recording switch (off during preload and warm-up).
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }
  /// Moves every recorded span out (call once the traffic has stopped).
  std::vector<Span> Take();
  static ctdb::Status WriteJsonLines(const std::vector<Span>& spans,
                                     const std::string& path);

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// \brief Hands the wire correlation id of a request to the server-side
/// span. The client registers (key, id, client span) before it sends; the
/// decorator takes the oldest entry under the same key. The key is the
/// operation plus its distinguishing argument (query text, contract name,
/// contract id or stream name), so concurrent identical queries are the
/// only case where two ids could swap — with no effect on their timings.
class Correlator {
 public:
  void Expect(const std::string& key, uint64_t request, uint64_t parent);
  /// Pops the oldest (request, parent) registered under `key`.
  bool Take(const std::string& key, uint64_t* request, uint64_t* parent);

 private:
  std::mutex mutex_;
  std::map<std::string, std::deque<std::pair<uint64_t, uint64_t>>> pending_;
};

/// Correlation keys shared by the load generator and the decorator.
std::string QueryKey(std::string_view ltl);
std::string RegisterKey(std::string_view name);
std::string ContractKey(uint32_t id);  ///< Replace / Unregister
/// `op` is 'O' (open), 'A' (append) or 'C' (close).
std::string StreamKey(char op, std::string_view stream);

/// \brief Broker decorator recording one span per call.
class TracingBroker : public ctdb::broker::Broker {
 public:
  TracingBroker(ctdb::broker::Broker* inner, SpanLog* log,
                Correlator* correlator)
      : inner_(inner), log_(log), correlator_(correlator) {}

  ctdb::Result<uint32_t> Register(
      std::string name, std::string_view ltl_text,
      ctdb::broker::RegistrationStats* stats = nullptr) override;
  /// Batches (the preload) are forwarded untraced.
  ctdb::Result<std::vector<uint32_t>> RegisterBatch(
      const std::vector<ctdb::broker::ContractDatabase::BatchEntry>& entries)
      override {
    return inner_->RegisterBatch(entries);
  }
  ctdb::Result<uint64_t> Unregister(uint32_t id) override;
  ctdb::Result<uint64_t> Replace(
      uint32_t id, std::string_view ltl_text,
      ctdb::broker::RegistrationStats* stats = nullptr) override;
  ctdb::Result<ctdb::broker::QueryResult> Query(
      std::string_view ltl_text,
      const ctdb::broker::QueryOptions& options = {}) const override;
  ctdb::Result<std::vector<ctdb::broker::QueryResult>> QueryBatch(
      const std::vector<std::string>& queries,
      const ctdb::broker::QueryOptions& options = {}) const override {
    return inner_->QueryBatch(queries, options);
  }
  ctdb::Result<ctdb::monitor::StreamOpenInfo> StreamOpen(
      std::string name,
      const ctdb::monitor::StreamOptions& options = {}) override;
  ctdb::Result<ctdb::monitor::StreamAppendResult> StreamAppend(
      std::string_view name,
      const ctdb::monitor::EventBatch& events) override;
  ctdb::Result<ctdb::monitor::StreamCloseInfo> StreamClose(
      std::string_view name) override;
  ctdb::Status Checkpoint() override { return inner_->Checkpoint(); }
  ctdb::Status Close() override { return inner_->Close(); }
  size_t size() const override { return inner_->size(); }
  uint64_t last_sequence() const override { return inner_->last_sequence(); }
  ctdb::obs::MetricsSnapshot Metrics() const override {
    return inner_->Metrics();
  }

 private:
  /// Records span `name` over [start, now) when recording is on.
  void Record(const char* name, const std::string& key, double start_us,
              bool ok,
              std::vector<std::pair<const char*, double>> attrs) const;

  ctdb::broker::Broker* inner_;
  SpanLog* log_;
  Correlator* correlator_;
};

/// \brief net::Server hosted in this process over a TracingBroker.
class TracedHost {
 public:
  /// Opens a DurableDatabase in `dir` (shards == 0) or a ShardedDatabase
  /// with `shards` shards, with ctdb_server's default options.
  static ctdb::Result<std::unique_ptr<TracedHost>> Start(
      const std::string& dir, size_t shards, SpanLog* log,
      Correlator* correlator);
  ~TracedHost();
  TracedHost(const TracedHost&) = delete;
  TracedHost& operator=(const TracedHost&) = delete;

  uint16_t port() const { return server_->port(); }
  /// The (first shard's) contract database, for out-of-band index timing.
  const ctdb::broker::ContractDatabase& database() const;
  /// Drains the server and closes the database.
  ctdb::Status Stop();

 private:
  TracedHost() = default;

  std::unique_ptr<ctdb::broker::Broker> db_;
  std::unique_ptr<TracingBroker> tracing_;
  std::unique_ptr<ctdb::net::Server> server_;
};

}  // namespace perfbench
