#include "host.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "broker/durable.h"
#include "shard/sharded.h"

extern char** environ;

namespace perfbench {

using ctdb::Result;
using ctdb::Status;

double NowMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// ---------------------------------------------------------------------------
// ServerProcess

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, double timeout_s) {
  int out[2];
  if (pipe(out) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  const int rc = posix_spawn(&proc->pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  if (rc != 0) {
    close(out[0]);
    proc->pid_ = -1;
    return Status::Internal("spawn " + binary + ": " + std::strerror(rc));
  }
  proc->stdout_fd_ = out[0];

  // Read the first stdout line: "listening on <host>:<port>".
  std::string line;
  const double deadline = NowMicros() + timeout_s * 1e6;
  while (line.find('\n') == std::string::npos) {
    const double left_ms = (deadline - NowMicros()) / 1000;
    if (left_ms <= 0) return Status::Unavailable("server start timed out");
    pollfd pfd{proc->stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left_ms) + 1) <= 0) continue;
    char buf[256];
    const ssize_t n = read(proc->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return Status::Unavailable("server exited before listening; see " +
                                 log_path);
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    return Status::Internal("unexpected server banner: " + line);
  }
  proc->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return proc;
}

ServerProcess::~ServerProcess() {
  Kill();
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

double ServerProcess::PeakRssMiB() const {
  if (pid_ < 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void ServerProcess::Reap(int* exit_status) {
  while (waitpid(pid_, exit_status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void ServerProcess::Kill() {
  if (pid_ < 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  Reap(&status);
}

Status ServerProcess::Stop() {
  if (pid_ < 0) return Status::OK();
  kill(pid_, SIGTERM);
  int status = 0;
  Reap(&status);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
  return Status::Internal("server did not exit cleanly");
}

// ---------------------------------------------------------------------------
// Spans

double Span::attr(const char* key, double fallback) const {
  for (const auto& [k, v] : attrs) {
    if (std::strcmp(k, key) == 0) return v;
  }
  return fallback;
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

Status SpanLog::WriteJsonLines(const std::vector<Span>& spans,
                               const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request;
    char times[96];
    std::snprintf(times, sizeof(times), ",\"start_us\":%.1f,\"end_us\":%.1f",
                  s.start_us, s.end_us);
    out << times << ",\"attrs\":{";
    for (size_t i = 0; i < s.attrs.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.6g", s.attrs[i].second);
      out << (i ? "," : "") << '"' << s.attrs[i].first << "\":" << value;
    }
    out << "}}\n";
  }
  out.close();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

void Correlator::Expect(const std::string& key, uint64_t request,
                        uint64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_[key].emplace_back(request, parent);
}

bool Correlator::Take(const std::string& key, uint64_t* request,
                      uint64_t* parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.empty()) return false;
  *request = it->second.front().first;
  *parent = it->second.front().second;
  it->second.pop_front();
  if (it->second.empty()) pending_.erase(it);
  return true;
}

std::string QueryKey(std::string_view ltl) {
  return "Q:" + std::string(ltl);
}
std::string RegisterKey(std::string_view name) {
  return "R:" + std::string(name);
}
std::string ContractKey(uint32_t id) { return "C:" + std::to_string(id); }
std::string StreamKey(char op, std::string_view stream) {
  return std::string("S") + op + ":" + std::string(stream);
}

// ---------------------------------------------------------------------------
// TracingBroker

void TracingBroker::Record(
    const char* name, const std::string& key, double start_us, bool ok,
    std::vector<std::pair<const char*, double>> attrs) const {
  const double end_us = NowMicros();
  if (!log_->enabled()) return;
  Span span;
  span.name = name;
  span.id = log_->NextId();
  span.start_us = start_us;
  span.end_us = end_us;
  if (!key.empty()) correlator_->Take(key, &span.request, &span.parent);
  attrs.emplace_back("ok", ok ? 1 : 0);
  span.attrs = std::move(attrs);
  log_->Add(std::move(span));
}

namespace {

std::vector<std::pair<const char*, double>> RegistrationAttrs(
    const ctdb::broker::RegistrationStats& s) {
  return {{"translate_us", s.translate_ms * 1e3},
          {"prefilter_insert_us", s.prefilter_insert_ms * 1e3},
          {"projection_us", s.projection_precompute_ms * 1e3}};
}

}  // namespace

Result<uint32_t> TracingBroker::Register(
    std::string name, std::string_view ltl_text,
    ctdb::broker::RegistrationStats* stats) {
  ctdb::broker::RegistrationStats local;
  const std::string key = RegisterKey(name);
  const double start = NowMicros();
  auto result = inner_->Register(std::move(name), ltl_text, &local);
  Record("broker.register", key, start, result.ok(), RegistrationAttrs(local));
  if (stats != nullptr) *stats = local;
  return result;
}

Result<uint64_t> TracingBroker::Unregister(uint32_t id) {
  const double start = NowMicros();
  auto result = inner_->Unregister(id);
  Record("broker.unregister", ContractKey(id), start, result.ok(), {});
  return result;
}

Result<uint64_t> TracingBroker::Replace(
    uint32_t id, std::string_view ltl_text,
    ctdb::broker::RegistrationStats* stats) {
  ctdb::broker::RegistrationStats local;
  const double start = NowMicros();
  auto result = inner_->Replace(id, ltl_text, &local);
  Record("broker.replace", ContractKey(id), start, result.ok(),
         RegistrationAttrs(local));
  if (stats != nullptr) *stats = local;
  return result;
}

Result<ctdb::broker::QueryResult> TracingBroker::Query(
    std::string_view ltl_text,
    const ctdb::broker::QueryOptions& options) const {
  const double start = NowMicros();
  auto result = inner_->Query(ltl_text, options);
  std::vector<std::pair<const char*, double>> attrs;
  if (result.ok()) {
    const ctdb::broker::QueryStats& s = result->stats;
    attrs = {{"translate_us", s.translate_ms * 1e3},
             {"prefilter_us", s.prefilter_ms * 1e3},
             {"permission_us", s.permission_ms * 1e3},
             {"total_us", s.total_ms * 1e3},
             {"database_size", static_cast<double>(s.database_size)},
             {"candidates", static_cast<double>(s.candidates)},
             {"matches", static_cast<double>(s.matches)},
             {"cache_hit", s.translate_cache_hit ? 1.0 : 0.0},
             {"pairs_visited", static_cast<double>(s.permission.pairs_visited)},
             {"cycle_pairs", static_cast<double>(s.permission.cycle_pairs)}};
  }
  Record("broker.query", QueryKey(ltl_text), start, result.ok(),
         std::move(attrs));
  return result;
}

Result<ctdb::monitor::StreamOpenInfo> TracingBroker::StreamOpen(
    std::string name, const ctdb::monitor::StreamOptions& options) {
  const std::string key = StreamKey('O', name);
  const double start = NowMicros();
  auto result = inner_->StreamOpen(std::move(name), options);
  Record("broker.stream_open", key, start, result.ok(),
         {{"tracked", result.ok() ? static_cast<double>(result->tracked) : 0}});
  return result;
}

Result<ctdb::monitor::StreamAppendResult> TracingBroker::StreamAppend(
    std::string_view name, const ctdb::monitor::EventBatch& events) {
  const double start = NowMicros();
  auto result = inner_->StreamAppend(name, events);
  std::vector<std::pair<const char*, double>> attrs = {
      {"instants", static_cast<double>(events.size())}};
  if (result.ok()) {
    attrs.emplace_back("stepped", static_cast<double>(result->stepped));
    attrs.emplace_back("pruned", static_cast<double>(result->pruned));
    attrs.emplace_back("deltas", static_cast<double>(result->deltas.size()));
  }
  Record("broker.stream_append", StreamKey('A', name), start, result.ok(),
         std::move(attrs));
  return result;
}

Result<ctdb::monitor::StreamCloseInfo> TracingBroker::StreamClose(
    std::string_view name) {
  const double start = NowMicros();
  auto result = inner_->StreamClose(name);
  Record("broker.stream_close", StreamKey('C', name), start, result.ok(), {});
  return result;
}

// ---------------------------------------------------------------------------
// TracedHost

Result<std::unique_ptr<TracedHost>> TracedHost::Start(const std::string& dir,
                                                      size_t shards,
                                                      SpanLog* log,
                                                      Correlator* correlator) {
  std::unique_ptr<TracedHost> host(new TracedHost());
  const ctdb::wal::DurabilityOptions durability;  // fsync=group, as served
  ctdb::broker::DatabaseOptions options;
  if (shards == 0) {
    CTDB_ASSIGN_OR_RETURN(host->db_, ctdb::broker::DurableDatabase::Open(
                                         dir, durability, options));
  } else {
    options.shards = shards;
    CTDB_ASSIGN_OR_RETURN(host->db_, ctdb::shard::ShardedDatabase::Open(
                                         dir, durability, options));
  }
  host->tracing_ =
      std::make_unique<TracingBroker>(host->db_.get(), log, correlator);
  CTDB_ASSIGN_OR_RETURN(host->server_,
                        ctdb::net::Server::Start(host->tracing_.get()));
  return host;
}

TracedHost::~TracedHost() { (void)Stop(); }

const ctdb::broker::ContractDatabase& TracedHost::database() const {
  if (auto* sharded = dynamic_cast<const ctdb::shard::ShardedDatabase*>(db_.get())) {
    return sharded->shard(0).database();
  }
  return static_cast<const ctdb::broker::DurableDatabase&>(*db_).database();
}

Status TracedHost::Stop() {
  if (server_ == nullptr) return Status::OK();
  const Status drained = server_->Shutdown();
  server_.reset();
  const Status closed = db_->Close();
  return drained.ok() ? closed : drained;
}

}  // namespace perfbench
