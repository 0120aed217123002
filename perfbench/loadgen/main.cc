// perfbench_loadgen: the repository benchmark's load generator.
//
//   perfbench_loadgen --workload read_paper|write_churn|stream_monitor|all
//                    --seed N --seconds S --trace 0|1
//                    --server-bin PATH --work-dir DIR
//
// --trace 0 drives the ctdb_server binary over TCP and prints the
// end-to-end metrics; --trace 1 also replays the same seeded inputs against
// net::Server hosted in this process over a span-recording broker
// decorator, writes the spans as JSON lines under --work-dir and prints the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when any answer was wrong or any operation failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "broker/durable.h"
#include "host.h"
#include "index/pruning.h"
#include "ltl/parser.h"
#include "net/client.h"
#include "shard/sharded.h"
#include "translate/ltl_to_ba.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ctdb::Result;
using ctdb::Status;

/// The tail percentile reported as an end-to-end metric (op_p99_ms).
constexpr double kTailQuantile = 0.99;
/// Set-ups per untraced run; their median is reported.
constexpr size_t kSetupRepeats = 5;
/// Crash-restart cycles per untraced run: at least kMinRestarts, then more
/// until kRestartBudgetS of recovery has been measured (cheap recoveries are
/// the noisiest), at most kMaxRestarts. Their median is reported.
constexpr size_t kMinRestarts = 5;
constexpr size_t kMaxRestarts = 15;
constexpr double kRestartBudgetS = 8;
constexpr size_t kThroughputWindows = 5;
constexpr size_t kPreloadChunk = 256;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;
  std::string work_dir;
};

// ---------------------------------------------------------------------------
// Statistics

/// Exact nearest-rank percentile of raw samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Highest of the usual percentiles with at least ten samples beyond it.
std::string HighestSupported(size_t n) {
  const double ladder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
  const char* names[] = {"p99.9", "p99", "p95", "p90", "p50"};
  for (size_t i = 0; i < 5; ++i) {
    if (static_cast<double>(n) * (1 - ladder[i]) >= 10) return names[i];
  }
  return "none";
}

/// Counters and histogram counts from a metrics snapshot JSON.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(std::string json) : json_(std::move(json)) {}

  double Counter(const std::string& name) const {
    return Number(Section("\"counters\":{"), "\"" + name + "\":");
  }
  double HistCount(const std::string& name) const {
    return Number(Section("\"histograms\":{"), "\"" + name + "\":{\"count\":");
  }

 private:
  size_t Section(const std::string& tag) const {
    const size_t at = json_.find(tag);
    return at == std::string::npos ? json_.size() : at;
  }
  double Number(size_t from, const std::string& key) const {
    const size_t at = json_.find(key, from);
    if (at == std::string::npos) return 0;
    return std::strtod(json_.c_str() + at + key.size(), nullptr);
  }
  std::string json_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Talking to the server outside the measured phases

Result<std::unique_ptr<ctdb::net::Client>> Connect(uint16_t port) {
  return ctdb::net::Client::Connect("127.0.0.1", port);
}

Result<ctdb::net::Response> CallOk(ctdb::net::Client* client,
                                   const ctdb::net::Request& request) {
  CTDB_ASSIGN_OR_RETURN(ctdb::net::Response response, client->Call(request));
  CTDB_RETURN_NOT_OK(response.status());
  return response;
}

Result<Scrape> ScrapeMetrics(uint16_t port) {
  CTDB_ASSIGN_OR_RETURN(auto client, Connect(port));
  CTDB_ASSIGN_OR_RETURN(auto response,
                        CallOk(client.get(), ctdb::net::Request::Stats(1)));
  return Scrape(response.stats_json);
}

Result<std::vector<uint32_t>> Preload(uint16_t port, const Workload& w) {
  CTDB_ASSIGN_OR_RETURN(auto client, Connect(port));
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < w.preload.size(); i += kPreloadChunk) {
    std::vector<ctdb::net::Request::Entry> entries;
    for (size_t j = i; j < std::min(w.preload.size(), i + kPreloadChunk); ++j) {
      entries.push_back({w.preload[j].name, w.preload[j].ltl_text});
    }
    CTDB_ASSIGN_OR_RETURN(
        auto response,
        CallOk(client.get(), ctdb::net::Request::RegisterBatch(i + 1, entries)));
    ids.insert(ids.end(), response.ids.begin(), response.ids.end());
  }
  if (ids.size() != w.preload.size()) return Status::Internal("preload ids");
  return ids;
}

/// Warm-up: every warm-up query once (checked when the workload has
/// reference answers), and for streams one short throwaway stream.
Status Warmup(uint16_t port, const Workload& w) {
  std::vector<ClientPlan> plans(kClients);
  Inputs inputs;
  inputs.queries = w.warmup_queries;
  if (!w.inputs.expected.empty() && w.warmup_queries == w.inputs.queries) {
    inputs.expected = w.inputs.expected;
  }
  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    plans[i % kClients].ops.push_back({OpKind::kQuery, static_cast<uint32_t>(i), 0, 0});
  }
  if (!w.foreign.empty()) {
    plans[0].stream = "warmup";
    plans[0].ops.push_back({OpKind::kOpen, 0, 0, 0});
    for (uint32_t b = 0; b < 4 && b < w.plans[0].batches.size(); ++b) {
      plans[0].batches.push_back(w.plans[0].batches[b]);
      plans[0].ops.push_back({OpKind::kAppend, b, 0, 0});
    }
    plans[0].ops.push_back({OpKind::kClose, 0, 0, 0});
  }
  PhaseOptions options;
  options.port = port;
  options.inputs = &inputs;
  for (const ClientResult& r : RunPhase(options, &plans)) {
    for (const OpRecord& rec : r.records) {
      if (rec.outcome != Outcome::kOk) {
        return Status::Internal(std::string("warm-up ") + OpKindName(rec.kind) +
                                " failed");
      }
    }
  }
  return Status::OK();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::vector<std::string> ServerArgs(const Workload& w, const std::string& dir) {
  std::vector<std::string> args = {"--dir=" + dir, "--port=0", "--fsync=group"};
  if (w.shards > 0) args.push_back("--shards=" + std::to_string(w.shards));
  return args;
}

// ---------------------------------------------------------------------------
// One pass: set up (repeatedly), run the measured phases, then crash and
// recover.

struct Pass {
  std::vector<double> setup_s;
  std::vector<uint32_t> preload_ids;
  std::vector<ClientResult> measured;
  std::vector<ClientResult> capacity;
  std::vector<ClientResult> probes;  ///< traced: Workload::layer_probes
  Scrape at_start;  ///< traced: right after the host started
  Scrape before, after;  ///< around the measured phases
  double rss_mib = 0;
  double disk_bytes = 0;
  double user_bytes = 0;
  std::vector<double> recovery_s;
  RecoveryReport recovery;
  std::vector<std::pair<const char*, double>> phase_s;  ///< wall time per phase
  size_t checks = 0;  ///< whole-run checks made (recovered state, probes)
  /// Failed checks, plus stream answers that differ from the reference
  /// (those operations are already counted as attempted).
  size_t failed_checks = 0;
  std::vector<std::string> failures;
  std::vector<Span> spans;
  std::vector<double> extract_us, lookup_us;
  size_t index_candidates = 0;  ///< keeps the timed lookups observable
};

struct PassOptions {
  bool traced = false;
  size_t setups = 1;
  bool restarts = false;  ///< measure recovery_s with crash-restart cycles
  bool recover_in_process = false;
};

/// Times pruning-condition extraction and its evaluation against the
/// prefilter on each distinct query's automaton (the server is idle).
void TimeIndex(const ctdb::broker::ContractDatabase& db,
               const std::vector<std::string>& queries, Pass* pass) {
  const auto snapshot = db.Snapshot();
  const size_t n = std::min<size_t>(queries.size(), 128);
  for (size_t i = 0; i < n; ++i) {
    ctdb::ltl::FormulaFactory factory;
    auto formula = ctdb::ltl::Parse(queries[i], &factory, snapshot->vocabulary());
    if (!formula.ok()) continue;
    auto ba = ctdb::translate::LtlToBuchi(*formula, &factory,
                                          snapshot->options().translate);
    if (!ba.ok()) continue;
    std::vector<double> extract, lookup;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = NowMicros();
      const ctdb::index::Condition condition = ctdb::index::ExtractPruningCondition(*ba);
      const double t1 = NowMicros();
      const ctdb::Bitset candidates = condition.Evaluate(snapshot->prefilter());
      const double t2 = NowMicros();
      extract.push_back(t1 - t0);
      lookup.push_back(t2 - t1);
      pass->index_candidates += candidates.Count();
    }
    pass->extract_us.push_back(Median(extract));
    pass->lookup_us.push_back(Median(lookup));
  }
}

Result<Pass> RunPass(const Workload& w, const Args& args,
                     const PassOptions& po) {
  Pass pass;
  const std::string dir =
      args.work_dir + "/" + w.name + (po.traced ? "-traced" : "-served");
  const std::string log = args.work_dir + "/" + w.name + "-server.log";
  SpanLog spans;
  Correlator correlator;
  std::unique_ptr<ServerProcess> proc;
  std::unique_ptr<TracedHost> traced;
  uint16_t port = 0;

  double mark = NowMicros();
  auto lap = [&](const char* phase_name) {
    const double now = NowMicros();
    pass.phase_s.emplace_back(phase_name, (now - mark) / 1e6);
    mark = now;
  };
  for (size_t s = 0; s < po.setups; ++s) {
    fs::remove_all(dir);
    const double t0 = NowMicros();
    if (po.traced) {
      CTDB_ASSIGN_OR_RETURN(traced, TracedHost::Start(dir, w.shards, &spans,
                                                      &correlator));
      port = traced->port();
      // The registry is process-wide; deltas from here leave out the
      // reference databases this process built.
      CTDB_ASSIGN_OR_RETURN(pass.at_start, ScrapeMetrics(port));
    } else {
      CTDB_ASSIGN_OR_RETURN(proc, ServerProcess::Start(args.server_bin,
                                                       ServerArgs(w, dir), log));
      port = proc->port();
    }
    CTDB_ASSIGN_OR_RETURN(pass.preload_ids, Preload(port, w));
    CTDB_RETURN_NOT_OK(Warmup(port, w));
    pass.setup_s.push_back((NowMicros() - t0) / 1e6);
    if (s + 1 < po.setups) {
      if (po.traced) {
        CTDB_RETURN_NOT_OK(traced->Stop());
      } else {
        CTDB_RETURN_NOT_OK(proc->Stop());
      }
    }
  }
  for (size_t i = 0; i < w.preload.size(); ++i) {
    pass.user_bytes += static_cast<double>(w.preload[i].name.size() +
                                           w.preload[i].ltl_text.size());
  }

  lap("setups");
  std::vector<ClientPlan> plans = w.plans;
  std::vector<ClientPlan> capacity = w.capacity_plans;
  if (w.name == "write_churn") AssignOwnership(pass.preload_ids, 1, &plans);

  PhaseOptions phase;
  phase.port = port;
  phase.inputs = &w.inputs;
  if (po.traced) {
    phase.spans = &spans;
    phase.correlator = &correlator;
  }
  CTDB_ASSIGN_OR_RETURN(pass.before, ScrapeMetrics(port));
  spans.set_enabled(po.traced);
  phase.open_loop = w.open_loop;
  pass.measured = RunPhase(phase, &plans);
  lap("measured");
  if (!capacity.empty()) {
    phase.open_loop = false;
    pass.capacity = RunPhase(phase, &capacity);
    lap("capacity");
  }
  spans.set_enabled(false);
  CTDB_ASSIGN_OR_RETURN(pass.after, ScrapeMetrics(port));
  for (const ClientResult& r : pass.measured) {
    pass.user_bytes += static_cast<double>(r.user_bytes);
  }
  pass.disk_bytes = static_cast<double>(DirBytes(dir));

  if (po.traced) {
    const std::vector<std::string>& queries =
        w.inputs.queries.empty() ? w.layer_probes : w.inputs.queries;
    if (!w.layer_probes.empty() || !w.register_probes.empty()) {
      Inputs probes;
      probes.queries = w.layer_probes;
      probes.texts = w.register_probes;
      std::vector<ClientPlan> plan(1);
      plan[0].name_prefix = "probe-";
      for (size_t i = 0; i < probes.queries.size(); ++i) {
        plan[0].ops.push_back({OpKind::kQuery, static_cast<uint32_t>(i), 0, 0});
      }
      for (size_t i = 0; i < probes.texts.size(); ++i) {
        plan[0].ops.push_back({OpKind::kRegister, static_cast<uint32_t>(i), 0, 0});
      }
      phase.inputs = &probes;
      phase.open_loop = false;
      spans.set_enabled(true);
      pass.probes = RunPhase(phase, &plan);
      spans.set_enabled(false);
    }
    // Index timing needs the database, so it runs before the host stops.
    TimeIndex(traced->database(), queries, &pass);
    lap("layer_probes");
  }
  if (!po.traced) {
    pass.rss_mib = proc->PeakRssMiB();
    double killed_at = NowMicros();
    proc->Kill();
    double measured_s = 0;
    for (size_t k = 0; po.restarts && k < kMaxRestarts &&
                       (k < kMinRestarts || measured_s < kRestartBudgetS);
         ++k) {
      CTDB_ASSIGN_OR_RETURN(proc, ServerProcess::Start(args.server_bin,
                                                       ServerArgs(w, dir), log));
      CTDB_ASSIGN_OR_RETURN(auto client, Connect(proc->port()));
      auto answer = client->Call(ctdb::net::Request::Query(1, w.probe_query));
      const double done = NowMicros();
      measured_s += (done - killed_at) / 1e6;
      ++pass.checks;
      if (!answer.ok() || !answer->status().ok() || answer->answers.size() != 1) {
        pass.failures.push_back("restarted server did not answer the probe query");
        ++pass.failed_checks;
      } else if (w.probe_checked &&
                 answer->answers[0].matches != w.probe_expected) {
        pass.failures.push_back("restarted server answered the probe wrongly");
        ++pass.failed_checks;
      } else {
        pass.recovery_s.push_back((done - killed_at) / 1e6);
      }
      client.reset();
      killed_at = NowMicros();
      proc->Kill();
    }
  } else {
    CTDB_RETURN_NOT_OK(traced->Stop());
  }
  pass.spans = spans.Take();
  lap("recovery");

  if (po.recover_in_process) {
    ContractState expected;
    const bool churn = w.name == "write_churn";
    if (churn) expected = ExpectedState(w, pass.preload_ids, pass.measured);
    CTDB_ASSIGN_OR_RETURN(pass.recovery,
                          RecoverInProcess(dir, w.shards, churn ? &expected : nullptr));
    if (churn) {
      ++pass.checks;
      if (pass.recovery.mismatches > 0) {
        ++pass.failed_checks;
        pass.failures.push_back(std::to_string(pass.recovery.mismatches) +
                                " contracts differ from the acknowledged writes after recovery");
      }
    }
  }
  if (!w.foreign.empty()) {
    const size_t wrong = CheckStreams(w, pass.preload_ids, pass.measured);
    pass.failed_checks += wrong;
    if (wrong > 0) {
      pass.failures.push_back(std::to_string(wrong) +
                              " stream verdict sets differ from the in-process monitor");
    }
  }
  lap("checks");
  fs::remove_all(dir);
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Totals {
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  std::map<Outcome, size_t> by_outcome;
};

void Count(const std::vector<ClientResult>& results, Totals* t) {
  for (const ClientResult& r : results) {
    for (const OpRecord& rec : r.records) {
      ++t->attempted;
      t->by_outcome[rec.outcome] += 1;
      if (rec.outcome != Outcome::kOk) ++t->failed;
      if (rec.outcome == Outcome::kWrong) ++t->wrong;
    }
  }
}

bool Is(const OpRecord& rec, const std::vector<OpKind>& kinds) {
  return std::find(kinds.begin(), kinds.end(), rec.kind) != kinds.end();
}

/// Latencies (ms) of `kinds`, from the send to the answer; a failed
/// operation counts as missing every latency limit, so it enters as the
/// phase's whole length. The open-loop sender never waits on an answer, so
/// a send later than its due time is the generator's own delay, reported
/// apart as the generator lag rather than charged to the server.
std::vector<double> Latencies(const std::vector<ClientResult>& results,
                              const std::vector<OpKind>& kinds) {
  double first = 1e300, last = 0;
  for (const ClientResult& r : results) {
    for (const OpRecord& rec : r.records) {
      first = std::min(first, rec.sent_us);
      last = std::max(last, rec.done_us);
    }
  }
  std::vector<double> out;
  for (const ClientResult& r : results) {
    for (const OpRecord& rec : r.records) {
      if (!Is(rec, kinds)) continue;
      out.push_back((rec.outcome == Outcome::kOk ? rec.done_us - rec.sent_us
                                                 : last - first) / 1e3);
    }
  }
  return out;
}

/// pruned / (stepped + pruned) over the appends of the matched or the
/// foreign streams.
double PrunedRatio(const Workload& w, const std::vector<ClientResult>& results,
                   bool foreign) {
  double stepped = 0, pruned = 0;
  for (size_t c = 0; c < results.size() && c < w.foreign.size(); ++c) {
    if (w.foreign[c] != foreign) continue;
    for (const OpRecord& rec : results[c].records) {
      stepped += static_cast<double>(rec.stepped);
      pruned += static_cast<double>(rec.pruned);
    }
  }
  return Ratio(pruned, stepped + pruned);
}

void PrintLatency(const std::string& workload, const std::string& what,
                  const std::vector<double>& ms, std::vector<Metric>* detail) {
  if (ms.empty()) return;
  std::printf("samples %s %s n=%zu highest_supported=%s\n", workload.c_str(),
              what.c_str(), ms.size(), HighestSupported(ms.size()).c_str());
  detail->push_back({what + "_p50_ms", Percentile(ms, 0.5), "ms"});
  detail->push_back({what + "_p90_ms", Percentile(ms, 0.9), "ms"});
  detail->push_back({what + "_p95_ms", Percentile(ms, 0.95), "ms"});
  detail->push_back({what + "_p99_ms", Percentile(ms, 0.99), "ms"});
}

struct EndToEndResult {
  std::vector<Metric> metrics;  ///< the JSON metrics
  Totals totals;
  std::vector<std::string> failures;
  /// The workload ran in the regime it is designed for; a run outside it
  /// exits non-zero.
  bool regime_ok = true;
};

/// Headline throughput: queries/s in the capacity phase (read_paper),
/// acknowledged writes/s (write_churn), appended instants/s (stream_monitor).
/// The phase is cut into kThroughputWindows equal windows of wall time and
/// the median window rate is reported, so one stall does not move it.
double Throughput(const Workload& w, const Pass& p) {
  const std::vector<ClientResult>& phase = p.capacity.empty() ? p.measured : p.capacity;
  double first = 1e300, last = 0;
  for (const ClientResult& r : phase) {
    for (const OpRecord& rec : r.records) {
      first = std::min(first, rec.sent_us);
      last = std::max(last, rec.done_us);
    }
  }
  if (!(last > first)) return 0;
  const double window = (last - first) / kThroughputWindows;
  std::vector<double> done(kThroughputWindows, 0);
  for (const ClientResult& r : phase) {
    for (const OpRecord& rec : r.records) {
      if (rec.outcome != Outcome::kOk || !Is(rec, w.headline)) continue;
      const size_t i = std::min(kThroughputWindows - 1,
                                static_cast<size_t>((rec.done_us - first) / window));
      done[i] += rec.kind == OpKind::kAppend ? rec.instants : 1;
    }
  }
  for (double& d : done) d /= window / 1e6;
  return Median(done);
}

/// Checks the workload regime the benchmark is designed around; returns
/// violations.
std::vector<std::string> CheckRegime(const Workload& w, const Pass& p) {
  std::vector<std::string> bad;
  const double hits = p.after.Counter("translate_cache.hits") -
                      p.before.Counter("translate_cache.hits");
  const double misses = p.after.Counter("translate_cache.misses") -
                        p.before.Counter("translate_cache.misses");
  const double hit_ratio = Ratio(hits, hits + misses);
  std::printf("regime %s translate.cache_hit_ratio=%.4f (of %.0f lookups)\n",
              w.name.c_str(), hit_ratio, hits + misses);
  if (w.name == "read_paper" && !(hit_ratio > 0.9)) {
    bad.push_back("read_paper translation cache hit ratio not above 0.9");
  }
  if (w.name == "write_churn" && !(hit_ratio < 0.1)) {
    bad.push_back("write_churn translation cache hit ratio not below 0.1");
  }
  if (!w.foreign.empty()) {
    // Matched streams mostly step (what they prune is mostly contracts
    // already decided); foreign streams mostly prune.
    const double matched = PrunedRatio(w, p.measured, false);
    const double foreign = PrunedRatio(w, p.measured, true);
    std::printf("regime %s monitor.pruned_ratio matched=%.4f foreign=%.4f\n",
                w.name.c_str(), matched, foreign);
    if (!(matched < 0.25)) bad.push_back("matched streams pruned ratio not below 0.25");
    if (!(foreign > 0.85)) bad.push_back("foreign streams pruned ratio not above 0.85");
  }
  return bad;
}

/// End-to-end metrics of an untraced pass.
EndToEndResult EndToEnd(const Workload& w, const Pass& p, const char* label) {
  EndToEndResult out;
  Count(p.measured, &out.totals);
  Count(p.capacity, &out.totals);
  Count(p.probes, &out.totals);
  out.totals.attempted += p.checks;
  out.totals.failed += p.failed_checks;
  out.totals.wrong += p.failed_checks;
  out.failures = p.failures;
  for (const std::string& v : CheckRegime(w, p)) {
    out.failures.push_back("regime: " + v);
    out.regime_ok = false;
  }

  const std::vector<double> lat = Latencies(p.measured, w.headline);
  const double disk_ratio = Ratio(p.disk_bytes, p.user_bytes);
  out.metrics = {
      {"setup_s", Median(p.setup_s), "s"},
      {"op_p50_ms", Percentile(lat, 0.5), "ms"},
      {"op_p99_ms", Percentile(lat, kTailQuantile), "ms"},
      {"op_per_s", Throughput(w, p), "1/s"},
      {"recovery_s", Median(p.recovery_s), "s"},
      {"disk_bytes_per_user_byte", disk_ratio, "ratio"},
      {"server_rss_mb", p.rss_mib, "MiB"},
  };

  // The named per-operation view of the same run.
  std::vector<Metric> detail;
  const std::vector<OpKind> writes = {OpKind::kRegister, OpKind::kReplace,
                                      OpKind::kUnregister};
  PrintLatency(w.name, "query", Latencies(p.measured, {OpKind::kQuery}), &detail);
  std::vector<double> server_ms;  // the server's own Answer::total_us
  for (const ClientResult& r : p.measured) {
    for (const OpRecord& rec : r.records) {
      if (rec.kind == OpKind::kQuery && rec.outcome == Outcome::kOk) {
        server_ms.push_back(static_cast<double>(rec.server_us) / 1e3);
      }
    }
  }
  if (!server_ms.empty()) {
    detail.push_back({"query_server_p50_ms", Percentile(server_ms, 0.5), "ms"});
  }
  if (!p.capacity.empty()) {
    PrintLatency(w.name, "capacity_query",
                 Latencies(p.capacity, {OpKind::kQuery}), &detail);
  }
  PrintLatency(w.name, "write", Latencies(p.measured, writes), &detail);
  PrintLatency(w.name, "append", Latencies(p.measured, {OpKind::kAppend}), &detail);
  const double tp = Throughput(w, p);
  if (w.name == "read_paper") detail.push_back({"capacity_qps", tp, "1/s"});
  if (w.name == "write_churn") detail.push_back({"write_ops_s", tp, "ops/s"});
  if (w.name == "stream_monitor") detail.push_back({"events_per_s", tp, "instants/s"});
  detail.push_back({"failed_pct",
                    100.0 * Ratio(static_cast<double>(out.totals.failed),
                                  static_cast<double>(out.totals.attempted)),
                    "%"});
  if (w.open_loop) {
    std::vector<double> lag;
    for (const ClientResult& r : p.measured) {
      for (const OpRecord& rec : r.records) lag.push_back((rec.sent_us - rec.due_us) / 1e3);
    }
    detail.push_back({"generator_lag_p99_ms", Percentile(lag, 0.99), "ms"});
  }
  for (const Metric& m : detail) {
    std::printf("metric %s %s %s %.6g %s\n", label, w.name.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [phase_name, seconds] : p.phase_s) {
    std::printf("phase %s %s %s %.2f s\n", label, w.name.c_str(), phase_name, seconds);
  }
  for (size_t i = 0; i < p.setup_s.size(); ++i) {
    std::printf("sample %s setup_s %.4f\n", w.name.c_str(), p.setup_s[i]);
  }
  for (size_t i = 0; i < p.recovery_s.size(); ++i) {
    std::printf("sample %s recovery_s %.4f\n", w.name.c_str(), p.recovery_s[i]);
  }
  for (const auto& [outcome, n] : out.totals.by_outcome) {
    static const char* names[] = {"ok", "error", "shed", "transport", "wrong"};
    std::printf("outcome %s %s %zu\n", w.name.c_str(),
                names[static_cast<size_t>(outcome)], n);
  }
  return out;
}

/// The span TracingBroker records for an operation kind.
const char* SpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return "broker.query";
    case OpKind::kRegister: return "broker.register";
    case OpKind::kReplace: return "broker.replace";
    case OpKind::kUnregister: return "broker.unregister";
    case OpKind::kAppend: return "broker.stream_append";
    case OpKind::kOpen: return "broker.stream_open";
    case OpKind::kClose: return "broker.stream_close";
  }
  return "";
}

/// Per-layer metrics of a traced pass, with `base` the untraced pass over
/// the same inputs. Every metric applies to every workload: query- and
/// registration-path layers are measured from the workload's own requests
/// or, where it sends none, from its layer probes. Write-only views
/// (write_churn) are printed, not returned.
std::vector<Metric> PerLayer(const Workload& w, const Pass& base,
                             const Pass& t) {
  auto delta = [&](const char* counter) {
    return t.after.Counter(counter) - t.before.Counter(counter);
  };
  auto pass_delta = [&](const char* counter) {
    return t.after.Counter(counter) - t.at_start.Counter(counter);
  };

  std::vector<std::string> op_spans;
  for (OpKind k : w.headline) op_spans.push_back(SpanName(k));
  std::map<uint64_t, const Span*> server_by_request;
  std::vector<double> op_us, write_us, write_rest_us, translate_q, prefilter_us,
      permission_us, translate_r, insert_us, precompute_us;
  std::vector<std::pair<double, double>> writes_in_time;
  double candidates = 0, db_size = 0, matches = 0, pairs = 0, instants = 0,
         stepped = 0, pruned = 0;
  for (const Span& s : t.spans) {
    if (s.name.rfind("broker.", 0) != 0) continue;
    if (s.request != 0) server_by_request[s.request] = &s;
    if (s.attr("ok") == 0) continue;
    if (std::find(op_spans.begin(), op_spans.end(), s.name) != op_spans.end()) {
      op_us.push_back(s.duration_us());
    }
    if (s.name == "broker.query") {
      translate_q.push_back(s.attr("translate_us"));
      prefilter_us.push_back(s.attr("prefilter_us"));
      permission_us.push_back(s.attr("permission_us"));
      candidates += s.attr("candidates");
      db_size += s.attr("database_size");
      matches += s.attr("matches");
      pairs += s.attr("pairs_visited");
    } else if (s.name == "broker.register" || s.name == "broker.replace" ||
               s.name == "broker.unregister") {
      write_us.push_back(s.duration_us());
      writes_in_time.emplace_back(s.start_us, s.duration_us());
      if (s.name != "broker.unregister") {
        translate_r.push_back(s.attr("translate_us"));
        insert_us.push_back(s.attr("prefilter_insert_us"));
        precompute_us.push_back(s.attr("projection_us"));
        write_rest_us.push_back(s.duration_us() - s.attr("translate_us") -
                                s.attr("prefilter_insert_us") -
                                s.attr("projection_us"));
      }
    } else if (s.name == "broker.stream_append") {
      instants += s.attr("instants");
      stepped += s.attr("stepped");
      pruned += s.attr("pruned");
    }
  }
  // Round trip minus server time, per correlated request.
  std::vector<double> residual;
  size_t requests = 0;
  for (const Span& s : t.spans) {
    if (s.name.rfind("client.", 0) != 0) continue;
    ++requests;
    auto it = server_by_request.find(s.request);
    if (it != server_by_request.end()) {
      residual.push_back(s.duration_us() - it->second->duration_us());
    }
  }
  if (w.register_probes.empty() && !write_us.empty()) {
    // Write cost as the database grows: last tenth over first tenth.
    std::sort(writes_in_time.begin(), writes_in_time.end());
    const size_t tenth = std::max<size_t>(1, writes_in_time.size() / 10);
    std::vector<double> first, last;
    for (size_t i = 0; i < tenth; ++i) {
      first.push_back(writes_in_time[i].second);
      last.push_back(writes_in_time[writes_in_time.size() - 1 - i].second);
    }
    std::printf("layer %s broker.write_us.p50 %.6g us\n", w.name.c_str(), Percentile(write_us, 0.5));
    std::printf("layer %s broker.write_us.p99 %.6g us\n", w.name.c_str(), Percentile(write_us, 0.99));
    std::printf("layer %s broker.write_rest_us %.6g us\n", w.name.c_str(),
                Percentile(write_rest_us, 0.5));
    std::printf("layer %s broker.write_us_slope %.6g ratio\n", w.name.c_str(),
                Ratio(Median(last), Median(first)));
  }
  // Per-shard registrations from the acknowledged ids.
  double skew = 0;
  if (w.shards > 0) {
    std::vector<double> per_shard(w.shards, 0);
    double total = 0;
    for (const ClientResult& r : t.measured) {
      for (const WriteAck& a : r.acks) {
        if (a.kind != OpKind::kRegister) continue;
        per_shard[a.id % w.shards] += 1;
        total += 1;
      }
    }
    if (total > 0) {
      skew = *std::max_element(per_shard.begin(), per_shard.end()) /
             (total / static_cast<double>(w.shards));
    }
  }
  // Shards touched per request: shard-level query evaluations, writes and
  // stream operations, over the requests that caused them.
  const double shard_work =
      delta("broker.queries") + delta("broker.registrations") +
      delta("broker.replacements") + delta("broker.unregisters") +
      (t.after.HistCount("monitor.append_us") - t.before.HistCount("monitor.append_us")) +
      delta("monitor.streams.opened") + delta("monitor.streams.closed");
  size_t measured_requests = 0;
  for (const ClientResult& r : t.measured) measured_requests += r.records.size();
  for (const ClientResult& r : t.capacity) measured_requests += r.records.size();
  const double lookups = delta("translate_cache.hits") + delta("translate_cache.misses");
  const double quotient = delta("projection.quotient_cache_hits") +
                          delta("projection.quotient_cache_misses");

  // How late the generator sent: after the due time in open loop, after the
  // previous answer on the same connection in closed loop.
  std::vector<double> lag;
  for (const ClientResult& r : t.measured) {
    for (size_t i = 0; i < r.records.size(); ++i) {
      const OpRecord& rec = r.records[i];
      if (w.open_loop) {
        lag.push_back((rec.sent_us - rec.due_us) / 1e3);
      } else if (i > 0) {
        lag.push_back((rec.sent_us - r.records[i - 1].done_us) / 1e3);
      }
    }
  }
  const double untraced_p50 =
      Percentile(Latencies(base.measured, w.headline), 0.5);
  const double traced_p50 =
      Percentile(Latencies(t.measured, w.headline), 0.5);
  const RecoveryReport& rec = base.recovery;

  return {
      {"net.residual_us", Median(residual), "us"},
      {"net.bytes_per_op",
       Ratio(delta("net.bytes.in") + delta("net.bytes.out"),
             static_cast<double>(measured_requests)),
       "bytes"},
      {"net.shed", delta("net.shed"), "count"},
      {"shard.fanout", Ratio(shard_work, static_cast<double>(measured_requests)), "shards"},
      {"shard.write_skew", skew, "ratio"},
      {"shard.recovery_parallelism",
       w.shards > 0 ? Ratio(rec.replay_ms_sum, rec.wall_ms) : 1, "ratio"},
      {"broker.op_us.p50", Percentile(op_us, 0.5), "us"},
      {"broker.op_us.p99", Percentile(op_us, 0.99), "us"},
      {"wal.records_per_fsync", Ratio(pass_delta("wal.appends"), pass_delta("wal.fsyncs")),
       "records"},
      {"wal.bytes_per_write", Ratio(pass_delta("wal.append_bytes"), pass_delta("wal.appends")),
       "bytes"},
      {"wal.replay_ms", rec.replay_ms, "ms"},
      {"wal.records_replayed", static_cast<double>(rec.records_replayed), "count"},
      {"wal.bytes_scanned", static_cast<double>(rec.bytes_scanned), "bytes"},
      {"wal.checkpoint_load_ms", rec.checkpoint_load_ms, "ms"},
      {"translate.query_us", Percentile(translate_q, 0.5), "us"},
      {"translate.cache_hit_ratio", Ratio(delta("translate_cache.hits"), lookups), "ratio"},
      {"translate.cache_lookups", lookups, "count"},
      {"translate.register_us", Percentile(translate_r, 0.5), "us"},
      {"index.prefilter_us", Percentile(prefilter_us, 0.5), "us"},
      {"index.prefilter_us.p99", Percentile(prefilter_us, 0.99), "us"},
      {"index.extract_us", Median(t.extract_us), "us"},
      {"index.lookup_us", Median(t.lookup_us), "us"},
      {"index.candidate_ratio", Ratio(candidates, db_size), "ratio"},
      {"index.insert_us", Percentile(insert_us, 0.5), "us"},
      {"projection.precompute_us", Percentile(precompute_us, 0.5), "us"},
      {"projection.quotient_hit_ratio",
       Ratio(delta("projection.quotient_cache_hits"), quotient), "ratio"},
      {"core.permission_us.p50", Percentile(permission_us, 0.5), "us"},
      {"core.permission_us.p99", Percentile(permission_us, 0.99), "us"},
      {"core.match_ratio", Ratio(matches, candidates), "ratio"},
      {"core.pairs_per_check", Ratio(pairs, candidates), "pairs"},
      {"monitor.steps_per_event", Ratio(stepped, instants), "steps"},
      {"monitor.pruned_ratio", Ratio(pruned, stepped + pruned), "ratio"},
      {"monitor.pruned_ratio.matched", PrunedRatio(w, t.measured, false), "ratio"},
      {"monitor.pruned_ratio.foreign", PrunedRatio(w, t.measured, true), "ratio"},
      {"bench.lag_p99_ms", Percentile(lag, 0.99), "ms"},
      {"bench.trace_overhead_pct",
       untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1) : 0, "%"},
  };
}

// ---------------------------------------------------------------------------

/// Runs one workload: the untraced pass, and with --trace 1 the traced pass
/// whose per-layer metrics replace the end-to-end ones.
Result<EndToEndResult> RunWorkload(const std::string& name, const Args& args) {
  const double t0 = NowMicros();
  CTDB_ASSIGN_OR_RETURN(Workload w, MakeWorkload(name, args.seed, args.seconds));
  std::printf("workload %s seed %llu inputs_s %.2f\n", name.c_str(),
              static_cast<unsigned long long>(args.seed), (NowMicros() - t0) / 1e6);
  for (const auto& [key, value] : w.properties) {
    std::printf("input %s %s %s\n", name.c_str(), key.c_str(), value.c_str());
  }
  std::fflush(stdout);

  PassOptions served;
  served.setups = args.trace ? 1 : kSetupRepeats;
  served.restarts = !args.trace;
  served.recover_in_process = args.trace || name == "write_churn";
  CTDB_ASSIGN_OR_RETURN(Pass base, RunPass(w, args, served));
  EndToEndResult run = EndToEnd(w, base, "served");
  if (!args.trace) return run;

  PassOptions traced;
  traced.traced = true;
  CTDB_ASSIGN_OR_RETURN(Pass t, RunPass(w, args, traced));
  const EndToEndResult traced_e2e = EndToEnd(w, t, "traced");
  run.totals.attempted += traced_e2e.totals.attempted;
  run.totals.failed += traced_e2e.totals.failed;
  run.totals.wrong += traced_e2e.totals.wrong;
  run.regime_ok = run.regime_ok && traced_e2e.regime_ok;
  for (const std::string& f : traced_e2e.failures) run.failures.push_back("traced: " + f);
  run.metrics = PerLayer(w, base, t);
  const std::string trace_path = args.work_dir + "/trace-" + name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  CTDB_RETURN_NOT_OK(SpanLog::WriteJsonLines(t.spans, trace_path));
  std::printf("trace %s %zu spans -> %s\n", name.c_str(), t.spans.size(),
              trace_path.c_str());
  return run;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload NAME|all --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server-bin") {
      args.server_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.server_bin.empty() ||
      args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(args.work_dir);

  std::vector<std::string> names = {args.workload};
  if (args.workload == "all") names = {"read_paper", "write_churn", "stream_monitor"};
  std::vector<Metric> metrics;
  Totals totals;
  bool correct = true;
  bool regime_ok = true;
  for (const std::string& name : names) {
    auto run = RunWorkload(name, args);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), run.status().ToString().c_str());
      return 1;
    }
    for (const std::string& f : run->failures) {
      std::printf("FAIL %s %s\n", name.c_str(), f.c_str());
    }
    correct = correct && run->totals.wrong == 0;
    regime_ok = regime_ok && run->regime_ok;
    totals.attempted += run->totals.attempted;
    totals.failed += run->totals.failed;
    for (Metric m : run->metrics) {
      if (names.size() > 1) m.name = name + "." + m.name;
      metrics.push_back(m);
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(totals.attempted);
  json += ", \"failed\": " + std::to_string(totals.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct && regime_ok && totals.failed == 0 ? 0 : 1;
}
