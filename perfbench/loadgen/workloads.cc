#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "broker/durable.h"
#include "ltl/parser.h"
#include "monitor/session.h"
#include "shard/sharded.h"
#include "util/rng.h"
#include "workload/events.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace perfbench {

using ctdb::Result;
using ctdb::Status;
using ctdb::broker::ContractDatabase;

namespace {

// Sizes. Closed-loop operation counts scale with --seconds so a measured
// phase takes about that long on a 4-CPU x86 container; open-loop counts
// follow from the rate.
constexpr size_t kVocabulary = 20;
// Contract draws whose tableau exceeds this many nodes are redrawn (the
// generator's own degeneracy rule, with a lower budget than its default).
// Registration cost is heavy-tailed in BA size: at the default budget one
// 5-pattern draw in ten costs seconds to translate and project, which no
// repeated set-up could afford.
constexpr size_t kContractTableauNodes = 256;

// read_paper
constexpr size_t kPaperContracts = 100;
constexpr size_t kPaperQueriesPerLevel = 40;  // x3 levels = 120 < 256
constexpr double kPaperRateQps = 200;  // about a tenth of capacity
constexpr double kPaperOpenShare = 0.55;  // of --seconds; the rest: capacity
constexpr double kPaperCapacityQps = 1200;

// write_churn
constexpr size_t kChurnPreload = 2000;
constexpr size_t kChurnTexts = 400;
constexpr double kChurnOpsPerSecond = 500;  // all clients together
constexpr double kChurnQueryShare = 0.1;
constexpr size_t kChurnWarmupQueries = 8;

// stream_monitor
constexpr size_t kStreamContracts = 200;
constexpr size_t kStreamInstantsPerBatch = 16;
// Each stream is finite: closed after this many batches and a new one
// opened. The monitor also counts steps skipped for contracts whose verdict
// is already permanent as pruned, and over long streams most contracts get
// there, which would blur matched streams (stepping) into foreign ones
// (pruning). 32-instant streams keep matched streams near 0.15.
constexpr size_t kStreamSessionBatches = 2;
constexpr double kStreamBatchesPerSecond = 550;  // all clients together
constexpr size_t kStreamLayerProbes = 32;

// Traced passes of workloads that register nothing while measured
// re-register this many of their preloaded contracts afterwards.
constexpr size_t kRegisterProbes = 16;

// Contract, text and query pools are the same for every run: they come from
// fixed seeds (read_paper: the paper's own dataset seeds), so runs with
// different seeds differ only in the operation sequence drawn from them.
// Per-query and per-contract costs are heavy-tailed, and a pool redrawn per
// seed would move every metric by more than any bound could tolerate.
constexpr uint64_t kPoolSeed = 0xC7DB'0B5E'2011ULL;

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string PrimingLtl() {
  std::string text = "F (";
  for (size_t i = 1; i <= kVocabulary; ++i) {
    text += (i > 1 ? " | p" : "p") + std::to_string(i);
  }
  return text + ")";
}

/// Draws `count` distinct specification texts of `properties` patterns.
/// Contract draws pass kContractTableauNodes as `max_nodes`.
Result<std::vector<std::string>> DrawDistinct(size_t count, size_t properties,
                                              uint64_t seed,
                                              std::set<std::string>* seen,
                                              size_t max_nodes = 0) {
  ctdb::Vocabulary vocab;
  ctdb::ltl::FormulaFactory factory;
  ctdb::workload::GeneratorOptions options;
  options.vocabulary_size = kVocabulary;
  options.properties = properties;
  if (max_nodes > 0) options.translate.tableau.max_nodes = max_nodes;
  ctdb::workload::SpecGenerator gen(options, seed, &vocab, &factory);
  std::vector<std::string> out;
  for (size_t draws = 0; out.size() < count; ++draws) {
    if (draws > 50 * count + 1000) {
      return Status::ResourceExhausted("too few distinct specifications");
    }
    CTDB_ASSIGN_OR_RETURN(ctdb::workload::GeneratedSpec spec, gen.Next());
    if (seen->insert(spec.text).second) out.push_back(std::move(spec.text));
  }
  return out;
}

/// Registers `entries` into a fresh in-process database, ids 0..n-1.
Result<std::unique_ptr<ContractDatabase>> BuildReference(
    const std::vector<ContractDatabase::BatchEntry>& entries) {
  auto db = std::make_unique<ContractDatabase>();
  CTDB_ASSIGN_OR_RETURN(std::vector<uint32_t> ids,
                        db->RegisterBatch(entries, 1));
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != i) return Status::Internal("reference ids not dense");
  }
  return db;
}

/// Scan-mode reference answers (no prefilter, no projections), computed in
/// parallel on the reference database.
Result<std::vector<std::vector<uint32_t>>> ScanAnswers(
    const ContractDatabase& db, const std::vector<std::string>& queries) {
  ctdb::broker::QueryOptions scan;
  scan.use_prefilter = false;
  scan.use_projections = false;
  scan.threads = 1;
  std::vector<std::vector<uint32_t>> answers(queries.size());
  std::vector<Status> errors(kClients);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += kClients) {
        auto r = db.Query(queries[i], scan);
        if (!r.ok()) {
          errors[t] = r.status();
          return;
        }
        answers[i] = std::move(r->matches);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : errors) CTDB_RETURN_NOT_OK(s);
  return answers;
}

size_t Scaled(double per_second, double seconds, size_t minimum) {
  return std::max(minimum, static_cast<size_t>(std::llround(per_second * seconds)));
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// ---------------------------------------------------------------------------

Result<Workload> MakeReadPaper(uint64_t seed, double seconds) {
  Workload w;
  w.name = "read_paper";
  w.open_loop = true;
  w.headline = {OpKind::kQuery};

  // The paper's Table 2 datasets, drawn from their own fixed seeds: "simple"
  // contracts (5 Dwyer patterns over 20 events) and 1-, 2- and 3-pattern
  // queries. The run's seed draws the operation sequence.
  const std::vector<ctdb::workload::DatasetSpec> paper =
      ctdb::workload::PaperDatasets();
  std::set<std::string> seen;
  CTDB_ASSIGN_OR_RETURN(std::vector<std::string> contracts,
                        DrawDistinct(kPaperContracts, 5, paper[0].seed, &seen,
                                     kContractTableauNodes));
  for (size_t i = 0; i < contracts.size(); ++i) {
    w.preload.push_back({"paper-" + std::to_string(i), contracts[i]});
  }
  CTDB_ASSIGN_OR_RETURN(w.reference, BuildReference(w.preload));

  // Query pool: 1-, 2- and 3-pattern queries citing only known events.
  const auto snapshot = w.reference->Snapshot();
  size_t pattern_counts[4] = {0, 0, 0, 0};
  for (size_t patterns = 1; patterns <= 3; ++patterns) {
    CTDB_ASSIGN_OR_RETURN(
        std::vector<std::string> drawn,
        DrawDistinct(kPaperQueriesPerLevel + 8, patterns, paper[2 + patterns].seed,
                     &seen));
    size_t kept = 0;
    for (std::string& q : drawn) {
      ctdb::ltl::FormulaFactory factory;
      if (kept == kPaperQueriesPerLevel ||
          !ctdb::ltl::Parse(q, &factory, snapshot->vocabulary()).ok()) {
        continue;
      }
      w.inputs.queries.push_back(std::move(q));
      ++kept;
    }
    if (kept < kPaperQueriesPerLevel) {
      return Status::Internal("too few paper queries cite only contract events");
    }
    pattern_counts[patterns] = kept;
  }
  CTDB_ASSIGN_OR_RETURN(w.inputs.expected,
                        ScanAnswers(*w.reference, w.inputs.queries));
  w.warmup_queries = w.inputs.queries;
  for (size_t i = 0; i < kRegisterProbes; ++i) {
    w.register_probes.push_back(w.preload[i].ltl_text);
  }
  w.probe_query = w.inputs.queries[0];
  w.probe_expected = w.inputs.expected[0];
  w.probe_checked = true;

  // Each phase sends every pool query equally often, in a seeded order: a
  // few queries cost tens of milliseconds, and drawing them with
  // replacement would let the tail percentiles follow the draw.
  ctdb::Rng rng(Mix(seed, 20));
  const size_t pool = w.inputs.queries.size();
  auto sequence = [&](double ops) {
    const size_t rounds = std::max<size_t>(1, std::llround(ops / pool));
    std::vector<uint32_t> order;
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t q = 0; q < pool; ++q) order.push_back(static_cast<uint32_t>(q));
    }
    rng.Shuffle(&order);
    return order;
  };
  // Open loop: query i is due at i / rate, on connection i % kClients.
  w.plans.resize(kClients);
  const std::vector<uint32_t> open = sequence(kPaperRateQps * kPaperOpenShare * seconds);
  for (size_t i = 0; i < open.size(); ++i) {
    w.plans[i % kClients].ops.push_back(
        {OpKind::kQuery, open[i], 0, static_cast<double>(i) / kPaperRateQps});
  }
  // Capacity: every connection sends back to back.
  w.capacity_plans.resize(kClients);
  const std::vector<uint32_t> capacity =
      sequence(kPaperCapacityQps * (1 - kPaperOpenShare) * seconds);
  for (size_t i = 0; i < capacity.size(); ++i) {
    w.capacity_plans[i % kClients].ops.push_back({OpKind::kQuery, capacity[i], 0, 0});
  }
  const size_t open_ops = open.size(), capacity_ops = capacity.size();

  w.properties = {
      {"contracts", std::to_string(w.preload.size()) + " x 5 patterns"},
      {"distinct_queries", std::to_string(pool) + " (translation cache 256)"},
      {"query_patterns_1_2_3", std::to_string(pattern_counts[1]) + "/" +
                                   std::to_string(pattern_counts[2]) + "/" +
                                   std::to_string(pattern_counts[3])},
      {"open_loop", std::to_string(open_ops) + " queries at " +
                        Fmt(kPaperRateQps) + " qps"},
      {"capacity_phase", std::to_string(capacity_ops) + " queries, closed loop"},
  };
  return w;
}

Result<Workload> MakeWriteChurn(uint64_t seed, double seconds) {
  Workload w;
  w.name = "write_churn";
  w.shards = 2;
  w.headline = {OpKind::kRegister, OpKind::kReplace, OpKind::kUnregister};

  std::set<std::string> seen;
  for (size_t patterns = 1; patterns <= 2; ++patterns) {
    CTDB_ASSIGN_OR_RETURN(
        std::vector<std::string> texts,
        DrawDistinct(kChurnTexts / 2, patterns, Mix(kPoolSeed, 100 + patterns), &seen,
                     kContractTableauNodes));
    for (std::string& t : texts) w.inputs.texts.push_back(std::move(t));
  }
  ctdb::Rng rng(Mix(seed, 110));
  // The priming contract cites every event, so no generated query trips the
  // unknown-event check; the rest are drawn from the text pool.
  w.preload.push_back({"priming", PrimingLtl()});
  for (size_t i = 0; i < kChurnPreload; ++i) {
    w.preload.push_back({"pre-" + std::to_string(i),
                         w.inputs.texts[rng.Uniform(w.inputs.texts.size())]});
  }

  const size_t total_ops = Scaled(kChurnOpsPerSecond, seconds, 200);
  w.plans.resize(kClients);
  // The mix is exact (shuffled by the seed): 10% queries, and of the writes
  // 75% Register, 15% Replace, 10% Unregister. Every client starts owning a
  // quarter of the preload, so Replace / Unregister always have a target.
  const size_t n_queries = static_cast<size_t>(std::llround(kChurnQueryShare * total_ops));
  const size_t n_writes = total_ops - n_queries;
  const size_t n_replace = n_writes * 15 / 100, n_unregister = n_writes / 10;
  std::vector<OpKind> kinds(total_ops, OpKind::kRegister);
  std::fill_n(kinds.begin(), n_queries, OpKind::kQuery);
  std::fill_n(kinds.begin() + n_queries, n_replace, OpKind::kReplace);
  std::fill_n(kinds.begin() + n_queries + n_replace, n_unregister, OpKind::kUnregister);
  rng.Shuffle(&kinds);
  size_t queries = 0;
  size_t counts[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < total_ops; ++i) {
    Op op;
    op.kind = kinds[i];
    if (op.kind == OpKind::kQuery) {
      op.arg = static_cast<uint32_t>(queries++);
    } else {
      op.arg = static_cast<uint32_t>(rng.Uniform(w.inputs.texts.size()));
      op.target = static_cast<uint32_t>(rng.Next() >> 33);
    }
    counts[static_cast<size_t>(op.kind)] += 1;
    w.plans[i % kClients].ops.push_back(op);
  }
  for (size_t c = 0; c < kClients; ++c) {
    w.plans[c].name_prefix = "w" + std::to_string(c) + "-";
  }
  // Every query is distinct (and distinct from the warm-up ones), so the
  // translation cache misses.
  CTDB_ASSIGN_OR_RETURN(
      std::vector<std::string> distinct,
      DrawDistinct(queries + kChurnWarmupQueries, 2, Mix(kPoolSeed, 120), &seen));
  w.warmup_queries.assign(distinct.end() - kChurnWarmupQueries, distinct.end());
  distinct.resize(queries);
  w.inputs.queries = std::move(distinct);
  w.probe_query = "F p1";

  size_t live = kChurnPreload + 1;
  for (const ClientPlan& p : w.plans) {
    for (const Op& op : p.ops) {
      if (op.kind == OpKind::kRegister) ++live;
      if (op.kind == OpKind::kUnregister) --live;
    }
  }
  w.properties = {
      {"text_pool", std::to_string(w.inputs.texts.size()) +
                        " distinct 1-2-pattern contracts"},
      {"preload", std::to_string(w.preload.size()) + " contracts"},
      {"operations", std::to_string(total_ops) + " closed loop on " +
                         std::to_string(kClients) + " connections"},
      {"mix_query_register_replace_unregister",
       std::to_string(counts[0]) + "/" + std::to_string(counts[1]) + "/" +
           std::to_string(counts[2]) + "/" + std::to_string(counts[3])},
      {"distinct_queries", std::to_string(queries) +
                               " (each used once; translation cache 256)"},
      {"live_contracts_at_end", std::to_string(live)},
  };
  return w;
}

Result<Workload> MakeStreamMonitor(uint64_t seed, double seconds) {
  Workload w;
  w.name = "stream_monitor";
  w.shards = 2;
  w.headline = {OpKind::kAppend};

  ctdb::Vocabulary vocab;
  ctdb::ltl::FormulaFactory factory;
  ctdb::workload::GeneratorOptions options;
  options.vocabulary_size = kVocabulary;
  options.properties = 2;
  options.translate.tableau.max_nodes = kContractTableauNodes;
  ctdb::workload::EventSpecGenerator gen(options, Mix(kPoolSeed, 200), &vocab,
                                         &factory);
  for (size_t i = 0; i < kStreamContracts; ++i) {
    CTDB_ASSIGN_OR_RETURN(ctdb::workload::GeneratedSpec spec, gen.Next());
    w.preload.push_back({"ev-" + std::to_string(i), std::move(spec.text)});
  }
  CTDB_ASSIGN_OR_RETURN(w.reference, BuildReference(w.preload));
  // The monitor's verdicts are read off each contract's automaton, and the
  // automaton a shard builds depends on the order its own vocabulary
  // interned events. The stream reference therefore mirrors the server's
  // partition: entry i lives on shard i % N, as a fresh sharded database
  // stripes a batch.
  for (size_t k = 0; k < w.shards; ++k) {
    std::vector<ContractDatabase::BatchEntry> part;
    for (size_t i = k; i < w.preload.size(); i += w.shards) {
      part.push_back(w.preload[i]);
    }
    CTDB_ASSIGN_OR_RETURN(auto shard, BuildReference(part));
    w.shard_references.push_back(std::move(shard));
  }

  const size_t batches_per_client = Scaled(
      kStreamBatchesPerSecond / static_cast<double>(kClients), seconds, 20);
  w.plans.resize(kClients);
  w.foreign.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    ClientPlan& plan = w.plans[c];
    w.foreign[c] = c % 2 == 1;
    ctdb::workload::TraceOptions trace;
    trace.vocabulary_size = kVocabulary;
    trace.prefix = w.foreign[c] ? "q" : "p";
    ctdb::workload::TraceGenerator events(trace, Mix(seed, 210 + c));
    plan.stream = "stream-" + std::to_string(c);
    for (size_t b = 0; b < batches_per_client; ++b) {
      const uint32_t session = static_cast<uint32_t>(b / kStreamSessionBatches);
      if (b % kStreamSessionBatches == 0) {
        plan.ops.push_back({OpKind::kOpen, session, 0, 0});
      }
      plan.batches.push_back(events.NextBatch(kStreamInstantsPerBatch));
      plan.ops.push_back({OpKind::kAppend, static_cast<uint32_t>(b), 0, 0});
      if ((b + 1) % kStreamSessionBatches == 0 || b + 1 == batches_per_client) {
        plan.ops.push_back({OpKind::kClose, session, 0, 0});
      }
    }
  }
  std::set<std::string> seen;
  CTDB_ASSIGN_OR_RETURN(std::vector<std::string> probes,
                        DrawDistinct(kStreamLayerProbes, 2, Mix(kPoolSeed, 300), &seen));
  const auto snapshot = w.reference->Snapshot();
  for (std::string& q : probes) {
    ctdb::ltl::FormulaFactory factory;
    if (ctdb::ltl::Parse(q, &factory, snapshot->vocabulary()).ok()) {
      w.layer_probes.push_back(std::move(q));
    }
  }
  for (size_t i = 0; i < kRegisterProbes; ++i) {
    w.register_probes.push_back(w.preload[i].ltl_text);
  }
  w.probe_query = "F p1";
  CTDB_ASSIGN_OR_RETURN(auto probe, ScanAnswers(*w.reference, {w.probe_query}));
  w.probe_expected = probe[0];
  w.probe_checked = true;

  w.properties = {
      {"contracts", std::to_string(w.preload.size()) +
                        " event-pattern contracts x 2 properties"},
      {"streams", std::to_string(kClients) + " (one per connection)"},
      {"batches", std::to_string(batches_per_client) + " per stream x " +
                      std::to_string(kStreamInstantsPerBatch) + " instants"},
      {"foreign_batch_share", "0.5"},
  };
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double seconds) {
  if (name == "read_paper") return MakeReadPaper(seed, seconds);
  if (name == "write_churn") return MakeWriteChurn(seed, seconds);
  if (name == "stream_monitor") return MakeStreamMonitor(seed, seconds);
  return Status::InvalidArgument("unknown workload " + name);
}

void AssignOwnership(const std::vector<uint32_t>& preload_ids,
                     size_t first_owned, std::vector<ClientPlan>* plans) {
  for (size_t i = first_owned; i < preload_ids.size(); ++i) {
    (*plans)[(i - first_owned) % plans->size()].owned.push_back(preload_ids[i]);
  }
}

ContractState ExpectedState(const Workload& w,
                            const std::vector<uint32_t>& preload_ids,
                            const std::vector<ClientResult>& results) {
  ContractState state;
  for (size_t i = 0; i < preload_ids.size(); ++i) {
    state[preload_ids[i]] = {w.preload[i].name, w.preload[i].ltl_text};
  }
  // Clients own disjoint contracts, so per-client ack order is enough.
  for (const ClientResult& r : results) {
    for (const WriteAck& ack : r.acks) {
      switch (ack.kind) {
        case OpKind::kRegister:
          state[ack.id] = {ack.name, w.inputs.texts[ack.text]};
          break;
        case OpKind::kReplace:
          state[ack.id].second = w.inputs.texts[ack.text];
          break;
        case OpKind::kUnregister:
          state.erase(ack.id);
          break;
        default:
          break;
      }
    }
  }
  return state;
}

namespace {

void CollectState(const ctdb::broker::DatabaseSnapshot& snap, size_t shard,
                  size_t shards, ContractState* out) {
  for (uint32_t local = 0; local < snap.slot_count(); ++local) {
    if (!snap.is_live(local)) continue;
    const ctdb::broker::Contract& c = snap.contract(local);
    const uint32_t global = static_cast<uint32_t>(local * shards + shard);
    (*out)[global] = {c.name, c.ltl_text};
  }
}

}  // namespace

Result<RecoveryReport> RecoverInProcess(const std::string& dir, size_t shards,
                                        const ContractState* expected) {
  RecoveryReport report;
  ContractState actual;
  const ctdb::wal::DurabilityOptions durability;
  ctdb::broker::DatabaseOptions options;
  if (shards == 0) {
    CTDB_ASSIGN_OR_RETURN(auto db, ctdb::broker::DurableDatabase::Open(
                                       dir, durability, options));
    const ctdb::broker::RecoveryStats& s = db->recovery_stats();
    report.replay_ms = report.replay_ms_sum = report.wall_ms = s.replay_ms;
    report.checkpoint_load_ms = s.checkpoint_load_ms;
    report.records_replayed = s.records_replayed;
    report.bytes_scanned = s.bytes_scanned;
    CollectState(*db->database().Snapshot(), 0, 1, &actual);
    CTDB_RETURN_NOT_OK(db->Close());
  } else {
    options.shards = shards;
    CTDB_ASSIGN_OR_RETURN(auto db, ctdb::shard::ShardedDatabase::Open(
                                       dir, durability, options));
    const ctdb::shard::ShardedRecoveryStats& s = db->recovery_stats();
    report.wall_ms = s.wall_ms;
    report.replay_ms_sum = s.replay_ms_sum;
    report.records_replayed = s.records_replayed;
    report.bytes_scanned = s.bytes_scanned;
    for (const ctdb::broker::RecoveryStats& shard : s.per_shard) {
      report.replay_ms = std::max(report.replay_ms, shard.replay_ms);
      report.checkpoint_load_ms += shard.checkpoint_load_ms;
    }
    for (size_t k = 0; k < db->shard_count(); ++k) {
      CollectState(*db->shard(k).database().Snapshot(), k, db->shard_count(),
                   &actual);
    }
    CTDB_RETURN_NOT_OK(db->Close());
  }
  if (expected != nullptr) {
    for (const auto& [id, entry] : *expected) {
      auto it = actual.find(id);
      if (it == actual.end() || it->second != entry) ++report.mismatches;
    }
    for (const auto& [id, entry] : actual) {
      if (expected->count(id) == 0) ++report.mismatches;
    }
  }
  return report;
}

size_t CheckStreams(const Workload& w, const std::vector<uint32_t>& server_ids,
                    const std::vector<ClientResult>& results) {
  const size_t n = w.shard_references.size();
  using Verdicts = std::vector<ctdb::monitor::VerdictDelta>;
  // Shard k's local id l is preload entry l * n + k.
  auto merge = [&](const std::vector<Verdicts>& per_shard) {
    Verdicts out;
    for (size_t k = 0; k < n; ++k) {
      for (ctdb::monitor::VerdictDelta d : per_shard[k]) {
        d.contract_id = server_ids[d.contract_id * n + k];
        out.push_back(d);
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.contract_id < b.contract_id;
    });
    return out;
  };
  std::vector<size_t> wrong(w.plans.size(), 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.plans.size(); ++c) {
    threads.emplace_back([&, c] {
      const ClientResult& r = results[c];
      std::vector<std::unique_ptr<ctdb::monitor::StreamSession>> sessions(n);
      std::vector<Verdicts> per_shard(n);
      size_t appends = 0, closes = 0;
      for (const Op& op : w.plans[c].ops) {
        if (op.kind == OpKind::kOpen) {
          for (size_t k = 0; k < n; ++k) {
            auto opened = ctdb::monitor::StreamSession::Open(
                w.shard_references[k]->Snapshot(), ctdb::monitor::StreamOptions{});
            if (!opened.ok()) {
              ++wrong[c];
              return;
            }
            sessions[k] = std::move(*opened);
          }
        } else if (op.kind == OpKind::kAppend) {
          for (size_t k = 0; k < n; ++k) {
            per_shard[k] = sessions[k]->Append(w.plans[c].batches[op.arg]).deltas;
          }
          if (appends >= r.deltas.size() || merge(per_shard) != r.deltas[appends]) {
            ++wrong[c];
          }
          ++appends;
        } else if (op.kind == OpKind::kClose) {
          for (size_t k = 0; k < n; ++k) per_shard[k] = sessions[k]->Summary().verdicts;
          if (closes >= r.close_verdicts.size() ||
              merge(per_shard) != r.close_verdicts[closes]) {
            ++wrong[c];
          }
          ++closes;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t total = 0;
  for (size_t count : wrong) total += count;
  return total;
}

}  // namespace perfbench
