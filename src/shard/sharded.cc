#include "shard/sharded.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "base/vocabulary.h"
#include "broker/contract.h"
#include "ltl/formula.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "wal/segment.h"

namespace ctdb::shard {

namespace {

/// Prefixes a shard-local error with the shard directory, so "checksum
/// mismatch" becomes "shard-002: checksum mismatch".
Status AnnotateShard(size_t shard, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), ShardDirName(shard) + ": " + status.message());
}

/// True when `dir` looks like an unsharded DurableDatabase directory —
/// i.e. it already holds WAL segments at the top level. Opening such a
/// directory as sharded would shadow the existing data, so Open refuses.
bool LooksLikeUnshardedData(const std::string& dir) {
  auto entries = util::ListDir(dir);
  if (!entries.ok()) return false;
  for (const std::string& name : *entries) {
    uint64_t index = 0;
    if (wal::ParseSegmentFileName(name, &index)) return true;
  }
  return false;
}

/// The shard owning the lowest next global id (slots[k] * n + k): where the
/// next registration goes, given per-shard slot counts.
size_t RouteShard(const std::vector<uint64_t>& slots) {
  const size_t n = slots.size();
  size_t best = 0;
  for (size_t k = 1; k < n; ++k) {
    if (slots[k] * n + k < slots[best] * n + best) best = k;
  }
  return best;
}

/// The router's one fan-out: runs `fn(k)` for every shard k — in parallel on
/// `pool` when there is one and more than one shard — and returns the
/// lowest-numbered shard's error. Every shard runs whatever the others
/// return, so the result does not depend on the interleaving.
Status Scatter(util::ThreadPool* pool, size_t n,
               const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(n, Status::OK());
  auto one = [&](size_t k) {
    status[k] = fn(k);
    return Status::OK();
  };
  if (pool != nullptr && n > 1) {
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, n, one));
  } else {
    for (size_t k = 0; k < n; ++k) (void)one(k);
  }
  for (const Status& s : status) CTDB_RETURN_NOT_OK(s);
  return Status::OK();
}

/// The router's one gather: a k-way merge of per-shard streams into
/// ascending global id order. Shard k contributes `sizes[k]` elements in
/// ascending local id `local_id(k, i)`; global = local * n + k preserves that
/// order within a shard. `emit(k, i, global_id)` receives each element once.
template <typename LocalId, typename Emit>
void MergeByGlobalId(const std::vector<size_t>& sizes, LocalId local_id,
                     Emit emit) {
  const size_t n = sizes.size();
  std::vector<size_t> cursor(n, 0);
  while (true) {
    size_t best = n;
    uint32_t best_id = 0;
    for (size_t k = 0; k < n; ++k) {
      if (cursor[k] >= sizes[k]) continue;
      const uint32_t gid =
          ShardedDatabase::GlobalId(k, local_id(k, cursor[k]), n);
      if (best == n || gid < best_id) {
        best = k;
        best_id = gid;
      }
    }
    if (best == n) return;
    emit(best, cursor[best]++, best_id);
  }
}

/// Verdict lists (stream deltas or final verdicts) of every shard, merged
/// by global contract id.
std::vector<monitor::VerdictDelta> MergeVerdicts(
    const std::vector<const std::vector<monitor::VerdictDelta>*>& per_shard) {
  std::vector<size_t> sizes;
  for (const auto* verdicts : per_shard) sizes.push_back(verdicts->size());
  std::vector<monitor::VerdictDelta> merged;
  MergeByGlobalId(
      sizes,
      [&](size_t k, size_t i) { return (*per_shard[k])[i].contract_id; },
      [&](size_t k, size_t i, uint32_t gid) {
        merged.push_back({gid, (*per_shard[k])[i].verdict});
      });
  return merged;
}

}  // namespace

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    std::string dir, const wal::DurabilityOptions& durability,
    const broker::DatabaseOptions& options) {
  Timer open_timer;
  CTDB_RETURN_NOT_OK(util::CreateDirIfMissing(dir));

  // Establish the topology: adopt the manifest when one exists (and verify
  // the caller agrees), otherwise stamp a fresh one.
  Manifest manifest;
  auto existing = ReadManifest(dir);
  if (existing.ok()) {
    manifest = std::move(*existing);
    if (options.shards != 0 && options.shards != manifest.shards) {
      return Status::InvalidArgument(StringFormat(
          "sharded database at %s has %u shards, but %zu were requested; "
          "resharding is not supported — open with the recorded topology "
          "(or shards=0 to adopt it)",
          dir.c_str(), manifest.shards, options.shards));
    }
  } else if (existing.status().code() == StatusCode::kNotFound) {
    if (LooksLikeUnshardedData(dir)) {
      return Status::InvalidArgument(
          dir + ": holds an unsharded database (WAL segments present but no " +
          kManifestFileName + "); refusing to shard over it");
    }
    if (options.shards > 1024) {
      return Status::InvalidArgument("shards must be <= 1024");
    }
    manifest.shards =
        static_cast<uint32_t>(options.shards == 0 ? 1 : options.shards);
    for (size_t k = 0; k < manifest.shards; ++k) {
      manifest.dirs.push_back(ShardDirName(k));
    }
    CTDB_RETURN_NOT_OK(WriteManifest(dir, manifest));
  } else {
    return existing.status();
  }

  const size_t n = manifest.shards;
  broker::DatabaseOptions shard_options = options;
  shard_options.shards = 1;  // each shard is a plain DurableDatabase

  // Router pool: one participant per shard up to the hardware, remembering
  // that the calling thread claims iterations too.
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t workers = std::max<size_t>(1, std::min(n, hw) - 1);
  auto pool = n > 1 ? std::make_unique<util::ThreadPool>(workers) : nullptr;

  // Recover every shard in parallel; wall time is the slowest shard.
  std::vector<std::unique_ptr<broker::DurableDatabase>> shards(n);
  CTDB_RETURN_NOT_OK(Scatter(pool.get(), n, [&](size_t k) -> Status {
    auto opened = broker::DurableDatabase::Open(
        dir + "/" + manifest.dirs[k], durability, shard_options);
    if (!opened.ok()) return AnnotateShard(k, opened.status());
    shards[k] = std::move(*opened);
    return Status::OK();
  }));

  ShardedRecoveryStats stats;
  stats.shards = n;
  for (size_t k = 0; k < n; ++k) {
    const broker::RecoveryStats& rs = shards[k]->recovery_stats();
    stats.replay_ms_sum += rs.replay_ms + rs.checkpoint_load_ms;
    stats.records_replayed += rs.records_replayed;
    stats.bytes_scanned += rs.bytes_scanned;
    stats.tail_truncated = stats.tail_truncated || rs.tail_truncated;
    stats.per_shard.push_back(rs);
  }

  // Re-broadcast the union vocabulary: InternEvent is not WAL-logged, so a
  // recovered shard only knows the events its own contracts cite.
  if (n > 1) {
    std::vector<std::string> union_names;
    for (size_t k = 0; k < n; ++k) {
      const auto snapshot = shards[k]->Snapshot();
      for (const std::string& name : snapshot->vocabulary().names()) {
        union_names.push_back(name);
      }
    }
    for (size_t k = 0; k < n; ++k) {
      for (const std::string& name : union_names) {
        CTDB_RETURN_NOT_OK(
            AnnotateShard(k, shards[k]->InternEvent(name).status()));
      }
    }
  }
  stats.wall_ms = open_timer.ElapsedMillis();

  return std::unique_ptr<ShardedDatabase>(new ShardedDatabase(
      std::move(dir), std::move(shards), std::move(pool), std::move(stats)));
}

ShardedDatabase::ShardedDatabase(
    std::string dir,
    std::vector<std::unique_ptr<broker::DurableDatabase>> shards,
    std::unique_ptr<util::ThreadPool> pool, ShardedRecoveryStats recovery_stats)
    : dir_(std::move(dir)),
      shards_(std::move(shards)),
      pool_(std::move(pool)),
      recovery_stats_(std::move(recovery_stats)) {
  slots_.resize(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    slots_[k] = shards_[k]->slot_count();
    // Shard clocks are sparse samples of one global clock; the max is the
    // latest tick any shard acknowledged.
    clock_ = std::max(clock_, shards_[k]->last_sequence());
  }
#if CTDB_OBS
  // Counters are cached at construction, so a runtime-disabled registry
  // stays empty (the documented CTDB_OBS=0 contract); enabling obs after
  // construction leaves the per-shard counters unrecorded by design.
  if (obs::Enabled()) {
    register_counters_.resize(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) {
      register_counters_[k] = obs::MetricsRegistry::Default()->GetCounter(
          StringFormat("shard.%03zu.registrations", k));
    }
    obs::MetricsRegistry::Default()
        ->GetGauge("shard.count")
        ->Add(static_cast<int64_t>(shards_.size()));
  }
#endif
}

ShardedDatabase::~ShardedDatabase() {
  (void)Close();
#if CTDB_OBS
  if (!register_counters_.empty()) {
    obs::MetricsRegistry::Default()
        ->GetGauge("shard.count")
        ->Sub(static_cast<int64_t>(shards_.size()));
  }
#endif
}

Status ShardedDatabase::BroadcastEventsLocked(size_t from, uint32_t local_id) {
  if (shards_.size() == 1) return Status::OK();
  const auto snapshot = shards_[from]->Snapshot();
  const broker::Contract& contract = snapshot->contract(local_id);
  const Vocabulary& vocab = snapshot->vocabulary();
  for (size_t event : contract.events.Indices()) {
    const std::string& name = vocab.Name(static_cast<EventId>(event));
    for (size_t k = 0; k < shards_.size(); ++k) {
      if (k == from) continue;
      CTDB_RETURN_NOT_OK(
          AnnotateShard(k, shards_[k]->InternEvent(name).status()));
    }
  }
  return Status::OK();
}

Status ShardedDatabase::Route(std::vector<wal::Record>* records,
                              broker::RegistrationStats* stats) {
  using wal::RecordType;
  CTDB_RETURN_NOT_OK(CheckOpen());
  const bool single = records->size() == 1;
  if (!single) {
    // A batch can span shards, and no shard can undo another's commit:
    // pre-parse every text with a scratch parser so a malformed one fails
    // the whole batch before anything touches any shard — the same
    // all-or-nothing surface as the unsharded Apply.
    ltl::FormulaFactory scratch_factory;
    Vocabulary scratch_vocab;
    for (const wal::Record& record : *records) {
      if (record.type == RecordType::kUnregister) continue;
      CTDB_RETURN_NOT_OK(
          ltl::Parse(record.ltl_text, &scratch_factory, &scratch_vocab)
              .status());
    }
  }

  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t n = shards_.size();
  // A shard knows only local ids: NotFound names the global one.
  auto not_live = [](uint32_t id) {
    return Status::NotFound("contract " + std::to_string(id) + " is not live");
  };

  // Plan: a Register goes to the shard owning the lowest next global id, a
  // lifecycle record to its contract's shard; record i takes global clock
  // clock_ + 1 + i, so a batch occupies the same clock range as the
  // equivalent sequence of single mutations. Record i becomes entry
  // position[i] of shard shard[i]'s sub-batch, with local id local_id[i].
  std::vector<std::vector<wal::Record>> sub(n);
  std::vector<size_t> shard(records->size());
  std::vector<size_t> position(records->size());
  std::vector<uint32_t> local_id(records->size());
  std::vector<uint64_t> planned = slots_;
  for (size_t i = 0; i < records->size(); ++i) {
    wal::Record local = (*records)[i];
    size_t k = 0;
    if (local.type == RecordType::kRegister) {
      k = RouteShard(planned);
      local.contract_id = static_cast<uint32_t>(planned[k]++);
    } else {
      k = ShardOfId(local.contract_id, n);
      if (LocalId(local.contract_id, n) >= planned[k]) {
        return not_live(local.contract_id);
      }
      local.contract_id = LocalId(local.contract_id, n);
    }
    local.clock = clock_ + 1 + i;
    shard[i] = k;
    position[i] = sub[k].size();
    local_id[i] = local.contract_id;
    sub[k].push_back(std::move(local));
  }

  // Apply the sub-batches, each atomic within its shard.
  size_t touched = 0;
  for (const auto& batch : sub) touched += batch.empty() ? 0 : 1;
  const Status applied = Scatter(
      touched > 1 ? pool_.get() : nullptr, n, [&](size_t k) -> Status {
        if (sub[k].empty()) return Status::OK();
        const Status s = shards_[k]->Apply(&sub[k], single ? stats : nullptr);
        return single ? s : AnnotateShard(k, s);
      });
  // Resync even on failure: a WAL-append error still applied the mutations
  // (and their clocks) in the shard's memory, and on a partial failure
  // other sub-batches committed; the router must not hand a tick or a slot
  // out twice.
  for (size_t k = 0; k < n; ++k) {
    if (sub[k].empty()) continue;
    clock_ = std::max(clock_, shards_[k]->last_sequence());
    slots_[k] = shards_[k]->slot_count();
  }
  if (single && applied.IsNotFound()) {
    return not_live((*records)[0].contract_id);
  }
  CTDB_RETURN_NOT_OK(applied);

  // Write the global ids and clocks back; keep the vocabularies in sync.
  for (size_t i = 0; i < records->size(); ++i) {
    const size_t k = shard[i];
    const wal::Record& local = sub[k][position[i]];
    wal::Record& record = (*records)[i];
    record.clock = local.clock;
    switch (record.type) {
      case RecordType::kRegister:
        // The shard assigns local ids densely from its own slot count,
        // which the route table tracked.
        if (local.contract_id != local_id[i]) {
          return AnnotateShard(k, Status::Internal("local id out of step"));
        }
        record.contract_id = GlobalId(k, local.contract_id, n);
#if CTDB_OBS
        if (obs::Enabled() && !register_counters_.empty()) {
          register_counters_[k]->Add();
        }
#endif
        break;
      case RecordType::kReplace:
        CTDB_OBS_COUNT("shard.replaces", 1);
        break;
      default:
        CTDB_OBS_COUNT("shard.unregisters", 1);
        continue;  // nothing new to broadcast
    }
    CTDB_RETURN_NOT_OK(BroadcastEventsLocked(k, local.contract_id));
  }
  return Status::OK();
}

Result<uint32_t> ShardedDatabase::Register(std::string name,
                                           std::string_view ltl_text,
                                           broker::RegistrationStats* stats) {
  std::vector<wal::Record> records = {wal::Record::Register(
      0, 0, 0, std::move(name), std::string(ltl_text))};
  CTDB_RETURN_NOT_OK(Route(&records, stats));
  return records[0].contract_id;
}

Result<std::vector<uint32_t>> ShardedDatabase::RegisterBatch(
    const std::vector<broker::ContractDatabase::BatchEntry>& entries) {
  std::vector<wal::Record> records = broker::RegisterRecords(entries);
  CTDB_RETURN_NOT_OK(Route(&records, nullptr));
  return broker::ContractIds(records);
}

Result<uint64_t> ShardedDatabase::Unregister(uint32_t id) {
  std::vector<wal::Record> records = {wal::Record::Unregister(0, 0, id)};
  CTDB_RETURN_NOT_OK(Route(&records, nullptr));
  return records[0].clock;
}

Result<uint64_t> ShardedDatabase::Replace(uint32_t id,
                                          std::string_view ltl_text,
                                          broker::RegistrationStats* stats) {
  std::vector<wal::Record> records = {
      wal::Record::Replace(0, 0, id, std::string(ltl_text))};
  CTDB_RETURN_NOT_OK(Route(&records, stats));
  return records[0].clock;
}

Result<broker::QueryResult> ShardedDatabase::Query(
    std::string_view ltl_text, const broker::QueryOptions& options) const {
  CTDB_ASSIGN_OR_RETURN(std::vector<broker::QueryResult> results,
                        QueryBatch({std::string(ltl_text)}, options));
  return std::move(results[0]);
}

Result<std::vector<broker::QueryResult>> ShardedDatabase::QueryBatch(
    const std::vector<std::string>& queries,
    const broker::QueryOptions& options) const {
  CTDB_RETURN_NOT_OK(CheckOpen());
  const size_t n = shards_.size();
  Timer wall;

  // Scatter: every shard evaluates the whole batch against one of its
  // snapshots. Parse / unknown-event errors are identical across shards
  // (the vocabularies are kept in sync), so shard 0's wording is reported.
  std::vector<Result<std::vector<broker::QueryResult>>> per_shard(
      n, Status::Internal("shard not reached"));
  CTDB_RETURN_NOT_OK(Scatter(pool_.get(), n, [&](size_t k) {
    per_shard[k] = shards_[k]->QueryBatch(queries, options);
    return per_shard[k].status();
  }));
  const double wall_ms = wall.ElapsedMillis();

  // Gather: merge each query's shard results by ascending global id.
  std::vector<broker::QueryResult> merged(queries.size());
  std::vector<size_t> sizes(n);
  for (size_t q = 0; q < queries.size(); ++q) {
    broker::QueryResult& out = merged[q];
    for (size_t k = 0; k < n; ++k) {
      sizes[k] = (*per_shard[k])[q].matches.size();
    }
    MergeByGlobalId(
        sizes,
        [&](size_t k, size_t i) { return (*per_shard[k])[q].matches[i]; },
        [&](size_t k, size_t i, uint32_t gid) {
          out.matches.push_back(gid);
          if (options.collect_witnesses) {
            out.witnesses.push_back(
                std::move((*per_shard[k])[q].witnesses[i]));
          }
        });
    // Stats: sizes and counts sum; the parallel phases (translate,
    // prefilter) cost their slowest shard; permission is summed CPU time;
    // total is the scatter-gather wall clock for the whole batch.
    for (size_t k = 0; k < n; ++k) {
      const broker::QueryStats& s = (*per_shard[k])[q].stats;
      broker::QueryStats& m = out.stats;
      m.database_size += s.database_size;
      m.candidates += s.candidates;
      m.matches += s.matches;
      m.translate_ms = std::max(m.translate_ms, s.translate_ms);
      m.prefilter_ms = std::max(m.prefilter_ms, s.prefilter_ms);
      m.extract_ms = std::max(m.extract_ms, s.extract_ms);
      m.permission_ms += s.permission_ms;
      m.translate_cache_hit = m.translate_cache_hit || s.translate_cache_hit;
    }
    out.stats.total_ms = wall_ms;
  }
  CTDB_OBS_COUNT("shard.queries", queries.size());
  return merged;
}

Result<monitor::StreamOpenInfo> ShardedDatabase::StreamOpen(
    std::string name, const monitor::StreamOptions& options) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  // One global pin for every shard. Per-shard clocks are sparse but
  // mutually comparable (router-assigned), so a shard whose clock is behind
  // the pin clamps to its latest state — correct, it had no mutations in
  // between (same argument as QueryAsOf, DESIGN.md §14).
  uint64_t pin = options.as_of;
  if (pin == 0) {
    std::lock_guard<std::mutex> lock(route_mutex_);
    pin = clock_;
  }
  monitor::StreamOptions shard_options = options;
  shard_options.as_of = pin;
  monitor::StreamOpenInfo info;
  info.clock = pin;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto opened = shards_[k]->StreamOpen(name, shard_options);
    if (!opened.ok()) {
      // All-or-nothing: a stream is open on every shard or on none.
      for (size_t j = 0; j < k; ++j) (void)shards_[j]->StreamClose(name);
      return AnnotateShard(k, opened.status());
    }
    info.tracked += opened->tracked;
  }
  return info;
}

Result<monitor::StreamAppendResult> ShardedDatabase::StreamAppend(
    std::string_view name, const monitor::EventBatch& events) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  const size_t n = shards_.size();

  // Scatter: every shard steps its own contracts through the whole batch.
  std::vector<Result<monitor::StreamAppendResult>> per_shard(
      n, Status::Internal("shard not reached"));
  CTDB_RETURN_NOT_OK(Scatter(pool_.get(), n, [&](size_t k) {
    per_shard[k] = shards_[k]->StreamAppend(name, events);
    return AnnotateShard(k, per_shard[k].status());
  }));

  // Gather: every shard saw the same events; counters sum, deltas merge.
  monitor::StreamAppendResult merged;
  merged.events = per_shard[0]->events;
  std::vector<const std::vector<monitor::VerdictDelta>*> deltas;
  for (const auto& r : per_shard) {
    merged.stepped += r->stepped;
    merged.pruned += r->pruned;
    deltas.push_back(&r->deltas);
  }
  merged.deltas = MergeVerdicts(deltas);
  return merged;
}

Result<monitor::StreamCloseInfo> ShardedDatabase::StreamClose(
    std::string_view name) {
  // No CheckOpen: closing a stream is read-only summary work and stays
  // legal while the database shuts down. Serial: a summary is too cheap to
  // take the router pool away from concurrent appends.
  const size_t n = shards_.size();
  std::vector<Result<monitor::StreamCloseInfo>> per_shard(
      n, Status::Internal("shard not reached"));
  CTDB_RETURN_NOT_OK(Scatter(nullptr, n, [&](size_t k) {
    per_shard[k] = shards_[k]->StreamClose(name);
    return AnnotateShard(k, per_shard[k].status());
  }));
  monitor::StreamCloseInfo info;
  info.events = per_shard[0]->events;
  std::vector<const std::vector<monitor::VerdictDelta>*> verdicts;
  for (const auto& r : per_shard) {
    info.satisfied += r->satisfied;
    info.violated += r->violated;
    info.undetermined += r->undetermined;
    verdicts.push_back(&r->verdicts);
  }
  info.verdicts = MergeVerdicts(verdicts);
  return info;
}

Status ShardedDatabase::Checkpoint() {
  CTDB_RETURN_NOT_OK(CheckOpen());
  CTDB_RETURN_NOT_OK(Scatter(pool_.get(), shards_.size(), [&](size_t k) {
    return AnnotateShard(k, shards_[k]->Checkpoint());
  }));
  CTDB_OBS_COUNT("shard.checkpoints", 1);
  return Status::OK();
}

Status ShardedDatabase::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return Status::OK();
  Status first;
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status s = AnnotateShard(k, shards_[k]->Close());
    if (first.ok()) first = s;
  }
  return first;
}

size_t ShardedDatabase::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

uint64_t ShardedDatabase::last_sequence() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return clock_;
}

obs::MetricsSnapshot ShardedDatabase::Metrics() const {
  return obs::MetricsRegistry::Default()->Snapshot();
}

}  // namespace ctdb::shard
