#include "broker/database.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/compatibility.h"
#include "ltl/parser.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ctdb::broker {

ContractDatabase::ContractDatabase(const DatabaseOptions& options)
    : options_(options),
      prefilter_(options.prefilter),
      translation_cache_(std::make_shared<QueryCache>(
          options.translation_cache_capacity)) {
  Publish();  // the empty snapshot, so Snapshot() is never null
}

util::ThreadPool* ContractDatabase::EnsurePool(size_t threads) const {
  if (threads <= 1) return nullptr;
  // The calling thread participates in ParallelFor, so `threads`-way
  // concurrency needs threads - 1 workers.
  const size_t workers = threads - 1;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(workers);
  } else if (pool_->thread_count() < workers) {
    pool_->Grow(workers);
  }
  return pool_.get();
}

void ContractDatabase::Publish() {
  if (published_vocab_ == nullptr ||
      published_vocab_->size() != vocab_.size()) {
    published_vocab_ = std::make_shared<const Vocabulary>(vocab_);
  }
  auto snapshot = std::make_shared<DatabaseSnapshot>();
  snapshot->options_ = options_;
  snapshot->vocab_ = published_vocab_;
  snapshot->contracts_ = contracts_;
  snapshot->live_ = live_;
  snapshot->live_count_ = live_.Count();
  snapshot->ops_ = ops_;
  snapshot->clock_ = clock_;
  snapshot->history_ = history_;
  snapshot->prefilter_ = prefilter_;
  snapshot->translation_cache_ = translation_cache_;
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

Result<std::shared_ptr<const Contract>> ContractDatabase::BuildContract(
    ContractDraft draft, util::ThreadPool* pool,
    RegistrationStats* stats) const {
  if (!draft.ba.has_value()) {
    // A fresh factory per contract: the tableau orders formula sets by
    // factory node id, so translating in a factory shared with earlier
    // registrations would make the automaton depend on them.
    ltl::FormulaFactory factory;
    CTDB_ASSIGN_OR_RETURN(const ltl::Formula* spec,
                          ltl::Parse(draft.ltl_text, &factory, vocab_));
    spec->CollectEvents(&draft.events);
    Timer timer;
    CTDB_ASSIGN_OR_RETURN(draft.ba, translate::LtlToBuchi(spec, &factory,
                                                          options_.translate));
    if (stats != nullptr) stats->translate_ms = timer.ElapsedMillis();
  }
  CTDB_OBS_SPAN(span, "register.automaton");
  CTDB_RETURN_NOT_OK(draft.ba->Validate());
  auto contract = std::make_shared<Contract>();
  contract->id = draft.id;
  contract->name = std::move(draft.name);
  contract->ltl_text = std::move(draft.ltl_text);
  contract->events = std::move(draft.events);
  contract->valid_from = draft.valid_from;
  contract->seed_states = core::ComputeSeedStates(*draft.ba);
  if (stats != nullptr) {
    stats->ba_states = draft.ba->StateCount();
    stats->ba_transitions = draft.ba->TransitionCount();
  }
  if (options_.build_projections) {
    CTDB_OBS_SPAN(proj_span, "register.projections");
    Timer timer;
    contract->projections = projection::ContractProjections::Precompute(
        std::move(*draft.ba), options_.projections, pool);
    if (stats != nullptr) {
      stats->projection_precompute_ms = timer.ElapsedMillis();
      const projection::ProjectionStats ps = contract->projections.stats();
      stats->projection_subsets = ps.subsets_computed;
      stats->projection_distinct = ps.distinct_partitions;
    }
  } else {
    contract->projections =
        projection::ContractProjections::WrapOnly(std::move(*draft.ba));
  }
  return std::shared_ptr<const Contract>(std::move(contract));
}

void ContractDatabase::InstallLocked(std::shared_ptr<const Contract> contract,
                                     RegistrationStats* stats) {
  const uint32_t id = contract->id;
  const Contract* old = id < contracts_.size() ? contracts_[id].get() : nullptr;
  if (options_.build_prefilter) {
    CTDB_OBS_SPAN(span, "register.prefilter_insert");
    Timer timer;
    if (old != nullptr) {
      prefilter_.Remove(id, old->projections.original(), old->events);
    }
    prefilter_.Insert(id, contract->projections.original(), contract->events);
    if (stats != nullptr) stats->prefilter_insert_ms = timer.ElapsedMillis();
  }
  if (id >= contracts_.size()) {
    contracts_.resize(id + 1);  // intervening slots stay holes
    live_.Resize(contracts_.size());
  }
  contracts_[id] = std::move(contract);
  live_.Set(id);
}

Status ContractDatabase::Apply(std::vector<wal::Record>* records,
                               size_t threads, RegistrationStats* stats,
                               size_t* failed_record) {
  using wal::RecordType;
  std::vector<wal::Record>& batch = *records;
  if (batch.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_OBS_SPAN(span, batch.size() == 1 ? wal::RecordTypeName(batch[0].type)
                                        : "apply");
  const size_t vocab_mark = vocab_.size();
  auto fail = [&](size_t i, Status status) {
    if (status.ok()) return status;
    vocab_.Truncate(vocab_mark);  // a failed batch interns nothing
    if (failed_record != nullptr) *failed_record = i;
    return status;
  };

  // Phase 1 (serial): validate the whole batch against the master state as
  // the batch's earlier records leave it. `overlay` holds the ids this
  // batch touched: the name of the version it made live, or nullptr once
  // unregistered.
  std::vector<ContractDraft> drafts(batch.size());
  std::unordered_map<uint32_t, const std::string*> overlay;
  uint64_t clock = clock_;
  auto slots = static_cast<uint32_t>(contracts_.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const wal::Record& record = batch[i];
    ContractDraft& draft = drafts[i];
    if (!wal::IsMutationType(record.type)) {
      return fail(i, Status::InvalidArgument("not a mutation record"));
    }
    if (record.clock != 0 && record.clock <= clock) {
      return fail(i, Status::InvalidArgument(
                         "clock " + std::to_string(record.clock) +
                         " does not advance the system clock " +
                         std::to_string(clock)));
    }
    clock = record.clock == 0 ? clock + 1 : record.clock;
    draft.valid_from = clock;
    if (record.type == RecordType::kRegister) {
      draft.id = slots++;
      draft.name = record.name;
    } else {
      draft.id = record.contract_id;
      const auto it = overlay.find(draft.id);
      const std::string* name =
          it != overlay.end() ? it->second
          : draft.id < contracts_.size() && contracts_[draft.id] != nullptr
              ? &contracts_[draft.id]->name
              : nullptr;
      if (name == nullptr) {
        return fail(i, Status::NotFound("contract " + std::to_string(draft.id) +
                                        " is not live"));
      }
      if (record.type == RecordType::kReplace) draft.name = *name;
    }
    overlay[draft.id] =
        record.type == RecordType::kUnregister ? nullptr : &draft.name;
  }

  // Phase 2 (serial): intern every event with its final id, so the builders
  // below parse read-only against a vocabulary stable under writer_mutex_.
  std::vector<size_t> puts;  // the Register/Replace records, in order
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].type == RecordType::kUnregister) continue;
    ltl::FormulaFactory scratch;
    CTDB_RETURN_NOT_OK(
        fail(i, ltl::Parse(batch[i].ltl_text, &scratch, &vocab_).status()));
    drafts[i].ltl_text = batch[i].ltl_text;
    puts.push_back(i);
  }

  // Phase 3 (parallel): build every contract with its final id and clock.
  // BuildContract shares no mutable state between calls.
  std::vector<Result<std::shared_ptr<const Contract>>> built(
      batch.size(), Status::Internal("contract not built"));
  std::vector<RegistrationStats> built_stats(batch.size());
  const size_t workers = std::min(ResolveThreads(threads, options_),
                                  std::max<size_t>(puts.size(), 1));
  // With a single worker the batch itself is serial, but each contract's
  // projection precompute can still use the shared executor.
  util::ThreadPool* precompute_pool =
      workers <= 1 ? EnsurePool(options_.threads) : nullptr;
  auto build_range = [&](size_t start, size_t stride) {
    for (size_t p = start; p < puts.size(); p += stride) {
      const size_t i = puts[p];
      built[i] = BuildContract(std::move(drafts[i]), precompute_pool,
                               &built_stats[i]);
    }
  };
  if (workers <= 1) {
    build_range(0, 1);
  } else {
    CTDB_RETURN_NOT_OK(fail(0, EnsurePool(workers)->ParallelFor(
                                   0, workers, [&](size_t t) -> Status {
                                     build_range(t, workers);
                                     return Status::OK();
                                   })));
  }
  for (size_t i : puts) CTDB_RETURN_NOT_OK(fail(i, built[i].status()));

  // Phase 4 (serial, cannot fail): install in record order, retire
  // superseded versions, write back, and publish once — queries observe the
  // whole batch or none of it.
  std::vector<ContractVersion> retired;
  for (size_t i = 0; i < batch.size(); ++i) {
    wal::Record& record = batch[i];
    const uint32_t id = record.type == RecordType::kRegister
                            ? static_cast<uint32_t>(contracts_.size())
                            : record.contract_id;
    const uint64_t at = record.clock == 0 ? clock_ + 1 : record.clock;
    if (record.type != RecordType::kRegister) {
      const std::shared_ptr<const Contract>& old = contracts_[id];
      retired.push_back(ContractVersion{old, old->valid_from, at});
    }
    if (record.type == RecordType::kUnregister) {
      const Contract& victim = *contracts_[id];
      if (options_.build_prefilter) {
        prefilter_.Remove(id, victim.projections.original(), victim.events);
      }
      contracts_[id] = nullptr;
      live_.Clear(id);
      CTDB_OBS_COUNT("broker.unregisters", 1);
    } else {
      InstallLocked(std::move(*built[i]), &built_stats[i]);
      RecordRegistrationStats(built_stats[i]);
      if (stats != nullptr) *stats = built_stats[i];
      if (record.type == RecordType::kRegister) {
        CTDB_OBS_COUNT("broker.registrations", 1);
      } else {
        CTDB_OBS_COUNT("broker.replacements", 1);
      }
    }
    record.contract_id = id;
    record.clock = at;
    ops_ += 1;
    clock_ = at;
  }
  if (!retired.empty()) history_ = history_->Append(std::move(retired));
  Publish();
  return Status::OK();
}

Result<uint32_t> ContractDatabase::Register(std::string name,
                                            std::string_view ltl_text,
                                            RegistrationStats* stats) {
  std::vector<wal::Record> batch = {wal::Record::Register(
      0, 0, 0, std::move(name), std::string(ltl_text))};
  CTDB_RETURN_NOT_OK(Apply(&batch, 0, stats));
  return batch[0].contract_id;
}

Result<uint32_t> ContractDatabase::RegisterFormula(std::string name,
                                                   const ltl::Formula* spec,
                                                   std::string ltl_text,
                                                   RegistrationStats* stats) {
  if (ltl_text.empty()) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    ltl_text = spec->ToString(vocab_);
  }
  return Register(std::move(name), ltl_text, stats);
}

Result<uint64_t> ContractDatabase::Unregister(uint32_t id) {
  std::vector<wal::Record> batch = {wal::Record::Unregister(0, 0, id)};
  CTDB_RETURN_NOT_OK(Apply(&batch));
  return batch[0].clock;
}

Result<uint64_t> ContractDatabase::Replace(uint32_t id,
                                           std::string_view ltl_text,
                                           RegistrationStats* stats) {
  std::vector<wal::Record> batch = {
      wal::Record::Replace(0, 0, id, std::string(ltl_text))};
  CTDB_RETURN_NOT_OK(Apply(&batch, 0, stats));
  return batch[0].clock;
}

Result<std::vector<uint32_t>> ContractDatabase::RegisterBatch(
    const std::vector<BatchEntry>& entries, size_t threads) {
  std::vector<wal::Record> batch = RegisterRecords(entries);
  CTDB_RETURN_NOT_OK(Apply(&batch, threads));
  return ContractIds(batch);
}

std::vector<wal::Record> RegisterRecords(
    const std::vector<ContractDatabase::BatchEntry>& entries) {
  std::vector<wal::Record> records;
  records.reserve(entries.size());
  for (const ContractDatabase::BatchEntry& entry : entries) {
    records.push_back(
        wal::Record::Register(0, 0, 0, entry.name, entry.ltl_text));
  }
  return records;
}

std::vector<uint32_t> ContractIds(const std::vector<wal::Record>& records) {
  std::vector<uint32_t> ids;
  ids.reserve(records.size());
  for (const wal::Record& record : records) ids.push_back(record.contract_id);
  return ids;
}

Result<uint32_t> ContractDatabase::RestoreContract(
    uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
    Bitset events, uint64_t valid_from) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (id < contracts_.size()) {
    return Status::InvalidArgument("restored contract ids must ascend");
  }
  CTDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const Contract> contract,
      BuildContract({id, valid_from, std::move(name), std::move(ltl_text),
                     std::move(ba), std::move(events)},
                    EnsurePool(options_.threads), nullptr));
  InstallLocked(std::move(contract), nullptr);
  Publish();
  return id;
}

Status ContractDatabase::RestoreHistoryVersion(
    uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
    Bitset events, uint64_t valid_from, uint64_t valid_to) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (valid_to <= valid_from) {
    return Status::InvalidArgument("history version has an empty period");
  }
  CTDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const Contract> contract,
      BuildContract({id, valid_from, std::move(name), std::move(ltl_text),
                     std::move(ba), std::move(events)},
                    EnsurePool(options_.threads), nullptr));
  history_ = history_->Append(
      {ContractVersion{std::move(contract), valid_from, valid_to}});
  Publish();
  return Status::OK();
}

Status ContractDatabase::RestoreLifecycle(uint64_t ops, uint64_t clock,
                                          uint64_t history_floor,
                                          uint64_t slot_count) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (slot_count < contracts_.size()) {
    return Status::InvalidArgument("slot count below restored contracts");
  }
  contracts_.resize(slot_count);  // trailing holes
  live_.Resize(contracts_.size());
  if (history_floor > 0) history_ = history_->Prune(history_floor);
  ops_ = ops;
  clock_ = clock;
  Publish();
  return Status::OK();
}

void ContractDatabase::PruneHistory(uint64_t horizon) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (horizon == 0) return;
  history_ = history_->Prune(horizon);
  Publish();
}

Result<EventId> ContractDatabase::InternEvent(std::string_view name) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const size_t before = vocab_.size();
  CTDB_ASSIGN_OR_RETURN(EventId id, vocab_.Intern(name));
  if (vocab_.size() != before) Publish();
  return id;
}

Result<QueryResult> ContractDatabase::Query(std::string_view ltl_text,
                                            const QueryOptions& options) const {
  return Snapshot()->Query(
      ltl_text, options, EnsurePool(ResolveThreads(options.threads, options_)));
}

Result<QueryResult> ContractDatabase::QueryFormula(
    const ltl::Formula* query, const QueryOptions& options) const {
  return Snapshot()->QueryFormula(
      query, options, EnsurePool(ResolveThreads(options.threads, options_)));
}

Result<std::vector<QueryResult>> ContractDatabase::QueryBatch(
    const std::vector<std::string>& queries,
    const QueryOptions& options) const {
  return Snapshot()->QueryBatch(
      queries, options, EnsurePool(ResolveThreads(options.threads, options_)));
}

obs::MetricsSnapshot ContractDatabase::MetricsSnapshot() const {
  return obs::MetricsRegistry::Default()->Snapshot();
}

}  // namespace ctdb::broker
