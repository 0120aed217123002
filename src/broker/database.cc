#include "broker/database.h"

#include <algorithm>
#include <utility>

#include "core/compatibility.h"
#include "ltl/parser.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ctdb::broker {

namespace {

/// Register and Replace want timings flushed into the metrics registry even
/// when the caller passed no stats sink: route stats to `fallback` in that
/// case (when the registry is enabled). The fallback struct is flushed like
/// any caller-provided one.
RegistrationStats* StatsOrObsFallback(RegistrationStats* stats,
                                      RegistrationStats* fallback) {
#if CTDB_OBS
  if (stats == nullptr && obs::Enabled()) return fallback;
#else
  (void)fallback;
#endif
  return stats;
}

}  // namespace

ContractDatabase::ContractDatabase(const DatabaseOptions& options)
    : options_(options),
      prefilter_(options.prefilter),
      translation_cache_(std::make_shared<translate::TranslationCache>(
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

Status ContractDatabase::CheckLiveLocked(uint32_t id) const {
  if (id >= contracts_.size() || contracts_[id] == nullptr) {
    return Status::NotFound("contract " + std::to_string(id) +
                            " is not live");
  }
  return Status::OK();
}

Result<uint64_t> ContractDatabase::ResolveClockLocked(uint64_t clock) const {
  if (clock == 0) return clock_ + 1;
  if (clock <= clock_) {
    return Status::InvalidArgument(
        "clock " + std::to_string(clock) + " does not advance the system "
        "clock " + std::to_string(clock_));
  }
  return clock;
}

Status ContractDatabase::InternEventsLocked(std::string_view ltl_text) {
  ltl::FormulaFactory scratch;
  return ltl::Parse(ltl_text, &scratch, &vocab_).status();
}

Result<std::shared_ptr<const Contract>> ContractDatabase::BuildContract(
    ContractDraft draft, util::ThreadPool* pool, RegistrationStats* stats,
    bool install) {
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
  // Validation failures return before any master state is touched, so the
  // published snapshot is untouched too.
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
  if (install) InstallLocked(contract, stats);
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

Result<uint64_t> ContractDatabase::PutVersionLocked(uint32_t id,
                                                    std::string name,
                                                    std::string ltl_text,
                                                    RegistrationStats* stats,
                                                    uint64_t clock) {
  RegistrationStats obs_stats;
  stats = StatsOrObsFallback(stats, &obs_stats);
  CTDB_RETURN_NOT_OK(InternEventsLocked(ltl_text));
  CTDB_ASSIGN_OR_RETURN(const uint64_t at, ResolveClockLocked(clock));
  // Installing swaps a superseded version out of the slot and the prefilter;
  // a parse or translation failure returns before that, leaving it live and
  // unobserved.
  std::shared_ptr<const Contract> old =
      id < contracts_.size() ? contracts_[id] : nullptr;
  CTDB_RETURN_NOT_OK(
      BuildContract({id, at, std::move(name), std::move(ltl_text), {}, {}},
                    EnsurePool(options_.threads), stats, /*install=*/true)
          .status());
  if (stats != nullptr) RecordRegistrationStats(*stats);
  if (old != nullptr) {
    history_ = history_->Append(ContractVersion{old, old->valid_from, at});
  }
  ops_ += 1;
  clock_ = at;
  Publish();
  return at;
}

Result<uint32_t> ContractDatabase::Register(std::string name,
                                            std::string_view ltl_text,
                                            RegistrationStats* stats,
                                            uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_OBS_SPAN(span, "register");
  const auto id = static_cast<uint32_t>(contracts_.size());
  CTDB_RETURN_NOT_OK(PutVersionLocked(id, std::move(name),
                                      std::string(ltl_text), stats, clock)
                         .status());
  return id;
}

Result<uint32_t> ContractDatabase::RegisterFormula(std::string name,
                                                   const ltl::Formula* spec,
                                                   std::string ltl_text,
                                                   RegistrationStats* stats,
                                                   uint64_t clock) {
  if (ltl_text.empty()) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    ltl_text = spec->ToString(vocab_);
  }
  return Register(std::move(name), ltl_text, stats, clock);
}

Result<uint64_t> ContractDatabase::Unregister(uint32_t id, uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_OBS_SPAN(span, "unregister");
  CTDB_RETURN_NOT_OK(CheckLiveLocked(id));
  CTDB_ASSIGN_OR_RETURN(const uint64_t at, ResolveClockLocked(clock));
  std::shared_ptr<const Contract> victim = contracts_[id];
  if (options_.build_prefilter) {
    prefilter_.Remove(id, victim->projections.original(), victim->events);
  }
  history_ = history_->Append(
      ContractVersion{victim, victim->valid_from, at});
  contracts_[id] = nullptr;
  live_.Clear(id);
  ops_ += 1;
  clock_ = at;
  Publish();
  CTDB_OBS_COUNT("broker.unregisters", 1);
  return at;
}

Result<uint64_t> ContractDatabase::Replace(uint32_t id,
                                           std::string_view ltl_text,
                                           RegistrationStats* stats,
                                           uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_OBS_SPAN(span, "replace");
  CTDB_RETURN_NOT_OK(CheckLiveLocked(id));
  CTDB_ASSIGN_OR_RETURN(const uint64_t at,
                        PutVersionLocked(id, contracts_[id]->name,
                                         std::string(ltl_text), stats, clock));
  CTDB_OBS_COUNT("broker.replacements", 1);
  return at;
}

Result<uint32_t> ContractDatabase::RestoreContract(
    uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
    Bitset events, uint64_t valid_from) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (id < contracts_.size()) {
    return Status::InvalidArgument("restored contract ids must ascend");
  }
  CTDB_RETURN_NOT_OK(BuildContract({id, valid_from, std::move(name),
                                    std::move(ltl_text), std::move(ba),
                                    std::move(events)},
                                   EnsurePool(options_.threads), nullptr,
                                   /*install=*/true)
                         .status());
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
                    EnsurePool(options_.threads), nullptr, /*install=*/false));
  history_ = history_->Append(
      ContractVersion{std::move(contract), valid_from, valid_to});
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

Result<std::vector<uint32_t>> ContractDatabase::RegisterBatch(
    const std::vector<BatchEntry>& entries, size_t threads,
    const std::vector<uint64_t>* clocks) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (clocks != nullptr) {
    if (clocks->size() != entries.size()) {
      return Status::InvalidArgument("clock count does not match batch size");
    }
    uint64_t last = clock_;
    for (uint64_t c : *clocks) {
      if (c <= last) {
        return Status::InvalidArgument(
            "batch clocks must be strictly increasing past the system clock");
      }
      last = c;
    }
  }

  // Phase 1 (serial): intern every event with its final id, so the workers
  // below parse read-only against a vocabulary that is stable under
  // writer_mutex_.
  for (const BatchEntry& entry : entries) {
    CTDB_RETURN_NOT_OK(InternEventsLocked(entry.ltl_text));
  }

  // Phase 2 (parallel): build every contract with its final id and clock.
  // BuildContract shares no mutable state between calls.
  std::vector<Result<std::shared_ptr<const Contract>>> built(
      entries.size(), Status::Internal("contract not built"));
  const size_t workers = std::min(ResolveThreads(threads, options_),
                                  std::max<size_t>(entries.size(), 1));
  // With a single worker the batch itself is serial, but each contract's
  // projection precompute can still use the shared executor.
  util::ThreadPool* precompute_pool =
      workers <= 1 ? EnsurePool(options_.threads) : nullptr;
  auto build_range = [&](size_t start, size_t stride) {
    for (size_t i = start; i < entries.size(); i += stride) {
      const auto id = static_cast<uint32_t>(contracts_.size() + i);
      const uint64_t at = clocks != nullptr ? (*clocks)[i] : clock_ + 1 + i;
      built[i] =
          BuildContract({id, at, entries[i].name, entries[i].ltl_text, {}, {}},
                        precompute_pool, nullptr, /*install=*/false);
    }
  };
  if (workers <= 1) {
    build_range(0, 1);
  } else {
    CTDB_RETURN_NOT_OK(EnsurePool(workers)->ParallelFor(
        0, workers, [&](size_t t) -> Status {
          build_range(t, workers);
          return Status::OK();
        }));
  }
  for (const auto& b : built) CTDB_RETURN_NOT_OK(b.status());

  // Phase 3 (serial): fill the shared index and commit. One publication at
  // the end — queries observe the whole batch or none of it.
  std::vector<uint32_t> ids;
  ids.reserve(entries.size());
  for (auto& b : built) {
    ids.push_back((*b)->id);
    clock_ = (*b)->valid_from;
    ops_ += 1;
    InstallLocked(std::move(*b), nullptr);
  }
  Publish();
  return ids;
}

Result<EventId> ContractDatabase::InternEvent(std::string_view name) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_ASSIGN_OR_RETURN(EventId id, vocab_.Intern(name));
  Publish();
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
