#include "broker/snapshot.h"

#include <algorithm>
#include <utility>

#include "core/witness.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ctdb::broker {

size_t ResolveThreads(size_t requested, const DatabaseOptions& options) {
  const size_t threads = requested == 0 ? options.threads : requested;
  return threads == 0 ? 1 : threads;
}

struct DatabaseSnapshot::Plan {
  std::shared_ptr<const CompiledQuery> query;
  Bitset events;  ///< the events the query cites
  std::vector<const Contract*> candidates;  ///< sorted by id
};

struct DatabaseSnapshot::Checks {
  std::vector<uint32_t> matches;  ///< ascending
  std::vector<LassoWord> witnesses;
  core::PermissionStats stats;
  double elapsed_ms = 0;
};

Result<QueryResult> DatabaseSnapshot::Query(std::string_view ltl_text,
                                            const QueryOptions& options,
                                            util::ThreadPool* pool) const {
  // Parse with a local factory, read-only against the snapshot vocabulary:
  // unknown events are a NotFound error and nothing shared is touched.
  ltl::FormulaFactory factory;
  CTDB_ASSIGN_OR_RETURN(const ltl::Formula* query,
                        ltl::Parse(ltl_text, &factory, *vocab_));
  CTDB_ASSIGN_OR_RETURN(std::vector<QueryResult> results,
                        Evaluate({query}, &factory, options, pool));
  return std::move(results[0]);
}

Result<QueryResult> DatabaseSnapshot::QueryFormula(
    const ltl::Formula* query, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // The translation rebuilds `query` into this local factory (NNF
  // normalization copies the formula first), so callers may pass formulas
  // owned by any factory — including the database's shared one — without
  // the read path interning into it.
  ltl::FormulaFactory factory;
  CTDB_ASSIGN_OR_RETURN(std::vector<QueryResult> results,
                        Evaluate({query}, &factory, options, pool));
  return std::move(results[0]);
}

Result<std::vector<QueryResult>> DatabaseSnapshot::QueryBatch(
    const std::vector<std::string>& queries, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // Parse every query up front, read-only against the snapshot vocabulary,
  // so unknown-event typos fail the whole batch before any evaluation (the
  // same contract Query offers).
  CTDB_OBS_SPAN(batch_span, "query_batch");
  CTDB_OBS_SPAN_ATTR(batch_span, "queries", queries.size());
  ltl::FormulaFactory factory;
  std::vector<const ltl::Formula*> formulas(queries.size());
  {
    CTDB_OBS_SPAN(parse_span, "query_batch.parse");
    for (size_t i = 0; i < queries.size(); ++i) {
      auto parsed = ltl::Parse(queries[i], &factory, *vocab_);
      if (!parsed.ok()) {
        return Status(parsed.status().code(),
                      "query " + std::to_string(i) + ": " +
                          parsed.status().message());
      }
      formulas[i] = *parsed;
    }
  }
  return Evaluate(formulas, &factory, options, pool);
}

Result<AsOfView> DatabaseSnapshot::ResolveAsOf(uint64_t as_of) const {
  AsOfView view;
  view.latest = as_of == 0 || as_of >= clock_;
  view.clock = view.latest ? clock_ : as_of;
  if (!view.latest && as_of < history_->floor()) {
    return Status::InvalidArgument(
        "as_of " + std::to_string(as_of) + " is below the retention floor " +
        std::to_string(history_->floor()) +
        ": history there has been discarded");
  }
  // At any clock a contract id has at most one visible version: live
  // versions are open-ended ([valid_from, ∞)) and historical periods of the
  // same id are disjoint (each Replace closes the old period exactly where
  // the new one opens). At the latest clock no history version is visible.
  view.contracts.reserve(live_count_);
  for (const auto& c : contracts_) {
    if (c != nullptr && (view.latest || c->valid_from <= view.clock)) {
      view.contracts.push_back(c.get());
    }
  }
  if (!view.latest) {
    for (const ContractVersion& v : history_->versions()) {
      if (v.VisibleAt(view.clock)) view.contracts.push_back(v.contract.get());
    }
    std::sort(
        view.contracts.begin(), view.contracts.end(),
        [](const Contract* a, const Contract* b) { return a->id < b->id; });
  }
  return view;
}

Status DatabaseSnapshot::PlanQuery(const ltl::Formula* query,
                                   ltl::FormulaFactory* factory,
                                   const AsOfView& view,
                                   const QueryOptions& options, Plan* plan,
                                   QueryStats* stats) const {
  // 1. LTL → BA (charged to the query in both modes, §7.3), through the
  // shared translation cache when the database configured one: a repeated
  // query structure costs one canonical-key build and a hash probe instead
  // of the tableau pipeline. The miss path opens its own "translate" span.
  Timer phase;
  CTDB_ASSIGN_OR_RETURN(
      plan->query,
      translate::TranslateCached(query, factory, translation_cache_.get(),
                                 options_.translate, nullptr,
                                 &stats->translate_cache_hit));
  stats->translate_ms = phase.ElapsedMillis();
  const automata::Buchi& ba = plan->query->ba;
  stats->query_states = ba.StateCount();
  stats->query_transitions = ba.TransitionCount();
  plan->events = ba.CitedEvents();

  // 2. Candidates. A live view goes through the prefilter (§4): the
  // condition's hits among the live contracts — dead ones are scrubbed from
  // the index by Unregister/Replace, but exactness must not hinge on index
  // hygiene. The condition is extracted once per cache entry (on its first
  // prefiltered use) and its hits are evaluated against this snapshot's
  // index every time. The prefilter indexes only live contracts, so a
  // historical view is a full scan: exactness wins over speed for audit
  // queries.
  phase.Reset();
  stats->database_size = view.contracts.size();
  if (view.latest) {
    CTDB_OBS_SPAN(prefilter_span, "query.prefilter");
    if (options.use_prefilter && options_.build_prefilter) {
      const Bitset hits =
          plan->query->PruningCondition(options.pruning, &stats->extract_ms)
              ->Evaluate(prefilter_);
      for (const Contract* c : view.contracts) {
        if (hits.Test(c->id)) plan->candidates.push_back(c);
      }
    } else {
      plan->candidates = view.contracts;
    }
    CTDB_OBS_SPAN_ATTR(prefilter_span, "candidates", plan->candidates.size());
  } else {
    CTDB_OBS_SPAN(asof_span, "query.as_of");
    CTDB_OBS_COUNT("broker.queries.as_of", 1);
    plan->candidates = view.contracts;
    CTDB_OBS_SPAN_ATTR(asof_span, "visible", plan->candidates.size());
  }
  stats->prefilter_ms += phase.ElapsedMillis();
  stats->candidates = plan->candidates.size();
  return Status::OK();
}

void DatabaseSnapshot::CheckShard(const Plan& plan,
                                  const QueryOptions& options, size_t shard,
                                  size_t shards, Checks* out) const {
  // 3. Permission checks (§3.1 / §5.2).
  Timer timer;
  const bool use_projection =
      options.use_projections && options_.build_projections;
  for (const Contract* contract : plan.candidates) {
    if (contract->id % shards != shard) continue;
    const automata::Buchi& contract_ba =
        use_projection ? contract->projections.ForQueryEvents(plan.events)
                       : contract->automaton();
    // Seed states were computed on the registered automaton; the quotient
    // has different state ids, so only pass them through when applicable.
    const Bitset* seeds = use_projection ? nullptr : &contract->seed_states;
    if (!core::Permits(contract_ba, contract->events, plan.query->ba,
                       options.permission, seeds, &out->stats)) {
      continue;
    }
    out->matches.push_back(contract->id);
    if (options.collect_witnesses) {
      // Witnesses come from the *registered* automaton: the simplified
      // projection's labels are projected, so its runs are not directly
      // presentable contract behavior.
      auto witness = core::FindWitness(contract->automaton(), contract->events,
                                       plan.query->ba);
      out->witnesses.push_back(witness.has_value() ? std::move(*witness)
                                                   : LassoWord{});
    }
  }
  out->elapsed_ms = timer.ElapsedMillis();
}

Result<std::vector<QueryResult>> DatabaseSnapshot::Evaluate(
    const std::vector<const ltl::Formula*>& queries,
    ltl::FormulaFactory* factory, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // Resolving as_of selects the contract set every plan draws candidates
  // from: it runs once per call and is charged to the first query's
  // prefilter phase (serially, to its wall clock too).
  Timer wall;
  CTDB_ASSIGN_OR_RETURN(const AsOfView view, ResolveAsOf(options.as_of));
  std::vector<QueryResult> results(queries.size());
  if (!results.empty()) results[0].stats.prefilter_ms = wall.ElapsedMillis();

  // Merges one query's shards by contract id and flushes its stats. `timer`
  // times the query in serial mode; in parallel mode (null) the total is
  // the sum of the phases.
  const auto finish = [&](QueryResult* result, Checks* shards, size_t count,
                          const Timer* timer) {
    QueryStats& stats = result->stats;
    std::vector<std::pair<uint32_t, LassoWord>> merged;
    for (Checks* shard = shards; shard != shards + count; ++shard) {
      for (size_t i = 0; i < shard->matches.size(); ++i) {
        merged.emplace_back(shard->matches[i],
                            options.collect_witnesses
                                ? std::move(shard->witnesses[i])
                                : LassoWord{});
      }
      stats.permission.MergeFrom(shard->stats);
      stats.permission_ms += shard->elapsed_ms;
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [id, witness] : merged) {
      result->matches.push_back(id);
      if (options.collect_witnesses) {
        result->witnesses.push_back(std::move(witness));
      }
    }
    stats.matches = result->matches.size();
    stats.total_ms = timer != nullptr ? timer->ElapsedMillis()
                                      : stats.translate_ms +
                                            stats.prefilter_ms +
                                            stats.permission_ms;
    RecordQueryStats(stats);
  };

  const size_t threads =
      pool == nullptr ? 1 : ResolveThreads(options.threads, options_);
  if (threads <= 1) {
    // Serial: each query runs start to finish before the next one plans.
    for (size_t q = 0; q < queries.size(); ++q) {
      CTDB_OBS_SPAN(query_span, "query");
      Plan plan;
      CTDB_RETURN_NOT_OK(PlanQuery(queries[q], factory, view, options, &plan,
                                   &results[q].stats));
      Checks checks;
      {
        CTDB_OBS_SPAN(permission_span, "query.permission");
        CheckShard(plan, options, 0, 1, &checks);
      }
      finish(&results[q], &checks, 1, &wall);
      wall.Reset();
      CTDB_OBS_SPAN_ATTR(query_span, "candidates", results[q].stats.candidates);
      CTDB_OBS_SPAN_ATTR(query_span, "matches", results[q].stats.matches);
    }
    return results;
  }

  // Parallel: plan the queries across workers — each translates into its
  // own factory, reading the parsed formulas only — then check the whole
  // batch in one parallel phase sharded by contract id: shard s owns the
  // contracts with id ≡ s (mod shards) for *every* query, so each
  // contract's lazy quotient cache is touched by one worker while being
  // shared across the batch.
  std::vector<Plan> plans(queries.size());
  {
    CTDB_OBS_SPAN(prep_span, "query_batch.prep");
    const size_t planners = std::min(threads, queries.size());
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, planners, [&](size_t t) -> Status {
      ltl::FormulaFactory local;
      for (size_t q = t; q < queries.size(); q += planners) {
        CTDB_RETURN_NOT_OK(PlanQuery(queries[q], &local, view, options,
                                     &plans[q], &results[q].stats));
      }
      return Status::OK();
    }));
  }
  size_t widest = 1;
  for (const Plan& plan : plans) {
    widest = std::max(widest, plan.candidates.size());
  }
  const size_t shards = std::min(threads, widest);
  std::vector<Checks> checks(queries.size() * shards);
  {
    CTDB_OBS_SPAN(permission_span, "query_batch.permission");
    CTDB_OBS_SPAN_ATTR(permission_span, "shards", shards);
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, shards, [&](size_t s) -> Status {
      for (size_t q = 0; q < queries.size(); ++q) {
        CheckShard(plans[q], options, s, shards, &checks[q * shards + s]);
      }
      return Status::OK();
    }));
  }
  CTDB_OBS_SPAN(merge_span, "query_batch.merge");
  for (size_t q = 0; q < queries.size(); ++q) {
    finish(&results[q], &checks[q * shards], shards, nullptr);
  }
  return results;
}

size_t DatabaseSnapshot::ContractMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : contracts_) {
    if (c != nullptr) bytes += c->automaton().MemoryUsage();
  }
  // Superseded versions never alias live slots (Replace installs a fresh
  // Contract; Unregister empties the slot), so summing both is exact.
  for (const ContractVersion& v : history_->versions()) {
    bytes += v.contract->automaton().MemoryUsage();
  }
  return bytes;
}

size_t DatabaseSnapshot::ProjectionMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : contracts_) {
    if (c != nullptr) bytes += c->projections.stats().partition_memory_bytes;
  }
  for (const ContractVersion& v : history_->versions()) {
    bytes += v.contract->projections.stats().partition_memory_bytes;
  }
  return bytes;
}

}  // namespace ctdb::broker
