// Translation cache: canonical-NNF formula → a query's compiled artefacts.
//
// Translation (tableau → degeneralize → prune → quotient) dominates query
// latency for small databases and is pure: the output depends only on the
// normalized formula and the pipeline options. Query workloads repeat
// structure heavily — the same contract templates are queried with the same
// shapes — so a small LRU keyed by the formula's canonical serialization
// converts repeat translations into a hash lookup plus a shared_ptr copy.
//
// Entries: the cache is generic over its entry type. The base entry,
// Translation, holds the Büchi automaton; a layer above translate/ derives
// from it to keep what it compiles from that automaton alone next to it,
// under the same key and the same LRU slot. The broker's entry
// (broker::CompiledQuery, broker/compiled_query.h) adds the query's
// extracted pruning condition (§4.1), so a repeated query skips both the
// tableau pipeline and Algorithm 1. Whatever an entry holds must depend
// only on the formula and options — never on a database's contents — which
// is what makes an entry valid across every snapshot of every database
// that shares the cache.
//
// Key canonicity: formulas are hash-consed within a factory, so serializing
// the NNF DAG with dense first-visit ids yields identical bytes for
// structurally equal formulas from *different* factories (queries parse into
// call-local factories; see broker/snapshot.h). The DAG walk — not a tree
// walk — keeps the key linear in the DAG size even for formulas whose tree
// expansion is exponential (nested W/R rewrites).
//
// Concurrency: entries are immutable behind shared_ptr<const Entry> (a
// derived entry's lazily filled parts synchronize themselves); the cache
// itself is sharded, each shard a mutex + exact-LRU list. Readers on the
// snapshot path share one cache owned by the ContractDatabase, so a formula
// compiled by one query thread is a hit for every other.

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/buchi.h"
#include "ltl/formula.h"
#include "obs/metrics.h"
#include "translate/ltl_to_ba.h"
#include "util/result.h"

namespace ctdb::translate {

/// \brief Canonical cache key: byte serialization of the NNF DAG (dense
/// first-visit ids, children before parents) followed by every option that
/// affects the translation result. Equal bytes ⇔ same normalized formula and
/// options, across factories. `nnf` must be the output of
/// NormalizeForTableau under the same `options`.
std::string CanonicalTranslationKey(const ltl::Formula* nnf,
                                    const TranslateOptions& options);

/// Cumulative cache counters (process-lifetime, monotone except `entries`).
struct TranslationCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;   ///< current resident entries
  size_t capacity = 0;  ///< configured maximum entries (0 = disabled)
};

/// \brief The base cache entry: one translated automaton. Entry types
/// derived from it must be constructible from the automaton alone.
struct Translation {
  explicit Translation(automata::Buchi automaton) : ba(std::move(automaton)) {}

  const automata::Buchi ba;
};

/// \brief Sharded exact-LRU map from canonical translation keys to immutable
/// entries (Translation or a type derived from it). Thread-safe; capacity 0
/// disables caching (Lookup always misses, Insert keeps nothing).
template <typename Entry = Translation>
class TranslationCache {
 public:
  /// `capacity` is the total entry budget across shards. Small capacities
  /// (< 64) use a single shard so LRU order is exact and testable; larger
  /// caches spread over 8 shards to keep the mutex off the hot path.
  explicit TranslationCache(size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) return;
    const size_t shard_count = capacity_ < 64 ? 1 : 8;
    shards_.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      auto shard = std::make_unique<Shard>();
      // Distribute the budget; earlier shards absorb the remainder so the
      // per-shard budgets sum exactly to `capacity`.
      shard->max_entries =
          capacity_ / shard_count + (i < capacity_ % shard_count ? 1 : 0);
      shards_.push_back(std::move(shard));
    }
  }

  TranslationCache(const TranslationCache&) = delete;
  TranslationCache& operator=(const TranslationCache&) = delete;

  /// Returns the cached entry and refreshes its LRU position, or nullptr.
  std::shared_ptr<const Entry> Lookup(std::string_view key) {
    if (!enabled()) return nullptr;
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_key.find(key);
    if (it == shard.by_key.end()) {
      ++shard.misses;
      CTDB_OBS_COUNT("translate_cache.misses", 1);
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    CTDB_OBS_COUNT("translate_cache.hits", 1);
    return it->second->value;
  }

  /// Inserts `key`, evicting the shard's least recently used entry when over
  /// budget, and returns the resident entry: `value`, or — when another
  /// translator of the same formula inserted first — the earlier entry, so
  /// racing queries converge on one entry and share what it memoizes.
  std::shared_ptr<const Entry> Insert(std::string_view key,
                                      std::shared_ptr<const Entry> value) {
    if (!enabled()) return value;
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_key.find(key);
    if (it != shard.by_key.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->value;
    }
    shard.lru.push_front(Item{std::string(key), std::move(value)});
    shard.by_key.emplace(std::string_view(shard.lru.front().key),
                         shard.lru.begin());
    std::shared_ptr<const Entry> resident = shard.lru.front().value;
    while (shard.lru.size() > shard.max_entries) {
      shard.by_key.erase(std::string_view(shard.lru.back().key));
      shard.lru.pop_back();
      ++shard.evictions;
      CTDB_OBS_COUNT("translate_cache.evictions", 1);
    }
    return resident;
  }

  TranslationCacheStats Stats() const {
    TranslationCacheStats stats;
    stats.capacity = capacity_;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      stats.hits += shard->hits;
      stats.misses += shard->misses;
      stats.evictions += shard->evictions;
      stats.entries += shard->lru.size();
    }
    return stats;
  }

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Item {
    std::string key;
    std::shared_ptr<const Entry> value;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. Nodes are stable, so the map's
    /// string_view keys alias Item::key safely across splices.
    std::list<Item> lru;
    std::unordered_map<std::string_view, typename std::list<Item>::iterator>
        by_key;
    size_t max_entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardOf(std::string_view key) {
    return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// \brief Cached front-end to LtlToBuchi: normalizes once, keys the cache on
/// the normal form, and runs the tableau-onward pipeline only on a miss,
/// wrapping its automaton in a fresh Entry. `cache` may be nullptr or
/// disabled (a fresh, uncached entry every call). On a hit, `info` receives
/// only the final automaton's shape (the construction stages did not run)
/// and `*cache_hit` is set when non-null.
template <typename Entry>
Result<std::shared_ptr<const Entry>> TranslateCached(
    const ltl::Formula* formula, ltl::FormulaFactory* factory,
    TranslationCache<Entry>* cache, const TranslateOptions& options = {},
    TranslateInfo* info = nullptr, bool* cache_hit = nullptr) {
  if (cache_hit != nullptr) *cache_hit = false;
  const ltl::Formula* nnf = NormalizeForTableau(formula, factory, options);
  const bool cached = cache != nullptr && cache->enabled();
  std::string key;
  if (cached) {
    key = CanonicalTranslationKey(nnf, options);
    if (std::shared_ptr<const Entry> hit = cache->Lookup(key)) {
      if (cache_hit != nullptr) *cache_hit = true;
      if (info != nullptr) {
        info->final_states = hit->ba.StateCount();
        info->final_transitions = hit->ba.TransitionCount();
      }
      return hit;
    }
  }
  CTDB_ASSIGN_OR_RETURN(automata::Buchi ba,
                        NnfToBuchi(nnf, factory, options, info));
  auto entry = std::make_shared<const Entry>(std::move(ba));
  return cached ? cache->Insert(key, std::move(entry)) : entry;
}

}  // namespace ctdb::translate
