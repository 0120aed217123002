// A query's compiled artefacts: the broker's translation-cache entry.
//
// Everything the read path compiles from a query formula before it touches
// a database — the Büchi automaton (translate/) and the pruning condition
// Algorithm 1 extracts from it (index/pruning.h) — lives in one entry of the
// database's translation cache (translate/cache.h), under the formula's
// canonical key and the cache's one capacity. A repeated query therefore
// skips both the tableau pipeline and condition extraction.
//
// Why a cached condition is never stale: the condition depends only on the
// automaton and index::PruningOptions, never on the database. What depends
// on the database — the condition's hits — is recomputed by every query
// against its own snapshot's prefilter, so contracts registered after the
// condition was cached are found and unregistered ones are dropped.

#pragma once

#include <memory>
#include <mutex>

#include "index/condition.h"
#include "index/pruning.h"
#include "translate/cache.h"

namespace ctdb::broker {

/// \brief One translation-cache entry of the query path: the translated
/// automaton plus its lazily extracted pruning condition.
class CompiledQuery : public translate::Translation {
 public:
  using Translation::Translation;

  /// The query's pruning condition under `options`. The first call extracts
  /// it (Algorithm 1) and stores it, tagged with `options`; later calls with
  /// equal options return the stored condition. A call with other options
  /// extracts afresh and stores nothing, so a stored condition is only ever
  /// reused under the options it was extracted with. Concurrent first calls
  /// wait for one extraction. `*extract_ms` receives the time this call
  /// spent extracting (0 when it reused the stored condition).
  std::shared_ptr<const index::Condition> PruningCondition(
      const index::PruningOptions& options, double* extract_ms) const;

 private:
  mutable std::mutex mu_;
  /// Null until the first prefiltered use (queries that skip the prefilter
  /// never extract). At most one condition per entry, of at most its
  /// options' max_condition_size nodes.
  mutable std::shared_ptr<const index::Condition> condition_;
  mutable index::PruningOptions condition_options_;
};

/// The database's query-translation cache.
using QueryCache = translate::TranslationCache<CompiledQuery>;

}  // namespace ctdb::broker
