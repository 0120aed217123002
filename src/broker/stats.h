// Statistics surfaced by the broker, matching the measurements of §7.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/permission.h"

namespace ctdb::broker {

/// Per-query evaluation statistics.
struct QueryStats {
  double translate_ms = 0;   ///< LTL → BA conversion (counted in both modes)
  double prefilter_ms = 0;   ///< condition extraction + index evaluation
  /// The extraction part of prefilter_ms: Algorithm 1 run by this query; 0
  /// when the condition came from the translation cache entry.
  double extract_ms = 0;
  double permission_ms = 0;  ///< permission checks over candidates
  double total_ms = 0;

  size_t database_size = 0;  ///< contracts in the database
  size_t candidates = 0;     ///< contracts surviving the prefilter
  size_t matches = 0;        ///< contracts permitting the query

  size_t query_states = 0;       ///< states of the query BA
  size_t query_transitions = 0;  ///< transitions of the query BA

  /// True when the query BA came from the shared translation cache
  /// (translate/cache.h) instead of a fresh tableau construction.
  bool translate_cache_hit = false;

  core::PermissionStats permission;

  std::string ToString() const;
};

/// Per-registration statistics.
struct RegistrationStats {
  double translate_ms = 0;
  double prefilter_insert_ms = 0;
  double projection_precompute_ms = 0;
  size_t ba_states = 0;
  size_t ba_transitions = 0;
  size_t projection_subsets = 0;
  size_t projection_distinct = 0;

  std::string ToString() const;
};

/// Flushes one query's phase timings and outcome counts into the process
/// metrics registry (obs/metrics.h). The broker calls this after every
/// Query/QueryBatch evaluation, which makes QueryStats the per-call view of
/// the same measurements the registry aggregates across calls
/// (broker.query.* histograms, broker.candidates/matches counters).
/// No-op when observability is compiled out or disabled at runtime.
void RecordQueryStats(const QueryStats& stats);

/// Registration-side counterpart (broker.register.* histograms).
void RecordRegistrationStats(const RegistrationStats& stats);

}  // namespace ctdb::broker
