#include "translate/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/bisimulation.h"
#include "automata/serialize.h"
#include "broker/database.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "translate/ltl_to_ba.h"

namespace ctdb::translate {
namespace {

std::shared_ptr<const Translation> MakeValue() {
  return std::make_shared<const Translation>(automata::Buchi{});
}

const ltl::Formula* ParseNnf(const std::string& text, Vocabulary* vocab,
                             ltl::FormulaFactory* factory,
                             const TranslateOptions& options = {}) {
  auto parsed = ltl::Parse(text, factory, vocab);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return NormalizeForTableau(*parsed, factory, options);
}

TEST(TranslateCacheTest, KeyIsCanonicalAcrossFactories) {
  Vocabulary vocab;
  ltl::FormulaFactory f1;
  ltl::FormulaFactory f2;
  const std::string text = "G(purchase -> F refund) & (use U refund)";
  const std::string key1 =
      CanonicalTranslationKey(ParseNnf(text, &vocab, &f1), {});
  const std::string key2 =
      CanonicalTranslationKey(ParseNnf(text, &vocab, &f2), {});
  EXPECT_EQ(key1, key2);
}

TEST(TranslateCacheTest, KeySeparatesFormulasAndOptions) {
  Vocabulary vocab;
  ltl::FormulaFactory factory;
  const std::string a =
      CanonicalTranslationKey(ParseNnf("F purchase", &vocab, &factory), {});
  const std::string b =
      CanonicalTranslationKey(ParseNnf("G purchase", &vocab, &factory), {});
  EXPECT_NE(a, b);

  TranslateOptions no_reduce;
  no_reduce.reduce = false;
  const ltl::Formula* nnf = ParseNnf("F purchase", &vocab, &factory);
  EXPECT_NE(CanonicalTranslationKey(nnf, {}),
            CanonicalTranslationKey(nnf, no_reduce));
}

TEST(TranslateCacheTest, HitMissAndStats) {
  TranslationCache<> cache(4);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  auto value = MakeValue();
  cache.Insert("k1", value);
  EXPECT_EQ(cache.Lookup("k1"), value);
  const TranslationCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(TranslateCacheTest, EvictsLeastRecentlyUsed) {
  TranslationCache<> cache(2);  // small capacity ⇒ single shard, exact LRU
  cache.Insert("a", MakeValue());
  cache.Insert("b", MakeValue());
  EXPECT_NE(cache.Lookup("a"), nullptr);  // refresh "a": "b" is now LRU
  cache.Insert("c", MakeValue());
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(TranslateCacheTest, CapacityZeroDisables) {
  TranslationCache<> cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("k", MakeValue());
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  const TranslationCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.capacity, 0u);
}

TEST(TranslateCacheTest, CachedTranslationEqualsFresh) {
  Vocabulary vocab;
  const std::string text =
      "G(purchase -> !use) & (purchase B use) & G(use -> F refund)";
  TranslationCache<> cache(16);

  // Fill + hit through one factory.
  bool hit = false;
  ltl::FormulaFactory f1;
  auto first = TranslateCached(*ltl::Parse(text, &f1, &vocab), &f1, &cache,
                               {}, nullptr, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);

  // Same text through a *different* factory must hit and return the shared
  // automaton.
  ltl::FormulaFactory f2;
  auto second = TranslateCached(*ltl::Parse(text, &f2, &vocab), &f2, &cache,
                                {}, nullptr, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());

  // The cached automaton is byte-identical to an uncached translation (the
  // pipeline is deterministic)...
  ltl::FormulaFactory f3;
  auto fresh = translate::LtlToBuchi(*ltl::Parse(text, &f3, &vocab), &f3);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(automata::Serialize((*second)->ba, vocab),
            automata::Serialize(*fresh, vocab));
  // ...and bisimulation-equivalent to it: the coarsest bisimulation of the
  // disjoint union must put the two initial states in one block.
  automata::Buchi combined = (*second)->ba;
  const automata::StateId offset = combined.StateCount();
  for (automata::StateId s = 0; s < fresh->StateCount(); ++s) {
    const automata::StateId n = combined.AddState();
    if (fresh->IsFinal(s)) combined.SetFinal(n);
  }
  for (automata::StateId s = 0; s < fresh->StateCount(); ++s) {
    for (const automata::Transition& t : fresh->Out(s)) {
      combined.AddTransition(offset + s, t.label, offset + t.to);
    }
  }
  const automata::Partition partition =
      automata::CoarsestBisimulation(combined);
  EXPECT_EQ(partition.block_of[(*second)->ba.initial()],
            partition.block_of[offset + fresh->initial()]);
}

TEST(TranslateCacheTest, DatabaseQueriesShareTheCache) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c1", "G(a -> F b)").ok());
  ASSERT_TRUE(db.Register("c2", "G(b -> !a)").ok());

  auto first = db.Query("F(a & F b)");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->stats.translate_cache_hit);
  auto second = db.Query("F(a & F b)");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->stats.translate_cache_hit);
  EXPECT_EQ(second->matches, first->matches);

  const TranslationCacheStats stats = db.TranslationCacheStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(TranslateCacheTest, DatabaseCacheCanBeDisabled) {
  broker::DatabaseOptions options;
  options.translation_cache_capacity = 0;
  broker::ContractDatabase db(options);
  ASSERT_TRUE(db.Register("c1", "G(a -> F b)").ok());
  for (int i = 0; i < 3; ++i) {
    auto r = db.Query("F a");
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->stats.translate_cache_hit);
  }
  const TranslationCacheStats stats = db.TranslationCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

/// Concurrent readers of one database share the translation cache; run under
/// TSan in CI (the sanitize job's filter includes "TranslateCache"). Every
/// thread issues the same query mix, so later threads hit entries earlier
/// threads inserted while insertions are still racing in.
TEST(TranslateCacheConcurrencyTest, ConcurrentReadersShareCache) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c1", "G(a -> F b) & (a B c)").ok());
  ASSERT_TRUE(db.Register("c2", "G(c -> !a) & G(b -> F c)").ok());
  const std::vector<std::string> queries = {"F(a & F b)", "G(a -> F c)",
                                            "F b & F c", "a U b"};

  auto baseline = db.Query(queries[0]);
  ASSERT_TRUE(baseline.ok());

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (const std::string& q : queries) {
          auto r = db.Query(q);
          if (!r.ok()) ++failures[t];
          if (q == queries[0] && r.ok() && r->matches != baseline->matches) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  const TranslationCacheStats stats = db.TranslationCacheStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_LE(stats.entries, stats.capacity);
}

// ---------------------------------------------------------------------------
// The cached pruning condition (broker/compiled_query.h): one extraction per
// cache entry, never reused across PruningOptions, and hits evaluated
// against each query's own snapshot.

/// Counts Algorithm 1 runs (the prefilter.conditions_extracted counter,
/// which is process-global, so every reading is a delta) with observability
/// forced on for the scope.
class ExtractionCounter {
 public:
  ExtractionCounter() : was_enabled_(obs::Enabled()) {
    obs::SetEnabled(true);
    start_ = Now();
  }
  ~ExtractionCounter() { obs::SetEnabled(was_enabled_); }

  uint64_t Delta() const { return Now() - start_; }

 private:
  static uint64_t Now() {
    return obs::MetricsRegistry::Default()->Snapshot().CounterValue(
        "prefilter.conditions_extracted");
  }

  bool was_enabled_;
  uint64_t start_ = 0;
};

/// A database where the default pruning condition of "F(a & F b)" prunes
/// (the contracts that never do `a` or never do `b` are not candidates).
void RegisterMix(broker::ContractDatabase* db) {
  ASSERT_TRUE(db->Register("c1", "G(a -> F b)").ok());
  ASSERT_TRUE(db->Register("c2", "G(!a) & F c").ok());
  ASSERT_TRUE(db->Register("c3", "G(!b) & G(a -> X c)").ok());
  ASSERT_TRUE(db->Register("c4", "F(a & X b) & G(c -> !b)").ok());
  ASSERT_TRUE(db->Register("c5", "G(a -> !b) & G(b -> !c)").ok());
}

TEST(TranslateCacheTest, RepeatedQueryExtractsItsConditionOnce) {
#if CTDB_OBS
  broker::ContractDatabase db;
  RegisterMix(&db);
  const ExtractionCounter extractions;
  std::vector<uint32_t> first_matches;
  for (int i = 0; i < 5; ++i) {
    auto r = db.Query("F(a & F b)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.translate_cache_hit, i > 0) << i;
    EXPECT_LE(r->stats.extract_ms, r->stats.prefilter_ms) << i;
    if (i == 0) {
      first_matches = r->matches;
    } else {
      EXPECT_EQ(r->stats.extract_ms, 0.0) << i;
      EXPECT_EQ(r->matches, first_matches) << i;
    }
  }
  EXPECT_EQ(extractions.Delta(), 1u);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

TEST(TranslateCacheTest, PruningOptionsNeverShareACondition) {
  std::vector<index::PruningOptions> variants(4);
  variants[1].path_mode = index::PathConditionMode::kMemoizedStatePaths;
  variants[2].cycle_mode = index::CycleConditionMode::kBoundedCycles;
  variants[3].max_condition_size = 1;  // collapses to TRUE: prunes nothing

  broker::DatabaseOptions uncached_options;
  uncached_options.translation_cache_capacity = 0;
  broker::ContractDatabase uncached(uncached_options);
  RegisterMix(&uncached);
  const std::string query = "F(a & F b)";
  std::vector<broker::QueryResult> expected;
  for (const index::PruningOptions& pruning : variants) {
    broker::QueryOptions options;
    options.pruning = pruning;
    auto r = uncached.Query(query, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }
  // The variants select different candidate sets, so reusing one variant's
  // condition for another would show.
  ASSERT_LT(expected[0].stats.candidates, expected[3].stats.candidates);
  EXPECT_EQ(expected[3].stats.candidates, uncached.size());

  // Whichever variant fills the entry first, every variant — asked twice —
  // answers like the uncached database.
  for (size_t first = 0; first < variants.size(); ++first) {
    broker::ContractDatabase db;
    RegisterMix(&db);
    for (size_t k = 0; k < 2 * variants.size(); ++k) {
      const size_t v = (first + k) % variants.size();
      broker::QueryOptions options;
      options.pruning = variants[v];
      auto r = db.Query(query, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->stats.candidates, expected[v].stats.candidates)
          << "first " << first << " variant " << v;
      EXPECT_EQ(r->matches, expected[v].matches)
          << "first " << first << " variant " << v;
    }
  }
}

TEST(TranslateCacheTest, CachedConditionFindsNewContractsAndDropsOldOnes) {
  broker::ContractDatabase db;
  RegisterMix(&db);
  const std::string query = "F(a & F b)";
  auto before = db.Query(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  auto id = db.Register("late", "a & X(b & G c)");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto with = db.Query(query);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_TRUE(with->stats.translate_cache_hit);
  EXPECT_EQ(with->stats.extract_ms, 0.0);
  std::vector<uint32_t> expected = before->matches;
  expected.push_back(*id);
  EXPECT_EQ(with->matches, expected);

  ASSERT_TRUE(db.Unregister(*id).ok());
  auto without = db.Query(query);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_TRUE(without->stats.translate_cache_hit);
  EXPECT_EQ(without->matches, before->matches);
  EXPECT_EQ(without->stats.candidates, before->stats.candidates);
}

TEST(TranslateCacheTest, QueriesThatSkipThePrefilterExtractNothing) {
#if CTDB_OBS
  broker::ContractDatabase db;
  RegisterMix(&db);
  ASSERT_GT(db.Snapshot()->sequence(), 1u);
  const std::string query = "F(a & F b)";
  {
    const ExtractionCounter extractions;
    broker::QueryOptions as_of;
    as_of.as_of = 1;  // historical: a full scan of the versions visible then
    ASSERT_TRUE(db.Query(query, as_of).ok());
    broker::QueryOptions unindexed;
    unindexed.use_prefilter = false;
    auto r = db.Query(query, unindexed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->stats.translate_cache_hit);
    EXPECT_EQ(r->stats.extract_ms, 0.0);
    EXPECT_EQ(extractions.Delta(), 0u);
  }
  {
    // The entry exists, but its condition is filled on its first
    // prefiltered use only.
    const ExtractionCounter extractions;
    ASSERT_TRUE(db.Query(query).ok());
    EXPECT_EQ(extractions.Delta(), 1u);
  }

  broker::DatabaseOptions no_index;
  no_index.build_prefilter = false;
  broker::ContractDatabase unindexed_db(no_index);
  RegisterMix(&unindexed_db);
  const ExtractionCounter extractions;
  ASSERT_TRUE(unindexed_db.Query(query).ok());
  EXPECT_EQ(extractions.Delta(), 0u);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

/// Four threads race to fill the same cold entries — translation and
/// condition — and must all answer like a serial, uncached database. Runs
/// under TSan in CI (the sanitize job's filter includes "TranslateCache").
TEST(TranslateCacheConcurrencyTest, RacingQueriesMatchSerialAnswers) {
  const std::vector<std::string> events = {"a", "b", "c", "d"};
  std::vector<std::string> queries;
  for (const std::string& x : events) {
    for (const std::string& y : events) {
      if (x == y) continue;
      queries.push_back("F(" + x + " & F " + y + ")");
      queries.push_back("G(" + x + " -> F " + y + ")");
      queries.push_back(x + " U " + y);
    }
  }
  queries.resize(32);

  broker::DatabaseOptions uncached_options;
  uncached_options.translation_cache_capacity = 0;
  broker::ContractDatabase uncached(uncached_options);
  broker::ContractDatabase db;
  for (broker::ContractDatabase* target : {&uncached, &db}) {
    RegisterMix(target);
    ASSERT_TRUE(target->Register("c6", "G(d -> F a) & F d").ok());
  }
  std::vector<broker::QueryResult> serial;
  for (const std::string& q : queries) {
    auto r = uncached.Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    serial.push_back(std::move(*r));
  }

  constexpr int kThreads = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto r = db.Query(queries[i]);
        if (!r.ok() || r->matches != serial[i].matches ||
            r->stats.candidates != serial[i].stats.candidates) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(db.TranslationCacheStats().entries, queries.size());
}

}  // namespace
}  // namespace ctdb::translate
