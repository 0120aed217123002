// Micro-benchmarks for the LTL→BA translation pipeline: cost by number of
// conjoined Dwyer patterns (the paper's contract complexity axis) and the
// effect of the rewriting / reduction stages.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "translate/cache.h"
#include "translate/ltl_to_ba.h"
#include "workload/generator.h"

namespace {

using namespace ctdb;

/// A pool of pre-generated formulas with `patterns` clauses.
const std::vector<const ltl::Formula*>& FormulaPool(size_t patterns,
                                                    ltl::FormulaFactory** fac) {
  struct Pool {
    Vocabulary vocab;
    ltl::FormulaFactory factory;
    std::vector<const ltl::Formula*> formulas;
  };
  static std::map<size_t, Pool*>* pools = new std::map<size_t, Pool*>();
  auto it = pools->find(patterns);
  if (it == pools->end()) {
    auto* pool = new Pool();
    workload::GeneratorOptions options;
    options.properties = patterns;
    workload::SpecGenerator generator(options, 0x77A + patterns, &pool->vocab,
                                      &pool->factory);
    for (int i = 0; i < 16; ++i) {
      auto spec = generator.Next();
      pool->formulas.push_back(spec->formula);
    }
    it = pools->emplace(patterns, pool).first;
  }
  *fac = &it->second->factory;
  return it->second->formulas;
}

void BM_LtlToBuchi(benchmark::State& state) {
  const size_t patterns = static_cast<size_t>(state.range(0));
  ltl::FormulaFactory* factory = nullptr;
  const auto& formulas = FormulaPool(patterns, &factory);
  size_t i = 0;
  size_t states_sum = 0;
  size_t runs = 0;
  for (auto _ : state) {
    auto ba = translate::LtlToBuchi(formulas[i % formulas.size()], factory);
    benchmark::DoNotOptimize(ba);
    states_sum += ba->StateCount();
    ++runs;
    ++i;
  }
  state.counters["avg_states"] =
      static_cast<double>(states_sum) / static_cast<double>(runs);
}
BENCHMARK(BM_LtlToBuchi)->Arg(1)->Arg(2)->Arg(3)->Arg(5)->Arg(6)->Arg(7);

// The same formula pool through the translation cache (translate/cache.h):
// one untimed pass over the pool warms the cache, so every timed iteration
// costs NNF normalization + canonical-key build + one hash probe instead of
// the tableau pipeline — even when the benchmark runs fewer iterations than
// the pool holds. The ratio to BM_LtlToBuchi at the same arg is the
// per-translation cache win; `hit_rate` counts the timed probes only.
void BM_LtlToBuchi_Cached(benchmark::State& state) {
  const size_t patterns = static_cast<size_t>(state.range(0));
  ltl::FormulaFactory* factory = nullptr;
  const auto& formulas = FormulaPool(patterns, &factory);
  translate::TranslationCache<> cache(256);
  for (const ltl::Formula* formula : formulas) {
    benchmark::DoNotOptimize(
        translate::TranslateCached(formula, factory, &cache));
  }
  const translate::TranslationCacheStats warm = cache.Stats();
  size_t i = 0;
  for (auto _ : state) {
    auto ba = translate::TranslateCached(formulas[i % formulas.size()],
                                         factory, &cache);
    benchmark::DoNotOptimize(ba);
    ++i;
  }
  const translate::TranslationCacheStats stats = cache.Stats();
  const uint64_t hits = stats.hits - warm.hits;
  const double probes = static_cast<double>(hits + stats.misses - warm.misses);
  state.counters["hit_rate"] =
      probes > 0 ? static_cast<double>(hits) / probes : 0.0;
}
BENCHMARK(BM_LtlToBuchi_Cached)->Arg(1)->Arg(3)->Arg(5);

void BM_LtlToBuchi_NoReductions(benchmark::State& state) {
  ltl::FormulaFactory* factory = nullptr;
  const auto& formulas = FormulaPool(5, &factory);
  translate::TranslateOptions options;
  options.simplify_formula = false;
  options.prune = false;
  options.reduce = false;
  size_t i = 0;
  for (auto _ : state) {
    auto ba =
        translate::LtlToBuchi(formulas[i % formulas.size()], factory, options);
    benchmark::DoNotOptimize(ba);
    ++i;
  }
}
BENCHMARK(BM_LtlToBuchi_NoReductions);

}  // namespace
