#include "broker/compiled_query.h"

#include "util/timer.h"

namespace ctdb::broker {

std::shared_ptr<const index::Condition> CompiledQuery::PruningCondition(
    const index::PruningOptions& options, double* extract_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (condition_ != nullptr && condition_options_ == options) {
    *extract_ms = 0;
    return condition_;
  }
  // The first use extracts under the lock, so racing first uses share one
  // extraction. Other options keep the stored condition and extract
  // outside the lock.
  const bool store = condition_ == nullptr;
  if (!store) lock.unlock();
  Timer timer;
  auto condition = std::make_shared<const index::Condition>(
      index::ExtractPruningCondition(ba, options));
  *extract_ms = timer.ElapsedMillis();
  if (store) {
    condition_ = condition;
    condition_options_ = options;
  }
  return condition;
}

}  // namespace ctdb::broker
