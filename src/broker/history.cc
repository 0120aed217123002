#include "broker/history.h"

#include <algorithm>

namespace ctdb::broker {

std::shared_ptr<const HistoryStore> HistoryStore::Append(
    std::vector<ContractVersion> retired) const {
  auto next = std::make_shared<HistoryStore>(*this);
  next->versions_.reserve(versions_.size() + retired.size());
  for (ContractVersion& version : retired) {
    next->versions_.push_back(std::move(version));
  }
  return next;
}

std::shared_ptr<const HistoryStore> HistoryStore::Prune(
    uint64_t horizon) const {
  auto next = std::make_shared<HistoryStore>();
  next->floor_ = std::max(floor_, horizon);
  next->versions_.reserve(versions_.size());
  for (const ContractVersion& v : versions_) {
    if (v.valid_to > horizon) next->versions_.push_back(v);
  }
  return next;
}

std::vector<ContractVersion> HistoryStore::VersionsOf(
    uint32_t contract_id) const {
  std::vector<ContractVersion> out;
  for (const ContractVersion& v : versions_) {
    if (v.contract && v.contract->id == contract_id) out.push_back(v);
  }
  return out;
}

size_t HistoryStore::MemoryUsage() const {
  return sizeof(*this) + versions_.capacity() * sizeof(ContractVersion);
}

}  // namespace ctdb::broker
