// The contract history store: superseded contract versions with their
// system periods, the half of the temporal table that live snapshots no
// longer show.
//
// Every mutation carries a system-period clock (== the WAL mutation
// sequence when unsharded; router-assigned when sharded). A contract
// version produced at clock `f` and superseded (replaced or unregistered)
// at clock `t` is stored here with period [valid_from, valid_to) = [f, t);
// the *current* version of a live contract lives only in the snapshot's
// contract table with an open-ended period [valid_from, ∞). `QueryAsOf(s)`
// unions the live versions with valid_from <= s and the historical versions
// with valid_from <= s < valid_to (DESIGN.md §14).
//
// The store is immutable and shared by pointer between snapshots: lifecycle
// operations build a new store by copy-append (lifecycle ops are rare and
// history small relative to automata, so O(versions) copies beat the
// locking a mutable structure would need on the query path). Superseded
// versions keep their full Contract — projections included — so as-of
// queries never re-translate or re-project.
//
// Retention (`RetentionOptions::keep_history_seqs`) trims the store from
// the front: PruneHistory(horizon) drops versions dead at or before the
// horizon and records the resulting `floor`, below which as-of queries are
// refused as InvalidArgument rather than silently answered incompletely.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "broker/contract.h"

namespace ctdb::broker {

/// One superseded contract version with its closed system period.
struct ContractVersion {
  std::shared_ptr<const Contract> contract;
  uint64_t valid_from = 0;  ///< clock of the Register/Replace that made it
  uint64_t valid_to = 0;    ///< exclusive: clock of the op that killed it

  /// Visibility test for as-of queries.
  bool VisibleAt(uint64_t seq) const {
    return valid_from <= seq && seq < valid_to;
  }
};

/// \brief Immutable store of superseded contract versions.
///
/// Shared between snapshots via shared_ptr; every mutation that retires a
/// version publishes a new store (copy-append), so readers never lock.
class HistoryStore {
 public:
  HistoryStore() = default;

  /// New store = this + `retired`, in order (one copy however many a
  /// mutation batch retires). Each `valid_to` must exceed its `valid_from`
  /// (an empty period would be invisible at every clock and is a caller
  /// bug).
  std::shared_ptr<const HistoryStore> Append(
      std::vector<ContractVersion> retired) const;

  /// New store without versions fully dead at or before `horizon`
  /// (valid_to <= horizon) and with floor() raised to `horizon`. Returns
  /// nullptr-equivalent copy of *this (still a fresh store) even when
  /// nothing is dropped, so callers can publish unconditionally.
  std::shared_ptr<const HistoryStore> Prune(uint64_t horizon) const;

  /// Clock below which history has been discarded; as-of queries at
  /// seq < floor() must be refused. 0 = complete history.
  uint64_t floor() const { return floor_; }

  const std::vector<ContractVersion>& versions() const { return versions_; }
  size_t size() const { return versions_.size(); }
  bool empty() const { return versions_.empty(); }

  /// Retired versions of one contract, oldest first (appends happen in
  /// clock order, so the stored order is already chronological).
  std::vector<ContractVersion> VersionsOf(uint32_t contract_id) const;

  /// Heap bytes held by the store's own structures (the contracts
  /// themselves are accounted by the snapshot's memory report; shared
  /// pointers here may alias live contracts' projections).
  size_t MemoryUsage() const;

 private:
  std::vector<ContractVersion> versions_;  ///< in valid_to (append) order
  uint64_t floor_ = 0;
};

}  // namespace ctdb::broker
