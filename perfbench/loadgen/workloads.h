// The three benchmark workloads: their seeded inputs, fixed operation
// sequences and reference answers, all made before any server starts.
//
//   read_paper      unsharded; the paper's "simple" contracts (5 Dwyer
//                   patterns over p1..p20); open-loop single queries of 1, 2
//                   and 3 patterns from a pool smaller than the 256-entry
//                   translation cache, then a closed-loop capacity phase.
//   write_churn     2 shards, fsync=group; closed-loop writers mostly
//                   registering 1-2-pattern contracts, also replacing and
//                   unregistering their own; a minority of all-distinct
//                   queries.
//   stream_monitor  2 shards; event-pattern contracts; each connection
//                   opens, appends TraceGenerator batches to and closes
//                   short finite streams, half in the contracts' vocabulary
//                   and half in a foreign one.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/database.h"
#include "load.h"

namespace perfbench {

/// Connections (and load-generator threads) per workload.
inline constexpr size_t kClients = 4;

struct Workload {
  std::string name;
  size_t shards = 0;  ///< 0 = unsharded server
  bool open_loop = false;
  /// The operation kinds whose latency and rate are the headline metrics.
  std::vector<OpKind> headline;

  Inputs inputs;
  std::vector<ctdb::broker::ContractDatabase::BatchEntry> preload;
  std::vector<std::string> warmup_queries;
  /// Queries and contract registrations the traced pass sends after the
  /// measured phase of a workload that sends none itself, so the query-path
  /// layers (translate, index, core) and the registration-path layers
  /// (translate, index insert, projection precompute) are measured on its
  /// database too.
  std::vector<std::string> layer_probes;
  std::vector<std::string> register_probes;
  std::vector<ClientPlan> plans;           ///< measured phase
  std::vector<ClientPlan> capacity_plans;  ///< closed-loop capacity phase
  /// Stream clients whose events use a foreign vocabulary.
  std::vector<bool> foreign;

  /// Recovery probe: the first query a restarted server must answer, and
  /// its reference answer when `probe_checked`.
  std::string probe_query;
  std::vector<uint32_t> probe_expected;
  bool probe_checked = false;

  /// In-process reference database over `preload` (read_paper and
  /// stream_monitor), ids 0..n-1 in preload order.
  std::unique_ptr<ctdb::broker::ContractDatabase> reference;
  /// stream_monitor: one reference database per server shard, holding the
  /// preload entries that shard holds (entry i on shard i % shards).
  std::vector<std::unique_ptr<ctdb::broker::ContractDatabase>> shard_references;

  /// Input properties printed before the run.
  std::vector<std::pair<std::string, std::string>> properties;
};

/// Builds workload `name` ("read_paper", "write_churn", "stream_monitor")
/// from `seed`, sized so its measured phase takes about `seconds` here.
ctdb::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                    double seconds);

/// Hands preloaded contracts (server ids in preload order) to the writer
/// clients' owned lists: contract i goes to client i % kClients. Skips the
/// entries flagged unowned (the priming contract).
void AssignOwnership(const std::vector<uint32_t>& preload_ids,
                     size_t first_owned, std::vector<ClientPlan>* plans);

/// Live contract id -> (name, LTL text) expected after the acknowledged
/// writes, starting from the preload.
using ContractState = std::map<uint32_t, std::pair<std::string, std::string>>;
ContractState ExpectedState(const Workload& w,
                            const std::vector<uint32_t>& preload_ids,
                            const std::vector<ClientResult>& results);

/// Recovers `dir` in process and counts contracts whose recovered state
/// differs from `expected` (missing, extra, or different name / text), next
/// to the recovery's own stats.
struct RecoveryReport {
  size_t mismatches = 0;
  double replay_ms = 0;  ///< slowest shard's
  double checkpoint_load_ms = 0;
  double wall_ms = 0;
  double replay_ms_sum = 0;  ///< sharded: summed per-shard replay time
  uint64_t records_replayed = 0;
  uint64_t bytes_scanned = 0;
};
ctdb::Result<RecoveryReport> RecoverInProcess(const std::string& dir,
                                              size_t shards,
                                              const ContractState* expected);

/// Replays each stream client's operations through in-process
/// monitor::StreamSessions over the shard references, merging their
/// verdicts by global id (local * shards + shard), and counts appends and
/// closes whose verdicts differ from what the server answered.
/// `server_ids[i]` is the server's id for preload entry i.
size_t CheckStreams(const Workload& w, const std::vector<uint32_t>& server_ids,
                    const std::vector<ClientResult>& results);

}  // namespace perfbench
