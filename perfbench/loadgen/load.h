// The load generator: one thread and one TCP connection per client plan,
// each executing a fixed, pre-generated operation sequence against the
// server, in open loop (each operation has a due time) or closed loop
// (next operation when the previous one is answered).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "monitor/types.h"

namespace perfbench {

enum class OpKind : uint8_t {
  kQuery,
  kRegister,
  kReplace,
  kUnregister,
  kAppend,
  kOpen,   ///< StreamOpen of session `arg`
  kClose,  ///< StreamClose of session `arg`
};
const char* OpKindName(OpKind kind);

/// How an operation ended. Everything but kOk counts as failed.
enum class Outcome : uint8_t {
  kOk,
  kError,      ///< the server answered with an error code
  kShed,       ///< the server shed the request (Unavailable)
  kTransport,  ///< connection or framing failure
  kWrong,      ///< answered, but the answer disagrees with the reference
};

/// One operation of a client's fixed sequence.
struct Op {
  OpKind kind = OpKind::kQuery;
  /// kQuery: index into Inputs::queries; kRegister / kReplace: index into
  /// Inputs::texts; kAppend: index into ClientPlan::batches; kOpen /
  /// kClose: stream session number.
  uint32_t arg = 0;
  /// kReplace / kUnregister: which of the client's owned contracts (taken
  /// modulo the owned count at that point).
  uint32_t target = 0;
  /// Open loop: due time in seconds after the phase start.
  double due_s = 0;
};

/// Per-workload inputs shared by every client (immutable while running).
struct Inputs {
  std::vector<std::string> queries;
  std::vector<std::string> texts;  ///< contract texts for Register / Replace
  /// Reference match set per query; empty outer vector = unchecked.
  std::vector<std::vector<uint32_t>> expected;
};

/// One acknowledged write, in the order the client saw the ack.
struct WriteAck {
  OpKind kind = OpKind::kRegister;
  uint32_t id = 0;
  uint32_t text = 0;  ///< Inputs::texts index (Register / Replace)
  std::string name;   ///< Register only
};

struct ClientPlan {
  std::vector<Op> ops;
  /// Contracts this client may Replace / Unregister (updated as it runs).
  std::vector<uint32_t> owned;
  /// Stream clients: session k of the client's stream is named
  /// `stream` + "-" + k; appends go to the session opened last.
  std::string stream;
  std::vector<ctdb::monitor::EventBatch> batches;
  std::string name_prefix;  ///< Register names: prefix + sequence number
};

struct OpRecord {
  OpKind kind = OpKind::kQuery;
  Outcome outcome = Outcome::kOk;
  double due_us = 0;   ///< when it should have been sent (open loop)
  double sent_us = 0;  ///< when it was sent
  double done_us = 0;  ///< when the answer was in
  uint64_t request = 0;
  uint64_t server_us = 0;  ///< Answer::total_us for queries
  uint64_t stepped = 0;    ///< StreamAppend counters
  uint64_t pruned = 0;
  uint32_t instants = 0;
};

struct ClientResult {
  std::vector<OpRecord> records;
  std::vector<WriteAck> acks;
  /// Per append: the verdict deltas answered; per close: the final
  /// verdicts.
  std::vector<std::vector<ctdb::monitor::VerdictDelta>> deltas;
  std::vector<std::vector<ctdb::monitor::VerdictDelta>> close_verdicts;
  uint64_t user_bytes = 0;  ///< names + LTL text of acknowledged writes
};

struct PhaseOptions {
  uint16_t port = 0;
  bool open_loop = false;
  const Inputs* inputs = nullptr;
  /// Traced runs: client spans and correlation for the server spans.
  SpanLog* spans = nullptr;
  Correlator* correlator = nullptr;
};

/// Runs every plan on its own thread and connection and returns one result
/// per plan. Plans' `owned` lists are updated in place.
std::vector<ClientResult> RunPhase(const PhaseOptions& options,
                                   std::vector<ClientPlan>* plans);

}  // namespace perfbench
