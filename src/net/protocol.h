// Wire protocol of the ctdb network service (DESIGN.md §12).
//
// A frame on the wire is the length · crc32c · payload frame the WAL uses
// too (util/codec.h), with
//
//   request payload  := kind u8 · id u64 · body(kind)
//   response payload := kResponse u8 · id u64 · request_kind u8 ·
//                       status_code u8 · msg_len u32 · msg ·
//                       [body(request_kind) when status_code == OK]
//
//   body(kRegister)      := str name · str ltl
//   body(kRegisterBatch) := u32 count · count × (str name · str ltl)
//   body(kQuery)         := str ltl · u64 as_of
//   body(kQueryBatch)    := u32 count · count × str · u64 as_of
//   body(kCheckpoint)    := (empty)
//   body(kStats)         := (empty)
//   body(kUnregister)    := u32 contract_id
//   body(kReplace)       := u32 contract_id · str ltl
//   body(kStreamOpen)    := str name · u64 as_of
//   body(kStreamAppend)  := str name · u32 count · count × (u32 n · n × str)
//   body(kStreamClose)   := str name
//   str                  := len u32 · bytes
//
// `as_of` = 0 asks for the latest state; any other value evaluates the
// query against the contract set as of that system-period clock tick
// (DESIGN.md §14).
//
// Response bodies:
//   kRegister      := u32 contract id
//   kRegisterBatch := u32 count · count × u32 id
//   kQuery         := u32 match_count · ids · u64 total_us · u64 candidates
//   kQueryBatch    := u32 count · count × (u32 match_count · ids)
//   kCheckpoint    := u64 covered sequence
//   kStats         := str metrics JSON
//   kUnregister    := u64 clock of the removal
//   kReplace       := u64 clock of the supersession
//   kStreamOpen    := u64 pinned clock · u32 contracts tracked
//   kStreamAppend  := u64 events · u64 stepped · u64 pruned ·
//                     u32 count · count × (u32 contract id · u8 verdict)
//   kStreamClose   := u64 events · u32 satisfied · u32 violated ·
//                     u32 undetermined · u32 count ·
//                     count × (u32 contract id · u8 verdict)
//
// A verdict byte is 0 = undetermined, 1 = satisfied, 2 = violated
// (monitor::StreamVerdict); anything else is rejected as Corruption.
//
// `id` is a client-assigned correlation id echoed verbatim by the response,
// which is what makes per-connection pipelining work: a client may have any
// number of requests in flight and match responses by id (the server
// answers each connection's requests in receive order, but clients should
// not rely on that).
//
// The tables above are implemented once, by the schema function templates
// RequestPayload and ResponsePayload in protocol.cc, which the Encode* side
// walks with a util::codec::Writer and the Decode* side with a Reader.
//
// Decoding is hostile-input safe: a length prefix above kMaxFrameBytes is
// rejected before any allocation, element counts are validated against the
// bytes actually present before a vector is sized, and every structural
// violation comes back as Status::Corruption (fuzzed by
// tools/fuzz/fuzz_protocol). Valid payloads are a round-trip fixed point:
// decode ∘ encode == identity.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/types.h"
#include "util/codec.h"
#include "util/result.h"

namespace ctdb::net {

using util::FrameScan;
using util::kFrameHeaderBytes;

/// Upper bound on one payload; larger length prefixes are rejected as
/// corruption before any allocation, bounding memory under hostile input.
inline constexpr size_t kMaxFrameBytes = 1u << 24;

/// Message kinds. Requests use the operation kinds; every response frame is
/// kResponse and carries the operation kind it answers.
enum class MsgKind : uint8_t {
  kRegister = 1,
  kRegisterBatch = 2,
  kQuery = 3,
  kQueryBatch = 4,
  kCheckpoint = 5,
  kStats = 6,
  kUnregister = 7,
  kReplace = 8,
  kStreamOpen = 9,
  kStreamAppend = 10,
  kStreamClose = 11,
  kResponse = 32,
};

/// True for the eleven operation kinds (not kResponse).
bool IsRequestKind(uint8_t kind);

/// \brief One client request.
struct Request {
  MsgKind kind = MsgKind::kQuery;
  uint64_t id = 0;  ///< correlation id, echoed by the response

  struct Entry {
    std::string name;
    std::string ltl;
    bool operator==(const Entry&) const = default;
  };
  std::string name;             ///< kRegister: contract name; kStream*: stream
  std::string ltl;              ///< kRegister / kQuery / kReplace: LTL text
  std::vector<Entry> entries;   ///< kRegisterBatch
  std::vector<std::string> queries;  ///< kQueryBatch
  monitor::EventBatch events;   ///< kStreamAppend: instants to append
  uint32_t contract_id = 0;     ///< kUnregister / kReplace: target contract
  uint64_t as_of = 0;           ///< kQuery / kQueryBatch / kStreamOpen: 0 = latest

  static Request Register(uint64_t id, std::string name, std::string ltl);
  static Request RegisterBatch(uint64_t id, std::vector<Entry> entries);
  static Request Query(uint64_t id, std::string ltl, uint64_t as_of = 0);
  static Request QueryBatch(uint64_t id, std::vector<std::string> queries,
                            uint64_t as_of = 0);
  static Request Checkpoint(uint64_t id);
  static Request Stats(uint64_t id);
  static Request Unregister(uint64_t id, uint32_t contract_id);
  static Request Replace(uint64_t id, uint32_t contract_id, std::string ltl);
  static Request StreamOpen(uint64_t id, std::string name, uint64_t as_of = 0);
  static Request StreamAppend(uint64_t id, std::string name,
                              monitor::EventBatch events);
  static Request StreamClose(uint64_t id, std::string name);

  bool operator==(const Request&) const = default;
};

/// \brief One server response. `request_kind` names the operation answered;
/// the per-operation body is present only when `code` is kOk.
struct Response {
  uint64_t id = 0;
  MsgKind request_kind = MsgKind::kQuery;
  StatusCode code = StatusCode::kOk;
  std::string message;  ///< error detail; empty on success

  std::vector<uint32_t> ids;  ///< kRegister (1 element) / kRegisterBatch
  /// kQuery result, and one element per query for kQueryBatch.
  struct Answer {
    std::vector<uint32_t> matches;
    uint64_t total_us = 0;    ///< server-side evaluation time
    uint64_t candidates = 0;  ///< contracts surviving the prefilter
    bool operator==(const Answer&) const = default;
  };
  std::vector<Answer> answers;
  /// kCheckpoint: covered mutation sequence; kUnregister / kReplace: the
  /// system-period clock of the lifecycle change; kStreamOpen: the pinned
  /// snapshot clock.
  uint64_t sequence = 0;
  std::string stats_json;    ///< kStats: metrics registry snapshot

  uint32_t tracked = 0;      ///< kStreamOpen: contracts tracked at the pin
  uint64_t events = 0;       ///< kStreamAppend / kStreamClose: total appended
  uint64_t stepped = 0;      ///< kStreamAppend: (contract, instant) steps run
  uint64_t pruned = 0;       ///< kStreamAppend: steps skipped by pruning
  uint32_t satisfied = 0;    ///< kStreamClose: verdict tallies
  uint32_t violated = 0;
  uint32_t undetermined = 0;
  /// kStreamAppend: verdict changes since the last append; kStreamClose:
  /// final verdict of every tracked contract. Ascending contract id.
  std::vector<monitor::VerdictDelta> verdicts;

  /// The response's status as a Status value.
  Status status() const {
    return code == StatusCode::kOk ? Status::OK() : Status(code, message);
  }
  /// An error response answering `request` (body omitted).
  static Response Error(const Request& request, const Status& status);

  bool operator==(const Response&) const = default;
};

/// \name Payload codec (no frame header).
/// @{
std::string EncodeRequestPayload(const Request& request);
std::string EncodeResponsePayload(const Response& response);
/// Corruption on any structural violation; trailing bytes are corruption too.
Status DecodeRequestPayload(std::string_view payload, Request* request);
Status DecodeResponsePayload(std::string_view payload, Response* response);
/// @}

/// \name Frame codec: header + payload.
/// @{
std::string EncodeRequestFrame(const Request& request);
std::string EncodeResponseFrame(const Response& response);

/// \brief Extracts the payload of the frame starting at `data[offset]`.
///
/// util::ScanFrame bounded by kMaxFrameBytes: a hostile length prefix is
/// kCorrupt (the stream is unrecoverable), an incomplete frame kNeedMore.
FrameScan ScanFrame(std::string_view data, size_t* offset,
                    std::string_view* payload);

/// Decodes one whole request frame (ScanFrame + DecodeRequestPayload).
/// kNeedMore comes back as Corruption — use ScanFrame for streaming.
Status DecodeRequestFrame(std::string_view data, size_t* offset,
                          Request* request);
/// @}

}  // namespace ctdb::net
