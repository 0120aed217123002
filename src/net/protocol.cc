#include "net/protocol.h"

#include "util/codec.h"

namespace ctdb::net {

namespace {

using util::codec::Reader;
using util::codec::Writer;

/// A request of `kind` with correlation id `id` and an empty body.
Request Blank(MsgKind kind, uint64_t id) {
  Request r;
  r.kind = kind;
  r.id = id;
  return r;
}

/// List elements: u32 ids and str names.
constexpr auto kU32 = [](auto& io, auto& v) { return io.U32(v); };
constexpr auto kStr = [](auto& io, auto& s) { return io.Str(s); };

/// verdicts := u32 count · count × (u32 contract id · u8 verdict)
template <class Io, class Verdicts>
bool VerdictList(Io& io, Verdicts& verdicts) {
  return io.List(verdicts, 5, [](auto& io, auto& v) {
    return io.U32(v.contract_id) &&
           io.Enum(v.verdict, monitor::StreamVerdict::kUndetermined,
                   monitor::StreamVerdict::kViolated);
  });
}

/// The request payload schema (protocol.h): header, then body(kind).
template <class Io, class R>
bool RequestPayload(Io& io, R& r) {
  if (!io.Enum(r.kind, MsgKind::kRegister, MsgKind::kStreamClose) ||
      !io.U64(r.id)) {
    return false;
  }
  switch (r.kind) {
    case MsgKind::kRegister:
      return io.Str(r.name) && io.Str(r.ltl);
    case MsgKind::kRegisterBatch:
      return io.List(r.entries, 8, [](auto& io, auto& entry) {
        return io.Str(entry.name) && io.Str(entry.ltl);
      });
    case MsgKind::kQuery:
      return io.Str(r.ltl) && io.U64(r.as_of);
    case MsgKind::kQueryBatch:
      return io.List(r.queries, 4, kStr) && io.U64(r.as_of);
    case MsgKind::kUnregister:
      return io.U32(r.contract_id);
    case MsgKind::kReplace:
      return io.U32(r.contract_id) && io.Str(r.ltl);
    case MsgKind::kStreamOpen:
      return io.Str(r.name) && io.U64(r.as_of);
    case MsgKind::kStreamAppend:
      return io.Str(r.name) &&
             io.List(r.events, 4, [](auto& io, auto& instant) {
               return io.List(instant, 4, kStr);
             });
    case MsgKind::kStreamClose:
      return io.Str(r.name);
    case MsgKind::kCheckpoint:
    case MsgKind::kStats:
    case MsgKind::kResponse:
      break;
  }
  return true;
}

/// The response payload schema (protocol.h): header, then
/// body(request_kind) when the status is OK.
template <class Io, class R>
bool ResponsePayload(Io& io, R& r) {
  MsgKind kind = MsgKind::kResponse;
  if (!io.Enum(kind, MsgKind::kResponse, MsgKind::kResponse) ||
      !io.U64(r.id) ||
      !io.Enum(r.request_kind, MsgKind::kRegister, MsgKind::kStreamClose) ||
      !io.Enum(r.code, StatusCode::kOk, StatusCode::kUnavailable) ||
      !io.Str(r.message)) {
    return false;
  }
  if (r.code != StatusCode::kOk) return true;
  switch (r.request_kind) {
    case MsgKind::kRegister:
    case MsgKind::kRegisterBatch:
      return io.List(r.ids, 4, kU32);
    case MsgKind::kQuery:
    case MsgKind::kQueryBatch:
      return io.List(r.answers, 20, [](auto& io, auto& answer) {
        return io.List(answer.matches, 4, kU32) &&
               io.U64(answer.total_us) && io.U64(answer.candidates);
      });
    case MsgKind::kCheckpoint:
    case MsgKind::kUnregister:
    case MsgKind::kReplace:
      return io.U64(r.sequence);
    case MsgKind::kStats:
      return io.Str(r.stats_json);
    case MsgKind::kStreamOpen:
      return io.U64(r.sequence) && io.U32(r.tracked);
    case MsgKind::kStreamAppend:
      return io.U64(r.events) && io.U64(r.stepped) && io.U64(r.pruned) &&
             VerdictList(io, r.verdicts);
    case MsgKind::kStreamClose:
      return io.U64(r.events) && io.U32(r.satisfied) &&
             io.U32(r.violated) && io.U32(r.undetermined) &&
             VerdictList(io, r.verdicts);
    case MsgKind::kResponse:
      break;
  }
  return true;
}

}  // namespace

bool IsRequestKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(MsgKind::kRegister) &&
         kind <= static_cast<uint8_t>(MsgKind::kStreamClose);
}

Request Request::Register(uint64_t id, std::string name, std::string ltl) {
  Request r = Blank(MsgKind::kRegister, id);
  r.name = std::move(name);
  r.ltl = std::move(ltl);
  return r;
}

Request Request::RegisterBatch(uint64_t id, std::vector<Entry> entries) {
  Request r = Blank(MsgKind::kRegisterBatch, id);
  r.entries = std::move(entries);
  return r;
}

Request Request::Query(uint64_t id, std::string ltl, uint64_t as_of) {
  Request r = Blank(MsgKind::kQuery, id);
  r.ltl = std::move(ltl);
  r.as_of = as_of;
  return r;
}

Request Request::QueryBatch(uint64_t id, std::vector<std::string> queries,
                            uint64_t as_of) {
  Request r = Blank(MsgKind::kQueryBatch, id);
  r.queries = std::move(queries);
  r.as_of = as_of;
  return r;
}

Request Request::Checkpoint(uint64_t id) {
  return Blank(MsgKind::kCheckpoint, id);
}

Request Request::Stats(uint64_t id) {
  return Blank(MsgKind::kStats, id);
}

Request Request::Unregister(uint64_t id, uint32_t contract_id) {
  Request r = Blank(MsgKind::kUnregister, id);
  r.contract_id = contract_id;
  return r;
}

Request Request::Replace(uint64_t id, uint32_t contract_id, std::string ltl) {
  Request r = Blank(MsgKind::kReplace, id);
  r.contract_id = contract_id;
  r.ltl = std::move(ltl);
  return r;
}

Request Request::StreamOpen(uint64_t id, std::string name, uint64_t as_of) {
  Request r = Blank(MsgKind::kStreamOpen, id);
  r.name = std::move(name);
  r.as_of = as_of;
  return r;
}

Request Request::StreamAppend(uint64_t id, std::string name,
                              monitor::EventBatch events) {
  Request r = Blank(MsgKind::kStreamAppend, id);
  r.name = std::move(name);
  r.events = std::move(events);
  return r;
}

Request Request::StreamClose(uint64_t id, std::string name) {
  Request r = Blank(MsgKind::kStreamClose, id);
  r.name = std::move(name);
  return r;
}

Response Response::Error(const Request& request, const Status& status) {
  Response response;
  response.id = request.id;
  response.request_kind = request.kind;
  response.code = status.code();
  response.message = status.message();
  return response;
}

std::string EncodeRequestPayload(const Request& request) {
  Writer out;
  RequestPayload(out, request);
  return std::move(out).Take();
}

std::string EncodeResponsePayload(const Response& response) {
  Writer out;
  ResponsePayload(out, response);
  return std::move(out).Take();
}

Status DecodeRequestPayload(std::string_view payload, Request* request) {
  *request = Request();
  Reader in(payload);
  RequestPayload(in, *request);
  return in.Finish("request payload");
}

Status DecodeResponsePayload(std::string_view payload, Response* response) {
  *response = Response();
  Reader in(payload);
  ResponsePayload(in, *response);
  return in.Finish("response payload");
}

std::string EncodeRequestFrame(const Request& request) {
  return util::EncodeFrame(EncodeRequestPayload(request));
}

std::string EncodeResponseFrame(const Response& response) {
  return util::EncodeFrame(EncodeResponsePayload(response));
}

FrameScan ScanFrame(std::string_view data, size_t* offset,
                    std::string_view* payload) {
  return util::ScanFrame(data, offset, payload, 0, kMaxFrameBytes);
}

Status DecodeRequestFrame(std::string_view data, size_t* offset,
                          Request* request) {
  std::string_view payload;
  size_t pos = *offset;
  if (ScanFrame(data, &pos, &payload) != FrameScan::kFrame) {
    return Status::Corruption("request frame invalid or incomplete");
  }
  CTDB_RETURN_NOT_OK(DecodeRequestPayload(payload, request));
  *offset = pos;
  return Status::OK();
}

}  // namespace ctdb::net
