#include "net/protocol.h"

#include "util/codec.h"

namespace ctdb::net {

namespace {

using util::CountFits;
using util::GetString;
using util::GetU32;
using util::GetU64;
using util::GetU8;
using util::PutString;
using util::PutU32;
using util::PutU64;
using util::PutU8;

Status Corrupt(const char* what) { return Status::Corruption(what); }

/// A request of `kind` with correlation id `id` and an empty body.
Request Blank(MsgKind kind, uint64_t id) {
  Request r;
  r.kind = kind;
  r.id = id;
  return r;
}

/// ids := u32 count · count × u32 (contract ids, matches).
void PutIds(std::string* out, const std::vector<uint32_t>& ids) {
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (uint32_t id : ids) PutU32(out, id);
}

bool GetIds(std::string_view data, size_t* offset,
            std::vector<uint32_t>* ids) {
  uint32_t count = 0;
  if (!GetU32(data, offset, &count) || !CountFits(data, *offset, count, 4)) {
    return false;
  }
  ids->resize(count);
  for (uint32_t& id : *ids) GetU32(data, offset, &id);  // fits: checked above
  return true;
}

void PutVerdicts(std::string* out,
                 const std::vector<monitor::VerdictDelta>& verdicts) {
  PutU32(out, static_cast<uint32_t>(verdicts.size()));
  for (const monitor::VerdictDelta& v : verdicts) {
    PutU32(out, v.contract_id);
    PutU8(out, static_cast<uint8_t>(v.verdict));
  }
}

bool GetVerdicts(std::string_view data, size_t* offset,
                 std::vector<monitor::VerdictDelta>* verdicts) {
  uint32_t count = 0;
  if (!GetU32(data, offset, &count) || !CountFits(data, *offset, count, 5)) {
    return false;
  }
  verdicts->resize(count);
  for (monitor::VerdictDelta& v : *verdicts) {
    uint8_t verdict = 0;
    if (!GetU32(data, offset, &v.contract_id) ||
        !GetU8(data, offset, &verdict) ||
        verdict > static_cast<uint8_t>(monitor::StreamVerdict::kViolated)) {
      return false;
    }
    v.verdict = static_cast<monitor::StreamVerdict>(verdict);
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
  std::string out;
  PutU8(&out, static_cast<uint8_t>(request.kind));
  PutU64(&out, request.id);
  switch (request.kind) {
    case MsgKind::kRegister:
      PutString(&out, request.name);
      PutString(&out, request.ltl);
      break;
    case MsgKind::kRegisterBatch:
      PutU32(&out, static_cast<uint32_t>(request.entries.size()));
      for (const Request::Entry& entry : request.entries) {
        PutString(&out, entry.name);
        PutString(&out, entry.ltl);
      }
      break;
    case MsgKind::kQuery:
      PutString(&out, request.ltl);
      PutU64(&out, request.as_of);
      break;
    case MsgKind::kQueryBatch:
      PutU32(&out, static_cast<uint32_t>(request.queries.size()));
      for (const std::string& q : request.queries) PutString(&out, q);
      PutU64(&out, request.as_of);
      break;
    case MsgKind::kUnregister:
      PutU32(&out, request.contract_id);
      break;
    case MsgKind::kReplace:
      PutU32(&out, request.contract_id);
      PutString(&out, request.ltl);
      break;
    case MsgKind::kStreamOpen:
      PutString(&out, request.name);
      PutU64(&out, request.as_of);
      break;
    case MsgKind::kStreamAppend:
      PutString(&out, request.name);
      PutU32(&out, static_cast<uint32_t>(request.events.size()));
      for (const std::vector<std::string>& instant : request.events) {
        PutU32(&out, static_cast<uint32_t>(instant.size()));
        for (const std::string& event : instant) PutString(&out, event);
      }
      break;
    case MsgKind::kStreamClose:
      PutString(&out, request.name);
      break;
    case MsgKind::kCheckpoint:
    case MsgKind::kStats:
    case MsgKind::kResponse:
      break;
  }
  return out;
}

Status DecodeRequestPayload(std::string_view payload, Request* request) {
  *request = Request();
  size_t offset = 0;
  uint8_t kind = 0;
  if (!GetU8(payload, &offset, &kind) ||
      !GetU64(payload, &offset, &request->id)) {
    return Corrupt("request payload truncated in header");
  }
  if (!IsRequestKind(kind)) {
    return Status::Corruption("unknown request kind " + std::to_string(kind));
  }
  request->kind = static_cast<MsgKind>(kind);
  switch (request->kind) {
    case MsgKind::kRegister:
      if (!GetString(payload, &offset, &request->name) ||
          !GetString(payload, &offset, &request->ltl)) {
        return Corrupt("register request truncated");
      }
      break;
    case MsgKind::kRegisterBatch: {
      uint32_t count = 0;
      if (!GetU32(payload, &offset, &count) ||
          !CountFits(payload, offset, count, 8)) {
        return Corrupt("register batch count exceeds payload");
      }
      request->entries.resize(count);
      for (Request::Entry& entry : request->entries) {
        if (!GetString(payload, &offset, &entry.name) ||
            !GetString(payload, &offset, &entry.ltl)) {
          return Corrupt("register batch entry truncated");
        }
      }
      break;
    }
    case MsgKind::kQuery:
      if (!GetString(payload, &offset, &request->ltl) ||
          !GetU64(payload, &offset, &request->as_of)) {
        return Corrupt("query request truncated");
      }
      break;
    case MsgKind::kQueryBatch: {
      uint32_t count = 0;
      if (!GetU32(payload, &offset, &count) ||
          !CountFits(payload, offset, count, 4)) {
        return Corrupt("query batch count exceeds payload");
      }
      request->queries.resize(count);
      for (std::string& q : request->queries) {
        if (!GetString(payload, &offset, &q)) {
          return Corrupt("query batch entry truncated");
        }
      }
      if (!GetU64(payload, &offset, &request->as_of)) {
        return Corrupt("query batch as_of truncated");
      }
      break;
    }
    case MsgKind::kUnregister:
      if (!GetU32(payload, &offset, &request->contract_id)) {
        return Corrupt("unregister request truncated");
      }
      break;
    case MsgKind::kReplace:
      if (!GetU32(payload, &offset, &request->contract_id) ||
          !GetString(payload, &offset, &request->ltl)) {
        return Corrupt("replace request truncated");
      }
      break;
    case MsgKind::kStreamOpen:
      if (!GetString(payload, &offset, &request->name) ||
          !GetU64(payload, &offset, &request->as_of)) {
        return Corrupt("stream open request truncated");
      }
      break;
    case MsgKind::kStreamAppend: {
      uint32_t count = 0;
      if (!GetString(payload, &offset, &request->name) ||
          !GetU32(payload, &offset, &count) ||
          !CountFits(payload, offset, count, 4)) {
        return Corrupt("stream append instant count exceeds payload");
      }
      request->events.resize(count);
      for (std::vector<std::string>& instant : request->events) {
        uint32_t names = 0;
        if (!GetU32(payload, &offset, &names) ||
            !CountFits(payload, offset, names, 4)) {
          return Corrupt("stream append event count exceeds payload");
        }
        instant.resize(names);
        for (std::string& event : instant) {
          if (!GetString(payload, &offset, &event)) {
            return Corrupt("stream append event truncated");
          }
        }
      }
      break;
    }
    case MsgKind::kStreamClose:
      if (!GetString(payload, &offset, &request->name)) {
        return Corrupt("stream close request truncated");
      }
      break;
    case MsgKind::kCheckpoint:
    case MsgKind::kStats:
    case MsgKind::kResponse:
      break;
  }
  if (offset != payload.size()) {
    return Corrupt("trailing bytes after request body");
  }
  return Status::OK();
}

std::string EncodeResponsePayload(const Response& response) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgKind::kResponse));
  PutU64(&out, response.id);
  PutU8(&out, static_cast<uint8_t>(response.request_kind));
  PutU8(&out, static_cast<uint8_t>(response.code));
  PutString(&out, response.message);
  if (response.code != StatusCode::kOk) return out;
  switch (response.request_kind) {
    case MsgKind::kRegister:
    case MsgKind::kRegisterBatch:
      PutIds(&out, response.ids);
      break;
    case MsgKind::kQuery:
    case MsgKind::kQueryBatch:
      PutU32(&out, static_cast<uint32_t>(response.answers.size()));
      for (const Response::Answer& answer : response.answers) {
        PutIds(&out, answer.matches);
        PutU64(&out, answer.total_us);
        PutU64(&out, answer.candidates);
      }
      break;
    case MsgKind::kCheckpoint:
    case MsgKind::kUnregister:
    case MsgKind::kReplace:
      PutU64(&out, response.sequence);
      break;
    case MsgKind::kStats:
      PutString(&out, response.stats_json);
      break;
    case MsgKind::kStreamOpen:
      PutU64(&out, response.sequence);
      PutU32(&out, response.tracked);
      break;
    case MsgKind::kStreamAppend:
      PutU64(&out, response.events);
      PutU64(&out, response.stepped);
      PutU64(&out, response.pruned);
      PutVerdicts(&out, response.verdicts);
      break;
    case MsgKind::kStreamClose:
      PutU64(&out, response.events);
      PutU32(&out, response.satisfied);
      PutU32(&out, response.violated);
      PutU32(&out, response.undetermined);
      PutVerdicts(&out, response.verdicts);
      break;
    case MsgKind::kResponse:
      break;
  }
  return out;
}

Status DecodeResponsePayload(std::string_view payload, Response* response) {
  *response = Response();
  size_t offset = 0;
  uint8_t kind = 0, request_kind = 0, code = 0;
  if (!GetU8(payload, &offset, &kind) ||
      !GetU64(payload, &offset, &response->id) ||
      !GetU8(payload, &offset, &request_kind) ||
      !GetU8(payload, &offset, &code) ||
      !GetString(payload, &offset, &response->message)) {
    return Corrupt("response payload truncated in header");
  }
  if (kind != static_cast<uint8_t>(MsgKind::kResponse)) {
    return Status::Corruption("not a response frame, kind " +
                              std::to_string(kind));
  }
  if (!IsRequestKind(request_kind)) {
    return Status::Corruption("response to unknown request kind " +
                              std::to_string(request_kind));
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  response->request_kind = static_cast<MsgKind>(request_kind);
  response->code = static_cast<StatusCode>(code);
  if (response->code == StatusCode::kOk) {
    switch (response->request_kind) {
      case MsgKind::kRegister:
      case MsgKind::kRegisterBatch:
        if (!GetIds(payload, &offset, &response->ids)) {
          return Corrupt("response id count exceeds payload");
        }
        break;
      case MsgKind::kQuery:
      case MsgKind::kQueryBatch: {
        uint32_t count = 0;
        if (!GetU32(payload, &offset, &count) ||
            !CountFits(payload, offset, count, 20)) {
          return Corrupt("answer count exceeds payload");
        }
        response->answers.resize(count);
        for (Response::Answer& answer : response->answers) {
          if (!GetIds(payload, &offset, &answer.matches)) {
            return Corrupt("match count exceeds payload");
          }
          if (!GetU64(payload, &offset, &answer.total_us) ||
              !GetU64(payload, &offset, &answer.candidates)) {
            return Corrupt("answer stats truncated");
          }
        }
        break;
      }
      case MsgKind::kCheckpoint:
      case MsgKind::kUnregister:
      case MsgKind::kReplace:
        if (!GetU64(payload, &offset, &response->sequence)) {
          return Corrupt("sequence response truncated");
        }
        break;
      case MsgKind::kStats:
        if (!GetString(payload, &offset, &response->stats_json)) {
          return Corrupt("stats response truncated");
        }
        break;
      case MsgKind::kStreamOpen:
        if (!GetU64(payload, &offset, &response->sequence) ||
            !GetU32(payload, &offset, &response->tracked)) {
          return Corrupt("stream open response truncated");
        }
        break;
      case MsgKind::kStreamAppend:
        if (!GetU64(payload, &offset, &response->events) ||
            !GetU64(payload, &offset, &response->stepped) ||
            !GetU64(payload, &offset, &response->pruned) ||
            !GetVerdicts(payload, &offset, &response->verdicts)) {
          return Corrupt("stream append response truncated or bad verdict");
        }
        break;
      case MsgKind::kStreamClose:
        if (!GetU64(payload, &offset, &response->events) ||
            !GetU32(payload, &offset, &response->satisfied) ||
            !GetU32(payload, &offset, &response->violated) ||
            !GetU32(payload, &offset, &response->undetermined) ||
            !GetVerdicts(payload, &offset, &response->verdicts)) {
          return Corrupt("stream close response truncated or bad verdict");
        }
        break;
      case MsgKind::kResponse:
        break;
    }
  }
  if (offset != payload.size()) {
    return Corrupt("trailing bytes after response body");
  }
  return Status::OK();
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
    return Corrupt("request frame invalid or incomplete");
  }
  CTDB_RETURN_NOT_OK(DecodeRequestPayload(payload, request));
  *offset = pos;
  return Status::OK();
}

}  // namespace ctdb::net
