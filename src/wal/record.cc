#include "wal/record.h"

#include "util/codec.h"

namespace ctdb::wal {

namespace {

/// A record of `type` with its common header set and an empty body.
Record Header(RecordType type, uint64_t sequence, uint64_t clock,
              uint32_t contract_id) {
  Record r;
  r.type = type;
  r.sequence = sequence;
  r.clock = clock;
  r.contract_id = contract_id;
  return r;
}

/// The payload schema (record.h): the common header, then body(type).
template <class Io, class R>
bool RecordPayload(Io& io, R& r) {
  if (!io.Enum(r.type, RecordType::kRegister, RecordType::kReplace) ||
      !io.U64(r.sequence) || !io.U64(r.clock) || !io.U32(r.contract_id)) {
    return false;
  }
  switch (r.type) {
    case RecordType::kRegister:
      return io.Str(r.name) && io.Str(r.ltl_text);
    case RecordType::kUnregister:
      break;  // the common header carries everything
    case RecordType::kReplace:
      return io.Str(r.ltl_text);
    case RecordType::kCheckpoint:
      return io.Str(r.snapshot_path);
  }
  return true;
}

}  // namespace

Record Record::Register(uint64_t sequence, uint64_t clock,
                        uint32_t contract_id, std::string name,
                        std::string ltl_text) {
  Record r = Header(RecordType::kRegister, sequence, clock, contract_id);
  r.name = std::move(name);
  r.ltl_text = std::move(ltl_text);
  return r;
}

Record Record::Unregister(uint64_t sequence, uint64_t clock,
                          uint32_t contract_id) {
  return Header(RecordType::kUnregister, sequence, clock, contract_id);
}

Record Record::Replace(uint64_t sequence, uint64_t clock, uint32_t contract_id,
                       std::string ltl_text) {
  Record r = Header(RecordType::kReplace, sequence, clock, contract_id);
  r.ltl_text = std::move(ltl_text);
  return r;
}

Record Record::Checkpoint(uint64_t sequence, std::string snapshot_path) {
  Record r = Header(RecordType::kCheckpoint, sequence, 0, 0);
  r.snapshot_path = std::move(snapshot_path);
  return r;
}

bool Record::operator==(const Record& other) const {
  return type == other.type && sequence == other.sequence &&
         clock == other.clock && contract_id == other.contract_id &&
         name == other.name && ltl_text == other.ltl_text &&
         snapshot_path == other.snapshot_path;
}

std::string EncodePayload(const Record& record) {
  util::codec::Writer out;
  RecordPayload(out, record);
  return std::move(out).Take();
}

Status DecodePayload(std::string_view payload, Record* record) {
  *record = Record();
  util::codec::Reader in(payload);
  RecordPayload(in, *record);
  return in.Finish("record payload");
}

std::string EncodeFrame(const Record& record) {
  return util::EncodeFrame(EncodePayload(record));
}

Status DecodeFrame(std::string_view data, size_t* offset, Record* record) {
  size_t pos = *offset;
  std::string_view payload;
  switch (util::ScanFrame(data, &pos, &payload, kMinRecordBytes,
                          kMaxRecordBytes)) {
    case util::FrameScan::kNeedMore:
      return Status::Corruption("frame truncated");
    case util::FrameScan::kCorrupt:
      return Status::Corruption("frame length out of bounds or CRC mismatch");
    case util::FrameScan::kFrame:
      break;
  }
  CTDB_RETURN_NOT_OK(DecodePayload(payload, record));
  *offset = pos;
  return Status::OK();
}

bool FrameLooksValid(std::string_view data, size_t offset) {
  std::string_view payload;
  return util::ScanFrame(data, &offset, &payload, kMinRecordBytes,
                         kMaxRecordBytes) == util::FrameScan::kFrame;
}

}  // namespace ctdb::wal
