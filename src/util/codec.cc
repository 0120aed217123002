#include "util/codec.h"

#include "util/crc32c.h"

namespace ctdb::util {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  const char buf[4] = {static_cast<char>(v & 0xFF),
                       static_cast<char>((v >> 8) & 0xFF),
                       static_cast<char>((v >> 16) & 0xFF),
                       static_cast<char>((v >> 24) & 0xFF)};
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool GetU8(std::string_view data, size_t* offset, uint8_t* v) {
  if (data.size() - *offset < 1) return false;
  *v = static_cast<uint8_t>(data[*offset]);
  *offset += 1;
  return true;
}

bool GetU32(std::string_view data, size_t* offset, uint32_t* v) {
  if (data.size() - *offset < 4) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(data.data() + *offset);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  *offset += 4;
  return true;
}

bool GetU64(std::string_view data, size_t* offset, uint64_t* v) {
  if (data.size() - *offset < 8) return false;
  uint32_t lo = 0, hi = 0;
  GetU32(data, offset, &lo);
  GetU32(data, offset, &hi);
  *v = static_cast<uint64_t>(hi) << 32 | lo;
  return true;
}

bool GetString(std::string_view data, size_t* offset, std::string* s) {
  size_t pos = *offset;
  uint32_t len = 0;
  if (!GetU32(data, &pos, &len) || data.size() - pos < len) return false;
  s->assign(data.substr(pos, len));
  *offset = pos + len;
  return true;
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32c(payload));
  out += payload;
  return out;
}

FrameScan ScanFrame(std::string_view data, size_t* offset,
                    std::string_view* payload, size_t min_bytes,
                    size_t max_bytes) {
  size_t pos = *offset;
  uint32_t length = 0, crc = 0;
  if (!GetU32(data, &pos, &length)) return FrameScan::kNeedMore;
  if (length < min_bytes || length > max_bytes) return FrameScan::kCorrupt;
  if (!GetU32(data, &pos, &crc)) return FrameScan::kNeedMore;
  if (data.size() - pos < length) return FrameScan::kNeedMore;
  const std::string_view body = data.substr(pos, length);
  if (Crc32c(body) != crc) return FrameScan::kCorrupt;
  *payload = body;
  *offset = pos + length;
  return FrameScan::kFrame;
}

}  // namespace ctdb::util
