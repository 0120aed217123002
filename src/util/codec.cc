#include "util/codec.h"

#include "util/crc32c.h"

namespace ctdb::util {

namespace codec {

bool Reader::U8(uint8_t& v) {
  if (remaining() < 1) return Fail("truncated");
  v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool Reader::U32(uint32_t& v) {
  if (remaining() < 4) return Fail("truncated");
  const auto* p = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
  v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
      (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  pos_ += 4;
  return true;
}

bool Reader::U64(uint64_t& v) {
  uint32_t lo = 0, hi = 0;
  if (!U32(lo) || !U32(hi)) return false;
  v = static_cast<uint64_t>(hi) << 32 | lo;
  return true;
}

bool Reader::Str(std::string& s) {
  uint32_t len = 0;
  if (!U32(len)) return false;
  if (remaining() < len) return Fail("string truncated");
  s.assign(data_.substr(pos_, len));
  pos_ += len;
  return true;
}

Status Reader::Finish(std::string_view what) const {
  if (error_.empty() && pos_ == data_.size()) return Status::OK();
  if (error_.empty()) {
    return Status::Corruption(std::string(what) + ": " +
                              std::to_string(remaining()) +
                              " trailing bytes after the body");
  }
  return Status::Corruption(std::string(what) + ": " + error_ + " at byte " +
                            std::to_string(error_at_));
}

bool Reader::Fail(std::string why) {
  if (error_.empty()) {
    error_ = std::move(why);
    error_at_ = pos_;
  }
  return false;
}

}  // namespace codec

std::string EncodeFrame(std::string_view payload) {
  codec::Writer header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(Crc32c(payload));
  std::string out = std::move(header).Take();
  out += payload;
  return out;
}

FrameScan ScanFrame(std::string_view data, size_t* offset,
                    std::string_view* payload, size_t min_bytes,
                    size_t max_bytes) {
  codec::Reader in(data.substr(*offset));
  uint32_t length = 0, crc = 0;
  if (!in.U32(length)) return FrameScan::kNeedMore;
  if (length < min_bytes || length > max_bytes) return FrameScan::kCorrupt;
  if (!in.U32(crc) || in.remaining() < length) return FrameScan::kNeedMore;
  const std::string_view body =
      data.substr(*offset + kFrameHeaderBytes, length);
  if (Crc32c(body) != crc) return FrameScan::kCorrupt;
  *payload = body;
  *offset += kFrameHeaderBytes + length;
  return FrameScan::kFrame;
}

}  // namespace ctdb::util
