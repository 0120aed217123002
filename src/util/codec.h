// Little-endian byte codec and the CRC32C length-prefixed frame shared by the
// write-ahead log (wal/record.h) and the wire protocol (net/protocol.h).
//
// A frame is
//
//   ┌────────────┬────────────┬──────────────────────────────┐
//   │ length u32 │ crc32c u32 │ payload (`length` bytes)     │
//   └────────────┴────────────┴──────────────────────────────┘
//     little-endian             crc is over the payload only
//
// Each payload layout is declared once, as a schema: a function template that
// walks a value field by field through an `Io` that is either a Writer (which
// appends the fields) or a Reader (which fills them in):
//
//   template <class Io, class R>
//   bool EntrySchema(Io& io, R& e) { return io.Str(e.name) && io.Str(e.ltl); }
//
// `R` is `const T` when writing and `T` when reading, so one function is both
// the encoder and the decoder, and the two cannot drift apart. Schemas chain
// steps with `&&`: a Writer step always succeeds, a Reader step returns false
// once the input is bad.
//
// The Reader holds every check that input from outside the program needs:
// a read never passes the end, a list count is checked against the bytes left
// before the vector is sized (so a hostile count never turns into a giant
// allocation), an enum byte outside its range is refused, and Finish() refuses
// trailing bytes. The first failure sticks, and Finish() reports it as
// Status::Corruption.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ctdb::util {

namespace codec {

/// Appends fields to a byte string. Every step returns true.
class Writer {
 public:
  bool U8(uint8_t v) {
    out_.push_back(static_cast<char>(v));
    return true;
  }
  bool U32(uint32_t v) {
    const char buf[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
    out_.append(buf, 4);
    return true;
  }
  bool U64(uint64_t v) {
    return U32(static_cast<uint32_t>(v)) && U32(static_cast<uint32_t>(v >> 32));
  }
  /// str := len u32 · bytes
  bool Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
    return true;
  }
  /// An enum as one byte; the range only binds the Reader.
  template <class E>
  bool Enum(E v, E /*lo*/, E /*hi*/) {
    return U8(static_cast<uint8_t>(v));
  }
  /// list := count u32 · count × each(item). `min_bytes` only binds the
  /// Reader.
  template <class T, class Each>
  bool List(const std::vector<T>& items, size_t /*min_bytes*/, Each each) {
    U32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) each(*this, item);
    return true;
  }

  std::string Take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads fields from untrusted bytes; see the file comment for its checks.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t& v);
  bool U32(uint32_t& v);
  bool U64(uint64_t& v);
  bool Str(std::string& s);
  /// One byte, refused unless it lies in [lo, hi].
  template <class E>
  bool Enum(E& v, E lo, E hi) {
    uint8_t byte = 0;
    if (!U8(byte)) return false;
    if (byte < static_cast<uint8_t>(lo) || byte > static_cast<uint8_t>(hi)) {
      return Fail("byte " + std::to_string(byte) + " out of range");
    }
    v = static_cast<E>(byte);
    return true;
  }
  /// A count, refused unless `count × min_bytes` still fit, then `count`
  /// items read by `each`.
  template <class T, class Each>
  bool List(std::vector<T>& items, size_t min_bytes, Each each) {
    uint32_t count = 0;
    if (!U32(count)) return false;
    if (static_cast<uint64_t>(count) * min_bytes > remaining()) {
      return Fail("count " + std::to_string(count) + " exceeds the bytes left");
    }
    items.resize(count);
    for (T& item : items) {
      if (!each(*this, item)) return false;
    }
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

  /// OK when every step succeeded and every byte was consumed; otherwise
  /// Corruption naming `what` and the first failure.
  Status Finish(std::string_view what) const;

 private:
  bool Fail(std::string why);

  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;  ///< first failure; empty while every step succeeded
  size_t error_at_ = 0;  ///< read offset when the first failure was found
};

}  // namespace codec

/// Frame header size: length u32 + crc u32.
inline constexpr size_t kFrameHeaderBytes = 8;

/// `payload` behind a frame header.
std::string EncodeFrame(std::string_view payload);

/// Outcome of scanning a byte buffer for one whole frame.
enum class FrameScan {
  kFrame,     ///< a complete, CRC-valid frame starts at `offset`
  kNeedMore,  ///< the buffer ends inside the header or payload
  kCorrupt,   ///< length outside [min_bytes, max_bytes] or CRC mismatch
};

/// \brief Extracts the payload of the frame starting at `data[offset]`.
///
/// On kFrame advances `*offset` past the frame and points `*payload` into
/// `data` (valid while `data` is). Never allocates: a length prefix outside
/// [min_bytes, max_bytes] is kCorrupt as soon as it is read, before the rest
/// of the frame is needed.
FrameScan ScanFrame(std::string_view data, size_t* offset,
                    std::string_view* payload, size_t min_bytes,
                    size_t max_bytes);

}  // namespace ctdb::util
