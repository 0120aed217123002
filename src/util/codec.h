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
// The Get* readers are hostile-input safe: they return false instead of
// reading past the end, and leave sizing decisions to the caller (CountFits).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ctdb::util {

/// \name Little-endian writers (append to `out`).
/// @{
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// str := len u32 · bytes
void PutString(std::string* out, std::string_view s);
/// @}

/// \name Little-endian readers at `data[*offset]`; advance `*offset` and
/// return true on success, false (offset untouched) when too few bytes
/// remain.
/// @{
bool GetU8(std::string_view data, size_t* offset, uint8_t* v);
bool GetU32(std::string_view data, size_t* offset, uint32_t* v);
bool GetU64(std::string_view data, size_t* offset, uint64_t* v);
bool GetString(std::string_view data, size_t* offset, std::string* s);
/// @}

/// True when `count` elements of at least `min_bytes` each can still fit in
/// the bytes after `offset` — the guard that keeps a hostile count prefix
/// from turning into a giant vector allocation.
inline bool CountFits(std::string_view data, size_t offset, uint32_t count,
                      size_t min_bytes) {
  return static_cast<uint64_t>(count) * min_bytes <= data.size() - offset;
}

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
