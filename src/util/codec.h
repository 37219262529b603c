// Wire encoding primitives.
//
// All Pileus RPC messages are encoded with this hand-rolled format:
// little-endian fixed integers, LEB128 varints, and length-prefixed byte
// strings. Decoding never trusts the input: every read is bounds-checked and
// failures surface as kCorruption, so a malformed or truncated frame cannot
// crash a storage node. The per-field primitives are inline, so a 50-item
// scan reply encodes as a run of appends and decodes as a run of bounds
// checks, not a call per field.

#ifndef PILEUS_SRC_UTIL_CODEC_H_
#define PILEUS_SRC_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/timestamp.h"

namespace pileus {

// Appends binary fields to a growable buffer.
class Encoder {
 public:
  Encoder() = default;
  // Appends after the bytes already in `buf` (a frame header, say).
  explicit Encoder(std::string buf) : buf_(std::move(buf)) {}

  void PutUint8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);

  // Unsigned LEB128.
  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }
  // Zig-zag + LEB128 for signed values.
  void PutVarintSigned64(int64_t v) {
    PutVarint64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  // Varint length prefix followed by the raw bytes.
  void PutLengthPrefixed(std::string_view bytes) {
    PutVarint64(bytes.size());
    buf_.append(bytes.data(), bytes.size());
  }

  void PutTimestamp(const Timestamp& ts) {
    PutVarintSigned64(ts.physical_us);
    PutVarint64(ts.sequence);
  }

  void PutBool(bool v) { PutUint8(v ? 1 : 0); }
  void PutDouble(double v);

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Consumes binary fields from a non-owned byte span.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Status GetUint8(uint8_t* out) {
    if (data_.empty()) {
      return Truncated("uint8");
    }
    *out = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return Status::Ok();
  }
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out) {
    if (!data_.empty() && static_cast<uint8_t>(data_[0]) < 0x80) {
      *out = static_cast<uint8_t>(data_[0]);
      data_.remove_prefix(1);
      return Status::Ok();
    }
    return GetVarint64Slow(out);
  }
  Status GetVarintSigned64(int64_t* out) {
    uint64_t zz;
    PILEUS_RETURN_IF_ERROR(GetVarint64(&zz));
    *out = static_cast<int64_t>(zz >> 1) ^ -static_cast<int64_t>(zz & 1);
    return Status::Ok();
  }
  // The returned view aliases the decoder's underlying buffer.
  Status GetLengthPrefixed(std::string_view* out) {
    uint64_t len;
    PILEUS_RETURN_IF_ERROR(GetVarint64(&len));
    if (data_.size() < len) {
      return Truncated("length-prefixed bytes");
    }
    *out = data_.substr(0, len);
    data_.remove_prefix(len);
    return Status::Ok();
  }
  Status GetLengthPrefixedString(std::string* out) {
    std::string_view view;
    PILEUS_RETURN_IF_ERROR(GetLengthPrefixed(&view));
    out->assign(view.data(), view.size());
    return Status::Ok();
  }
  Status GetTimestamp(Timestamp* out) {
    PILEUS_RETURN_IF_ERROR(GetVarintSigned64(&out->physical_us));
    uint64_t seq;
    PILEUS_RETURN_IF_ERROR(GetVarint64(&seq));
    if (seq > UINT32_MAX) {
      return Status(StatusCode::kCorruption, "timestamp sequence overflow");
    }
    out->sequence = static_cast<uint32_t>(seq);
    return Status::Ok();
  }
  Status GetBool(bool* out) {
    uint8_t v;
    PILEUS_RETURN_IF_ERROR(GetUint8(&v));
    *out = (v != 0);
    return Status::Ok();
  }
  Status GetDouble(double* out);

  bool AtEnd() const { return data_.empty(); }
  size_t remaining() const { return data_.size(); }

 private:
  // Multi-byte varints, and the truncation and overflow errors.
  Status GetVarint64Slow(uint64_t* out);
  Status Truncated(const char* what);

  std::string_view data_;
};

}  // namespace pileus

#endif  // PILEUS_SRC_UTIL_CODEC_H_
