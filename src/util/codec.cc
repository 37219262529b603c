#include "src/util/codec.h"

namespace pileus {

void Encoder::PutFixed32(uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v);
  b[1] = static_cast<char>(v >> 8);
  b[2] = static_cast<char>(v >> 16);
  b[3] = static_cast<char>(v >> 24);
  buf_.append(b, 4);
}

void Encoder::PutFixed64(uint64_t v) {
  PutFixed32(static_cast<uint32_t>(v));
  PutFixed32(static_cast<uint32_t>(v >> 32));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

Status Decoder::Truncated(const char* what) {
  return Status(StatusCode::kCorruption,
                std::string("truncated input decoding ") + what);
}

Status Decoder::GetFixed32(uint32_t* out) {
  if (data_.size() < 4) {
    return Truncated("fixed32");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data());
  *out = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
  data_.remove_prefix(4);
  return Status::Ok();
}

Status Decoder::GetFixed64(uint64_t* out) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  PILEUS_RETURN_IF_ERROR(GetFixed32(&lo));
  PILEUS_RETURN_IF_ERROR(GetFixed32(&hi));
  *out = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return Status::Ok();
}

Status Decoder::GetVarint64Slow(uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (!data_.empty()) {
    const uint8_t byte = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    if (shift >= 63 && byte > 1) {
      return Status(StatusCode::kCorruption, "varint64 overflow");
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return Status::Ok();
    }
    shift += 7;
    if (shift > 63) {
      return Status(StatusCode::kCorruption, "varint64 too long");
    }
  }
  return Truncated("varint64");
}

Status Decoder::GetDouble(double* out) {
  uint64_t bits;
  PILEUS_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::Ok();
}

}  // namespace pileus
