// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320). Used to validate
// write-ahead log records, checkpoint files and wire frames against torn
// writes, bit rot and desynchronized streams.
//
// On x86-64 CPUs with PCLMULQDQ and SSE4.1, inputs of 64 bytes or more are
// folded by carry-less multiplication (Gopal et al., Intel 2009); shorter
// inputs, the sub-16-byte tail and other CPUs use slicing-by-8 tables. Both
// paths compute the same function, so every stored or sent byte is the same.

#ifndef PILEUS_SRC_UTIL_CRC32_H_
#define PILEUS_SRC_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace pileus {

// CRC of `data`, optionally continuing from a previous value.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

namespace internal {

// The slicing-by-8 path alone, whatever the CPU: what Crc32 computes on a
// CPU without PCLMULQDQ. Exposed so tests cover it on every host.
uint32_t Crc32Table(std::string_view data, uint32_t seed = 0);

}  // namespace internal

}  // namespace pileus

#endif  // PILEUS_SRC_UTIL_CRC32_H_
