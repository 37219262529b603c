// CRC-32 (IEEE 802.3 polynomial, slicing-by-8 tables). Used to validate
// write-ahead log records, checkpoint files and wire frames against torn
// writes, bit rot and desynchronized streams.

#ifndef PILEUS_SRC_UTIL_CRC32_H_
#define PILEUS_SRC_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace pileus {

// CRC of `data`, optionally continuing from a previous value.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace pileus

#endif  // PILEUS_SRC_UTIL_CRC32_H_
