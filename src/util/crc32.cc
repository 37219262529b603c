#include "src/util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pileus {

namespace {

// Slicing-by-8: kTables[0] is the classic byte-at-a-time table for the
// reflected polynomial 0xedb88320; kTables[k][b] is the CRC state after
// byte b is followed by k zero bytes, so eight table lookups advance the
// state by eight input bytes at once. Built at compile time, so the tables
// are ready before any static initializer can checksum anything.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Little-endian load through unsigned char: independent of alignment and of
// the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Advances the inverted CRC state over `n` bytes by table lookups.
uint32_t TableUpdate(const unsigned char* p, size_t n, uint32_t crc) {
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// One 128-bit fold: the low half of `x` times k[0] plus the high half times
// k[1], added to `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Advances the inverted CRC state over `n` bytes, n >= 64 and a multiple of
// 16, by carry-less multiplication. Four 128-bit lanes fold forward 64 bytes
// per step (k1k2 = x^(4*128+32), x^(4*128-32) mod P), collapse into one lane
// that folds 16 bytes per step (k3k4 = x^(128+32), x^(128-32) mod P), then
// 128 bits fold to 64 (k5 = x^64 mod P) and a Barrett reduction (P and
// floor(x^64 / P)) leaves the 32-bit state. Constants are bit-reflected, as
// in the paper and zlib's crc32_simd.c.
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulUpdate(
    const unsigned char* p, size_t n, uint32_t crc) {
  // _mm_set_epi64x takes the high half first.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, load(p));
    x2 = Fold(x2, k1k2, load(p + 16));
    x3 = Fold(x3, k1k2, load(p + 32));
    x4 = Fold(x4, k1k2, load(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold(x1, k3k4, load(p));
  }

  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool HasClmul() {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = seed ^ 0xffffffffu;
#if defined(__x86_64__)
  if (n >= 64 && HasClmul()) {
    const size_t folded = n & ~size_t{15};
    crc = ClmulUpdate(p, folded, crc);
    p += folded;
    n -= folded;
  }
#endif
  return TableUpdate(p, n, crc) ^ 0xffffffffu;
}

namespace internal {

uint32_t Crc32Table(std::string_view data, uint32_t seed) {
  return TableUpdate(reinterpret_cast<const unsigned char*>(data.data()),
                     data.size(), seed ^ 0xffffffffu) ^
         0xffffffffu;
}

}  // namespace internal

}  // namespace pileus
