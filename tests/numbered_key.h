// NumberedKey("k", 7) == "k7": the keys and values tests generate in loops.
// Built by appending, because GCC 12 reports a false -Wrestrict overlap for
// `"k" + std::to_string(n)` in optimized builds.

#ifndef PILEUS_TESTS_NUMBERED_KEY_H_
#define PILEUS_TESTS_NUMBERED_KEY_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace pileus {

inline std::string NumberedKey(std::string_view prefix, int64_t n) {
  std::string key(prefix);
  key += std::to_string(n);
  return key;
}

}  // namespace pileus

#endif  // PILEUS_TESTS_NUMBERED_KEY_H_
