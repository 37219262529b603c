// A temporary directory for one test: made under /tmp with mkdtemp and
// removed, with everything in it, when the object goes out of scope. When
// the test has failed by then, the directory is kept and its path printed,
// so the files of a failed run can be looked at.

#ifndef PILEUS_TESTS_SCOPED_TEMP_DIR_H_
#define PILEUS_TESTS_SCOPED_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>

namespace pileus {

class ScopedTempDir {
 public:
  // The directory is /tmp/<prefix> followed by six random characters.
  explicit ScopedTempDir(std::string_view prefix) {
    std::string pattern = "/tmp/" + std::string(prefix) + "XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
      return;
    }
    path_ = std::move(pattern);
  }

  ~ScopedTempDir() {
    if (path_.empty()) {
      return;
    }
    if (::testing::Test::HasFailure()) {
      std::cerr << "keeping the failed test's directory " << path_ << "\n";
      return;
    }
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  // Empty when mkdtemp failed (the test has failed then too).
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace pileus

#endif  // PILEUS_TESTS_SCOPED_TEMP_DIR_H_
