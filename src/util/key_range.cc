#include "src/util/key_range.h"

#include <algorithm>

namespace pileus {

bool KeyRange::Overlaps(const KeyRange& other) const {
  if (IsEmpty() || other.IsEmpty()) {
    return false;
  }
  const bool this_below_other = !end.empty() && end <= other.begin;
  const bool other_below_this = !other.end.empty() && other.end <= begin;
  return !this_below_other && !other_below_this;
}

std::string KeyRange::ToString() const {
  std::string out = "[";
  out += begin.empty() ? "-inf" : "'" + begin + "'";
  out += ", ";
  out += end.empty() ? "+inf" : "'" + end + "'";
  out += ")";
  return out;
}

bool RangesCoverKeySpace(std::vector<KeyRange> ranges) {
  if (ranges.empty()) {
    return false;
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) {
              return a.begin < b.begin;
            });
  if (!ranges.front().begin.empty()) {
    return false;
  }
  for (size_t i = 0; i + 1 < ranges.size(); ++i) {
    if (ranges[i].end.empty() || ranges[i].end != ranges[i + 1].begin) {
      return false;
    }
  }
  return ranges.back().end.empty();
}

std::vector<KeyRange> SplitKeySpaceEvenly(int n) {
  std::vector<KeyRange> out;
  if (n <= 1) {
    out.push_back(KeyRange::All());
    return out;
  }
  std::string prev;
  for (int i = 1; i < n; ++i) {
    const int pivot = (256 * i) / n;
    std::string boundary(1, static_cast<char>(pivot));
    out.push_back(KeyRange{prev, boundary});
    prev = std::move(boundary);
  }
  out.push_back(KeyRange{prev, ""});
  return out;
}

}  // namespace pileus
