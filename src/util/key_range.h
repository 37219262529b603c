// Half-open key ranges [begin, end) for tablet partitioning.
//
// Tables are horizontally partitioned into tablets by key range (paper
// Section 4.2, following BigTable). An empty `end` means "unbounded above",
// so the full keyspace is KeyRange{"", ""}.

#ifndef PILEUS_SRC_UTIL_KEY_RANGE_H_
#define PILEUS_SRC_UTIL_KEY_RANGE_H_

#include <string>
#include <string_view>
#include <vector>

namespace pileus {

struct KeyRange {
  std::string begin;  // Inclusive lower bound ("" = lowest key).
  std::string end;    // Exclusive upper bound ("" = unbounded).

  static KeyRange All() { return KeyRange{"", ""}; }

  bool Contains(std::string_view key) const {
    if (key < begin) {
      return false;
    }
    return end.empty() || key < end;
  }

  bool IsEmpty() const { return !end.empty() && begin >= end; }

  bool Overlaps(const KeyRange& other) const;

  // True iff every key of `other` lies in this range.
  bool Covers(const KeyRange& other) const {
    return other.begin >= begin &&
           (end.empty() || (!other.end.empty() && other.end <= end));
  }

  bool operator==(const KeyRange&) const = default;

  std::string ToString() const;
};

// True iff `ranges` exactly tile the whole keyspace: sorted, adjacent, first
// begins at "" and last is unbounded. Used to validate table configurations.
bool RangesCoverKeySpace(std::vector<KeyRange> ranges);

// Splits the full keyspace into `n` ranges using single-byte pivots; helper
// for tests and examples that want a quick multi-tablet table.
std::vector<KeyRange> SplitKeySpaceEvenly(int n);

}  // namespace pileus

#endif  // PILEUS_SRC_UTIL_KEY_RANGE_H_
