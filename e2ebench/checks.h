// Correctness checks the benchmark runs after every timed window:
//  - durability: every acked Put, at the highest acked timestamp per key, is
//    present with its value after the primary's directory is reopened;
//  - catch-up: after a final pull the secondary holds the same writes;
//  - routing: each session class stayed on the node its SLA makes best.

#ifndef PILEUS_E2EBENCH_CHECKS_H_
#define PILEUS_E2EBENCH_CHECKS_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/proto/messages.h"

namespace e2ebench {

// The newest acknowledged write per key.
class AckLog {
 public:
  struct Entry {
    pileus::Timestamp timestamp;
    std::string value;
  };

  void Record(std::string_view key, const pileus::Timestamp& timestamp,
              std::string_view value);
  void Merge(const AckLog& other);

  size_t size() const { return entries_.size(); }
  const std::map<std::string, Entry, std::less<>>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, Entry, std::less<>> entries_;
};

struct CheckResult {
  uint64_t checked = 0;
  uint64_t missing = 0;
  std::vector<std::string> examples;  // The first few problems.

  bool ok() const { return missing == 0; }
  std::string Summary(std::string_view what) const;
};

// Looks `key` up in the copy under check.
using KeyLookup = std::function<pileus::proto::GetReply(std::string_view)>;

// Every acked write must be found at its acked timestamp with its value, or
// be superseded by a newer version (a write whose ack was lost may land
// later).
CheckResult CheckAckedWrites(const AckLog& acked, const KeyLookup& lookup);

// Reopens the durable tablet in `directory` (nothing else may have it open)
// and checks every acked write against the recovered state.
pileus::Result<CheckResult> CheckDurableReopen(const std::string& directory,
                                               const AckLog& acked);

// Strong sessions must read from the primary and relaxed sessions from the
// secondary; a share outside these limits means selection flipped nodes.
inline constexpr double kMinStrongPrimaryShare = 0.95;
inline constexpr double kMaxRelaxedPrimaryShare = 0.05;

// Empty when both classes stayed on their node; otherwise what moved.
std::string CheckRouting(double strong_primary_share,
                         double relaxed_primary_share);

}  // namespace e2ebench

#endif  // PILEUS_E2EBENCH_CHECKS_H_
