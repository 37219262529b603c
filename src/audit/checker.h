// Offline consistency checker: replays a recorded History and independently
// verifies every guarantee the client claimed (paper Section 3.2), plus the
// universal properties no reply may ever violate.
//
// The checker recomputes each session's minimum-acceptable-timestamp state
// from the op stream alone - it shares no code with the client's
// Session/DetermineMetRank path, so a bug on either side shows up as a
// violation instead of cancelling out. Rules, per claimed guarantee:
//
//   strong        - served by an authoritative copy AND (when the primary's
//                   clock is the virtual-time clock) the read reflects every
//                   commit of the key that finished before the read began;
//   causal        - the read reflects the newest committed version of the
//                   key at or below the session's max seen timestamp;
//   read-my-writes- value timestamp >= this session's last write of the key;
//   monotonic     - value timestamp >= the newest version of the key this
//                   session has read;
//   bounded(t)    - the read reflects every version of the key committed at
//                   or before (read start - t), and the node's high
//                   timestamp reaches that floor;
//   eventual      - no staleness constraint.
//
// Universal (claim-independent) properties:
//   - every returned (timestamp, value, tombstone-status) matches a version
//     in the committed history (no phantoms);
//   - replies respect the prefix model: the returned version is the newest
//     committed version of the key at or below the advertised high
//     timestamp;
//   - acked writes appear in the committed history (no lost writes);
//   - deleted values never resurface under a session guarantee that covers
//     the deletion (tombstone non-resurrection);
//   - a Range's items all sit at or below the scan's single high timestamp,
//     and that one timestamp satisfies the claimed guarantee's scan floor;
//   - the claimed subSLA's latency bound covers the op's wall time;
//   - the committed history itself is continuous across reconfigurations:
//     commit timestamps never regress and no key@timestamp repeats (a
//     promoted primary must seed its allocator above the old epoch).
//
// Assumptions (documented limits): one authoritative copy (the checker's
// prefix rules are exact only with sync_replica_count == 1 - a synchronous
// replica advertises a clock-based heartbeat it may be microseconds behind);
// range completeness (a key the scan should contain but omitted entirely) is
// not checked; tombstone GC must not run during a recorded history.

#ifndef PILEUS_SRC_AUDIT_CHECKER_H_
#define PILEUS_SRC_AUDIT_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/audit/history.h"

namespace pileus::audit {

enum class ViolationType {
  kPhantomRead = 0,          // Returned version not in the committed history.
  kLostWrite,                // Acked write missing from the committed history.
  kPrefixViolation,          // Reply contradicts the holds-a-prefix model.
  kStaleStrongRead,          // Strong claim from a stale or non-auth copy.
  kCausalRegression,
  kReadMyWritesMiss,
  kMonotonicRegression,
  kBoundedStalenessOverrun,
  kTombstoneResurrection,    // Deleted value came back.
  kRangeBoundExceeded,       // Scan item above the scan's high timestamp.
  kStaleRangeScan,           // Scan high below the claimed guarantee's floor.
  kLatencyOverclaim,         // Claimed subSLA latency bound exceeded.
  kCommitOrderRegression,    // Committed history's timestamps went backwards
                             // (or duplicated a key@timestamp) - a promoted
                             // primary rewrote an earlier epoch's history.
};

std::string_view ViolationTypeName(ViolationType type);

inline constexpr size_t kNoRelatedOp = static_cast<size_t>(-1);

struct Violation {
  ViolationType type = ViolationType::kPhantomRead;
  // The offending op (index into History::ops).
  size_t op_index = 0;
  // The other half of the offending pair: the earlier op in the same session
  // that established the floor this op fell below; kNoRelatedOp when the
  // pair partner is the committed history itself.
  size_t related_op_index = kNoRelatedOp;
  std::string message;

  std::string ToString() const;
};

struct AuditReport {
  std::vector<Violation> violations;
  uint64_t reads_checked = 0;
  uint64_t writes_checked = 0;
  uint64_t ranges_checked = 0;
  // Ops whose claimed subSLA was verified against the recomputed floors.
  uint64_t claims_checked = 0;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Strong claims are verified against the commit order: a strong read must
// reflect every commit of its key that finished before the read began. This
// is exact because every deployment the audit runs records its history on
// the primary's clock, the clock that stamps the commits.
class ConsistencyChecker {
 public:
  AuditReport Check(const History& history) const;
};

}  // namespace pileus::audit

#endif  // PILEUS_SRC_AUDIT_CHECKER_H_
