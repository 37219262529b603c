#include "src/audit/checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace pileus::audit {

namespace {

using core::AuditOp;
using core::Consistency;
using core::OpRecord;

// A timestamp plus the op that produced it, so violations can cite the pair.
struct Stamped {
  Timestamp ts = Timestamp::Zero();
  size_t op = kNoRelatedOp;
};

void Raise(Stamped* slot, const Timestamp& ts, size_t op) {
  if (ts > slot->ts) {
    *slot = Stamped{ts, op};
  }
}

// Per-session floors, recomputed from the op stream exactly as the paper's
// Section 4.4 rules define them (independently of core::Session).
struct SessionState {
  std::map<std::string, Stamped, std::less<>> last_put;
  std::map<std::string, Stamped, std::less<>> last_read;
  // Deletions this session performed / observed (not-found replies carrying
  // a tombstone timestamp), per key.
  std::map<std::string, Stamped, std::less<>> own_delete;
  std::map<std::string, Stamped, std::less<>> seen_tombstone;
  Stamped max_read;
  Stamped max_write;

  Stamped MaxSeen() const {
    return max_read.ts >= max_write.ts ? max_read : max_write;
  }
};

const Stamped* FindStamped(
    const std::map<std::string, Stamped, std::less<>>& map,
    std::string_view key) {
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

// The committed history, indexed for the checker's lookups.
class GroundTruth {
 public:
  explicit GroundTruth(const std::vector<proto::ObjectVersion>& log)
      : log_(log) {
    std::vector<size_t> order(log.size());
    for (size_t i = 0; i < log.size(); ++i) {
      order[i] = i;
    }
    // Exports are already ascending; stable-sort tolerates hand-built
    // histories in tests.
    std::stable_sort(order.begin(), order.end(), [&log](size_t a, size_t b) {
      return log[a].timestamp < log[b].timestamp;
    });
    for (size_t index : order) {
      by_key_[log[index].key].push_back(index);
    }
  }

  // The committed version of `key` at exactly `ts`; null when absent.
  const proto::ObjectVersion* Find(std::string_view key,
                                   const Timestamp& ts) const {
    const std::vector<size_t>* chain = Chain(key);
    if (chain == nullptr) {
      return nullptr;
    }
    auto it = std::lower_bound(chain->begin(), chain->end(), ts,
                               [this](size_t index, const Timestamp& t) {
                                 return log_[index].timestamp < t;
                               });
    if (it == chain->end() || log_[*it].timestamp != ts) {
      return nullptr;
    }
    return &log_[*it];
  }

  // The newest committed version of `key` with timestamp <= ceiling; null
  // when none exists.
  const proto::ObjectVersion* LatestAtOrBelow(std::string_view key,
                                              const Timestamp& ceiling) const {
    const std::vector<size_t>* chain = Chain(key);
    if (chain == nullptr) {
      return nullptr;
    }
    auto it = std::upper_bound(chain->begin(), chain->end(), ceiling,
                               [this](const Timestamp& t, size_t index) {
                                 return t < log_[index].timestamp;
                               });
    if (it == chain->begin()) {
      return nullptr;
    }
    return &log_[*std::prev(it)];
  }

 private:
  const std::vector<size_t>* Chain(std::string_view key) const {
    auto it = by_key_.find(key);
    return it == by_key_.end() ? nullptr : &it->second;
  }

  const std::vector<proto::ObjectVersion>& log_;
  // Per-key log indices, ascending by timestamp.
  std::map<std::string, std::vector<size_t>, std::less<>> by_key_;
};

}  // namespace

std::string_view ViolationTypeName(ViolationType type) {
  switch (type) {
    case ViolationType::kPhantomRead:
      return "phantom-read";
    case ViolationType::kLostWrite:
      return "lost-write";
    case ViolationType::kPrefixViolation:
      return "prefix-violation";
    case ViolationType::kStaleStrongRead:
      return "stale-strong-read";
    case ViolationType::kCausalRegression:
      return "causal-regression";
    case ViolationType::kReadMyWritesMiss:
      return "read-my-writes-miss";
    case ViolationType::kMonotonicRegression:
      return "monotonic-regression";
    case ViolationType::kBoundedStalenessOverrun:
      return "bounded-staleness-overrun";
    case ViolationType::kTombstoneResurrection:
      return "tombstone-resurrection";
    case ViolationType::kRangeBoundExceeded:
      return "range-bound-exceeded";
    case ViolationType::kStaleRangeScan:
      return "stale-range-scan";
    case ViolationType::kLatencyOverclaim:
      return "latency-overclaim";
    case ViolationType::kCommitOrderRegression:
      return "commit-order-regression";
  }
  return "unknown";
}

std::string Violation::ToString() const {
  std::ostringstream os;
  os << "op #" << op_index << " [" << ViolationTypeName(type) << "] "
     << message;
  if (related_op_index != kNoRelatedOp) {
    os << " (pair: op #" << related_op_index << ")";
  }
  return os.str();
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << "audit: " << reads_checked << " reads, " << writes_checked
     << " writes, " << ranges_checked << " ranges, " << claims_checked
     << " subSLA claims checked; " << violations.size() << " violation"
     << (violations.size() == 1 ? "" : "s");
  for (const Violation& violation : violations) {
    os << "\n  " << violation.ToString();
  }
  return os.str();
}

AuditReport ConsistencyChecker::Check(const History& history) const {
  AuditReport report;
  const GroundTruth gt(history.ground_truth);
  const bool complete = history.ground_truth_complete;
  std::map<uint64_t, SessionState> sessions;

  const auto add = [&report](ViolationType type, size_t op_index,
                             size_t related, std::string message) {
    report.violations.push_back(
        Violation{type, op_index, related, std::move(message)});
  };

  // A read claiming a floor derived from the committed history satisfies it
  // when its version timestamp reaches the required version - or when the
  // required version is a deletion and the reply said not-found (the node
  // may have GC'd or never held anything newer; "gone" is a correct answer).
  const auto satisfies = [](const OpRecord& op,
                            const proto::ObjectVersion* required) {
    if (required == nullptr || op.value_timestamp >= required->timestamp) {
      return true;
    }
    return required->is_tombstone && !op.found;
  };

  // Commit-order continuity (reconfiguration safety, Section 6.2): the
  // committed history is each epoch's primary log concatenated in commit
  // order, so update timestamps must never move backwards - a promoted
  // primary assigning a timestamp at or below an earlier epoch's commits
  // would rewrite history - and no two commits may share a key@timestamp
  // (same-timestamp entries are legal only across split tablets of one
  // node, which assign timestamps independently to disjoint keys).
  if (complete) {
    std::set<std::tuple<std::string_view, int64_t, uint32_t>> seen;
    for (size_t i = 0; i < history.ground_truth.size(); ++i) {
      const proto::ObjectVersion& v = history.ground_truth[i];
      if (i > 0 && v.timestamp < history.ground_truth[i - 1].timestamp) {
        add(ViolationType::kCommitOrderRegression, 0, kNoRelatedOp,
            "committed history regresses at entry " + std::to_string(i) +
                ": '" + v.key + "' at " + v.timestamp.ToString() +
                " follows " + history.ground_truth[i - 1].timestamp.ToString());
      }
      if (!seen.emplace(v.key, v.timestamp.physical_us, v.timestamp.sequence)
               .second) {
        add(ViolationType::kCommitOrderRegression, 0, kNoRelatedOp,
            "committed history holds '" + v.key + "' twice at " +
                v.timestamp.ToString());
      }
    }
  }

  for (size_t i = 0; i < history.ops.size(); ++i) {
    const OpRecord& op = history.ops[i];
    SessionState& ss = sessions[op.session_id];

    switch (op.op) {
      case AuditOp::kPut:
      case AuditOp::kDelete: {
        if (!op.ok) {
          // Unacked: the session learned nothing (though the write may still
          // have committed - the ground truth, not this record, decides).
          break;
        }
        ++report.writes_checked;
        const bool is_delete = op.op == AuditOp::kDelete;
        if (complete) {
          const proto::ObjectVersion* committed =
              gt.Find(op.key, op.write_timestamp);
          if (committed == nullptr) {
            add(ViolationType::kLostWrite, i, kNoRelatedOp,
                "acked write of '" + op.key + "' at " +
                    op.write_timestamp.ToString() +
                    " is absent from the committed history");
          } else if (committed->is_tombstone != is_delete) {
            add(ViolationType::kLostWrite, i, kNoRelatedOp,
                "committed record for '" + op.key + "' at " +
                    op.write_timestamp.ToString() +
                    " disagrees about being a tombstone");
          }
        }
        Raise(&ss.last_put[op.key], op.write_timestamp, i);
        Raise(&ss.max_write, op.write_timestamp, i);
        if (is_delete) {
          // Only own_delete: an own write binds read-my-writes-class
          // guarantees, while seen_tombstone binds monotonic reads and must
          // come from an actual read (monotonic promises nothing about a
          // session's own writes).
          Raise(&ss.own_delete[op.key], op.write_timestamp, i);
        }
        break;
      }

      case AuditOp::kGet: {
        if (!op.ok) {
          break;
        }
        ++report.reads_checked;
        const Timestamp observed = op.value_timestamp;

        // Universal: the returned version must exist in the committed
        // history with the same value and tombstone-status.
        const proto::ObjectVersion* version = nullptr;
        if (!observed.IsZero()) {
          version = gt.Find(op.key, observed);
          if (version == nullptr) {
            if (complete) {
              add(ViolationType::kPhantomRead, i, kNoRelatedOp,
                  "read of '" + op.key + "' returned version " +
                      observed.ToString() + " that was never committed");
            }
          } else if (op.found && version->is_tombstone) {
            add(ViolationType::kTombstoneResurrection, i, kNoRelatedOp,
                "read of '" + op.key +
                    "' returned a value at a tombstone's timestamp " +
                    observed.ToString());
          } else if (op.found && version->value != op.value) {
            add(ViolationType::kPhantomRead, i, kNoRelatedOp,
                "read of '" + op.key + "' at " + observed.ToString() +
                    " returned a value differing from the committed one");
          } else if (!op.found && !version->is_tombstone) {
            add(ViolationType::kPhantomRead, i, kNoRelatedOp,
                "not-found reply for '" + op.key +
                    "' cites live version " + observed.ToString());
          }
        }

        // Universal: the serving node holds a prefix, so the returned
        // version is the newest committed one at or below its high
        // timestamp.
        if (complete && !op.high_timestamp.IsZero()) {
          if (observed > op.high_timestamp) {
            add(ViolationType::kPrefixViolation, i, kNoRelatedOp,
                "read of '" + op.key + "' returned version " +
                    observed.ToString() +
                    " above the node's high timestamp " +
                    op.high_timestamp.ToString());
          } else {
            const proto::ObjectVersion* newest =
                gt.LatestAtOrBelow(op.key, op.high_timestamp);
            if (newest != nullptr && newest->timestamp > observed) {
              add(ViolationType::kPrefixViolation, i, kNoRelatedOp,
                  "node advertised high timestamp " +
                      op.high_timestamp.ToString() + " for '" + op.key +
                      "' but returned " + observed.ToString() +
                      " while the prefix contains " +
                      newest->timestamp.ToString());
            }
          }
        }

        // The claimed subSLA, re-verified from independently recomputed
        // session floors.
        if (op.claimed_met_rank >= 0) {
          ++report.claims_checked;
          if (op.claimed_latency_bound_us > 0 &&
              op.end_us - op.begin_us > op.claimed_latency_bound_us) {
            add(ViolationType::kLatencyOverclaim, i, kNoRelatedOp,
                "claimed subSLA allows " +
                    std::to_string(op.claimed_latency_bound_us) +
                    "us but the op took " +
                    std::to_string(op.end_us - op.begin_us) + "us");
          }
          switch (op.claimed_guarantee.consistency) {
            case Consistency::kStrong: {
              if (!op.from_primary) {
                add(ViolationType::kStaleStrongRead, i, kNoRelatedOp,
                    "strong claim served by a non-authoritative node '" +
                        op.node + "'");
              } else if (complete) {
                // Every commit of the key that finished before the read
                // began must be reflected (commit timestamps are primary
                // clock time, the history's time base).
                const proto::ObjectVersion* required = gt.LatestAtOrBelow(
                    op.key, Timestamp{op.begin_us, UINT32_MAX});
                if (!satisfies(op, required)) {
                  add(ViolationType::kStaleStrongRead, i, kNoRelatedOp,
                      "strong read of '" + op.key + "' returned " +
                          observed.ToString() + " but " +
                          required->timestamp.ToString() +
                          " committed before the read began");
                }
              }
              break;
            }
            case Consistency::kCausal: {
              const Stamped max_seen = ss.MaxSeen();
              if (complete && !max_seen.ts.IsZero()) {
                const proto::ObjectVersion* required =
                    gt.LatestAtOrBelow(op.key, max_seen.ts);
                if (!satisfies(op, required)) {
                  add(ViolationType::kCausalRegression, i, max_seen.op,
                      "causal read of '" + op.key + "' returned " +
                          observed.ToString() +
                          " below the key's newest version " +
                          required->timestamp.ToString() +
                          " within the session's causal past " +
                          max_seen.ts.ToString());
                }
              }
              break;
            }
            case Consistency::kReadMyWrites: {
              const Stamped* put = FindStamped(ss.last_put, op.key);
              if (put != nullptr && observed < put->ts) {
                add(ViolationType::kReadMyWritesMiss, i, put->op,
                    "read of '" + op.key + "' returned " +
                        observed.ToString() +
                        " missing this session's own write at " +
                        put->ts.ToString());
              }
              break;
            }
            case Consistency::kMonotonic: {
              const Stamped* read = FindStamped(ss.last_read, op.key);
              if (read != nullptr && observed < read->ts) {
                add(ViolationType::kMonotonicRegression, i, read->op,
                    "read of '" + op.key + "' went backwards: " +
                        observed.ToString() + " after the session read " +
                        read->ts.ToString());
              }
              break;
            }
            case Consistency::kBounded: {
              const Timestamp floor{
                  std::max<MicrosecondCount>(
                      0, op.begin_us - op.claimed_guarantee.bound_us),
                  0};
              if (!op.high_timestamp.IsZero() &&
                  op.high_timestamp < floor) {
                add(ViolationType::kBoundedStalenessOverrun, i, kNoRelatedOp,
                    "bounded claim but the node's high timestamp " +
                        op.high_timestamp.ToString() +
                        " is older than the staleness floor " +
                        floor.ToString());
              } else if (complete) {
                const proto::ObjectVersion* required =
                    gt.LatestAtOrBelow(op.key, floor);
                if (!satisfies(op, required)) {
                  add(ViolationType::kBoundedStalenessOverrun, i,
                      kNoRelatedOp,
                      "bounded read of '" + op.key + "' returned " +
                          observed.ToString() + " older than version " +
                          required->timestamp.ToString() +
                          " committed before the staleness floor");
                }
              }
              break;
            }
            case Consistency::kEventual:
              break;
          }

          // Tombstone non-resurrection: a found=true read below a deletion
          // the claimed guarantee covers brings a deleted value back.
          if (op.found) {
            const Consistency c = op.claimed_guarantee.consistency;
            const bool covers_observed = c == Consistency::kStrong ||
                                         c == Consistency::kCausal ||
                                         c == Consistency::kMonotonic;
            const bool covers_own = c == Consistency::kStrong ||
                                    c == Consistency::kCausal ||
                                    c == Consistency::kReadMyWrites;
            Stamped deletion;
            if (covers_observed) {
              if (const Stamped* seen =
                      FindStamped(ss.seen_tombstone, op.key)) {
                if (seen->ts > deletion.ts) {
                  deletion = *seen;
                }
              }
            }
            if (covers_own) {
              if (const Stamped* own = FindStamped(ss.own_delete, op.key)) {
                if (own->ts > deletion.ts) {
                  deletion = *own;
                }
              }
            }
            if (!deletion.ts.IsZero() && observed < deletion.ts) {
              add(ViolationType::kTombstoneResurrection, i, deletion.op,
                  "read of '" + op.key + "' resurrected version " +
                      observed.ToString() + " deleted at " +
                      deletion.ts.ToString());
            }
          }
        }

        // Session bookkeeping mirrors the client's RecordGet: every
        // observed version counts, including tombstone timestamps on
        // not-found replies, regardless of which (if any) subSLA was met.
        if (!observed.IsZero()) {
          Raise(&ss.last_read[op.key], observed, i);
          Raise(&ss.max_read, observed, i);
          if (!op.found) {
            Raise(&ss.seen_tombstone[op.key], observed, i);
          }
        }
        break;
      }

      case AuditOp::kRange: {
        if (!op.ok) {
          break;
        }
        ++report.ranges_checked;

        for (const proto::ObjectVersion& item : op.items) {
          if (complete) {
            const proto::ObjectVersion* version =
                gt.Find(item.key, item.timestamp);
            if (version == nullptr) {
              add(ViolationType::kPhantomRead, i, kNoRelatedOp,
                  "scan returned '" + item.key + "' at version " +
                      item.timestamp.ToString() + " that was never committed");
            } else if (version->is_tombstone) {
              add(ViolationType::kTombstoneResurrection, i, kNoRelatedOp,
                  "scan listed deleted key '" + item.key + "'");
            } else if (version->value != item.value) {
              add(ViolationType::kPhantomRead, i, kNoRelatedOp,
                  "scan returned '" + item.key +
                      "' with a value differing from the committed one");
            }
          }
          // The one-timestamp-bounds-the-scan property: no item may be
          // newer than the advertised high timestamp, and each item must be
          // the newest committed version of its key within that prefix.
          if (!op.high_timestamp.IsZero()) {
            if (item.timestamp > op.high_timestamp) {
              add(ViolationType::kRangeBoundExceeded, i, kNoRelatedOp,
                  "scan item '" + item.key + "' at " +
                      item.timestamp.ToString() +
                      " is above the scan's high timestamp " +
                      op.high_timestamp.ToString());
            } else if (complete) {
              const proto::ObjectVersion* newest =
                  gt.LatestAtOrBelow(item.key, op.high_timestamp);
              if (newest != nullptr && newest->timestamp > item.timestamp) {
                add(ViolationType::kPrefixViolation, i, kNoRelatedOp,
                    "scan item '" + item.key + "' at " +
                        item.timestamp.ToString() +
                        " is staler than the prefix at the scan's high "
                        "timestamp allows (" +
                        newest->timestamp.ToString() + ")");
              }
            }
          }
        }

        if (op.claimed_met_rank >= 0) {
          ++report.claims_checked;
          if (op.claimed_latency_bound_us > 0 &&
              op.end_us - op.begin_us > op.claimed_latency_bound_us) {
            add(ViolationType::kLatencyOverclaim, i, kNoRelatedOp,
                "claimed subSLA allows " +
                    std::to_string(op.claimed_latency_bound_us) +
                    "us but the scan took " +
                    std::to_string(op.end_us - op.begin_us) + "us");
          }
          // The scan floors generalize per-key state conservatively
          // (Session::MinReadTimestampForScan); the scan's single high
          // timestamp must reach them.
          Stamped floor;
          ViolationType type = ViolationType::kStaleRangeScan;
          switch (op.claimed_guarantee.consistency) {
            case Consistency::kStrong:
              if (!op.from_primary) {
                add(ViolationType::kStaleRangeScan, i, kNoRelatedOp,
                    "strong scan claim served by a non-authoritative node '" +
                        op.node + "'");
              }
              break;
            case Consistency::kCausal:
              floor = ss.MaxSeen();
              break;
            case Consistency::kReadMyWrites:
              floor = ss.max_write;
              break;
            case Consistency::kMonotonic:
              floor = ss.max_read;
              break;
            case Consistency::kBounded:
              floor.ts = Timestamp{
                  std::max<MicrosecondCount>(
                      0, op.begin_us - op.claimed_guarantee.bound_us),
                  0};
              break;
            case Consistency::kEventual:
              break;
          }
          if (!floor.ts.IsZero() && op.high_timestamp < floor.ts) {
            add(type, i, floor.op,
                "scan's high timestamp " + op.high_timestamp.ToString() +
                    " is below the claimed guarantee's floor " +
                    floor.ts.ToString());
          }
        }

        // Bookkeeping: the client records every returned item.
        for (const proto::ObjectVersion& item : op.items) {
          Raise(&ss.last_read[item.key], item.timestamp, i);
          Raise(&ss.max_read, item.timestamp, i);
        }
        break;
      }
    }
  }
  return report;
}

}  // namespace pileus::audit
