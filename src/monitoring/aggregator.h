// MonitorAggregator: the shared-monitoring control plane's merge engine
// (DESIGN.md Section 12, paper Section 6.1, ROADMAP item 3).
//
// Clients' Monitors and storage nodes send compact per-node condition
// reports; the aggregator merges them into one versioned fleet view (a
// ConditionDigest) that subscribers install as selection priors. At
// millions of clients this turns quadratic every-client-probes-every-node
// waste into a hub: a sample of reporters measures, everyone benefits.
//
// Merge policy, per node:
//   - the latest condition from each reporter is retained, weighted by its
//     sample count and decayed by its age (half-life kHalfLifeUs),
//     so a reporter that went quiet fades out instead of pinning the view;
//   - latency percentiles merge as a weighted average over reporters that
//     actually have latency samples (approximate, but monotone in the
//     inputs and cheap - the digest is a prior, not ground truth);
//   - high timestamps merge as the maximum (they only grow, so the max is a
//     safe staleness bound), carrying the youngest age that observed it;
//   - p_up / queue delay merge as decayed weighted averages; `overloaded`
//     is sticky for up to one half-life.
//
// Report ordering: every reporter stamps its reports with a monotonic
// sequence number (Monitor::state_version). A report whose seq is <= the
// last accepted one from that reporter is rejected, so duplicated or
// reordered reports can never regress the merged state.
//
// Thread safety: fully synchronized; one aggregator may sit behind a
// threaded transport handler and a periodic self-report loop at once.

#ifndef PILEUS_SRC_MONITORING_AGGREGATOR_H_
#define PILEUS_SRC_MONITORING_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/monitoring/digest.h"

namespace pileus::monitoring {

class MonitorAggregator {
 public:
  // A reporter's entry for a node is dropped once it is this old; a node
  // with no live entries disappears from the digest entirely.
  static constexpr MicrosecondCount kEntryTtlUs = SecondsToMicroseconds(120);
  // Entry weight halves every half-life: weight = samples * 2^(-age/hl).
  static constexpr MicrosecondCount kHalfLifeUs = SecondsToMicroseconds(30);

  explicit MonitorAggregator(const Clock* clock) : clock_(clock) {}

  // Merges one report. `seq` must strictly grow per reporter: a stale or
  // duplicate seq is rejected (returns false) and leaves the state
  // untouched. Each condition's ages are re-anchored to receipt time.
  bool Ingest(std::string_view reporter, uint64_t seq,
              const std::vector<NodeCondition>& conditions);

  // The current merged fleet view. Entries past their TTL are excluded;
  // version is the last accepted report's version (0 = nothing ever
  // ingested).
  ConditionDigest Digest() const;

  uint64_t digest_version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }
  uint64_t reports_ingested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reports_ingested_;
  }
  uint64_t reports_rejected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reports_rejected_;
  }
  size_t node_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_.size();
  }

 private:
  // One reporter's latest word on one node, re-anchored to our clock.
  struct ReporterEntry {
    NodeCondition condition;
    MicrosecondCount received_at_us = 0;
  };
  struct NodeState {
    std::map<std::string, ReporterEntry, std::less<>> by_reporter;
  };

  // Drops expired reporter entries and empty nodes. Called with mu_ held.
  void PruneLocked(MicrosecondCount now_us);

  const Clock* clock_;  // Not owned.
  mutable std::mutex mu_;
  std::map<std::string, uint64_t, std::less<>> reporter_seq_;
  std::map<std::string, NodeState, std::less<>> nodes_;
  uint64_t version_ = 0;
  uint64_t reports_ingested_ = 0;
  uint64_t reports_rejected_ = 0;
};

}  // namespace pileus::monitoring

#endif  // PILEUS_SRC_MONITORING_AGGREGATOR_H_
