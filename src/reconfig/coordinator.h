// Lease-based failure detection (paper Section 6.2).
//
// The coordinator is a failure-detection policy that proposes tablet-map
// edits and never applies one itself: it owns no
// configuration, only heartbeat evidence. Some driver (the deterministic
// simulator's heartbeat events, or a timer thread under a real transport)
// re-installs the current map on each member every kHeartbeatPeriodUs — the
// install renews the primary's write lease — and feeds the outcome back
// through OnHeartbeatAck / OnHeartbeatMiss. A primary that misses
// kMissedHeartbeatsToFail consecutive heartbeats is declared dead, and by
// then its lease — granted for exactly that long — has already expired, so
// the old primary has fenced itself even if it is merely partitioned from
// the coordinator rather than crashed. Only after that does
// MaybePlanFailover return the next map: every tablet the dead primary led
// moves to the next epoch, with the reachable member holding the highest
// durable update timestamp as its new primary. The driver installs that map
// on the members (new primary first) and catches up the newly designated
// sync members.
//
// Split-brain safety rests on two facts: epochs are monotonic (a member
// never accepts a map older than its installed one), and the lease duration
// equals the detection threshold (the coordinator cannot promote before the
// old primary's lease has run out under the same clock).

#ifndef PILEUS_SRC_RECONFIG_COORDINATOR_H_
#define PILEUS_SRC_RECONFIG_COORDINATOR_H_

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "src/common/clock.h"
#include "src/common/timestamp.h"
#include "src/tablets/tablet_map.h"

namespace pileus::reconfig {

class FailoverCoordinator {
 public:
  static constexpr MicrosecondCount kHeartbeatPeriodUs =
      MillisecondsToMicroseconds(500);
  // Consecutive missed heartbeats before the primary is declared dead.
  static constexpr int kMissedHeartbeatsToFail = 3;
  // The write lease granted to the primary on every acked heartbeat. By
  // construction it expires exactly when the coordinator would declare the
  // primary dead, so promotion never overlaps a live lease.
  static constexpr MicrosecondCount kLeaseDurationUs =
      kHeartbeatPeriodUs * kMissedHeartbeatsToFail;

  struct Options {
    // How many sync members (besides the primary) each new config should
    // designate when the old one had any, membership permitting.
    int sync_member_target = 1;
  };

  explicit FailoverCoordinator(Options options) : options_(options) {}

  // --- Heartbeat evidence (one call per member per round) ---

  // `durable_timestamp` is the newest update timestamp the member reports as
  // durably applied (its WAL tail); it drives the promotion choice. Any
  // successful contact counts: a driver that just installed a map on a
  // member reports that, so a freshly promoted primary starts with a clean
  // bill of health.
  void OnHeartbeatAck(const std::string& node, MicrosecondCount now_us,
                      const Timestamp& durable_timestamp);
  void OnHeartbeatMiss(const std::string& node, MicrosecondCount now_us);

  // The next map once some tablet's primary has missed
  // kMissedHeartbeatsToFail consecutive heartbeats: each tablet it led
  // gets epoch+1 and, as primary, the promotable member (reachable, has
  // reported a durable timestamp) with the highest durable timestamp. The
  // map version advances by one. Returns nullopt while every primary looks
  // healthy or no dead primary's tablet has a candidate (the caller retries
  // after the next round).
  std::optional<tablets::TabletMap> MaybePlanFailover(
      const tablets::TabletMap& current) const;

  // A deliberate placement move (Section 6.2 SLA-driven reconfiguration):
  // every tablet `target` serves but does not lead gets epoch+1 with
  // `target` as primary, keeping its sync set's size from the members
  // `reachable` accepts. The map version advances by one. Returns nullopt
  // when `target` is a member of no such tablet.
  std::optional<tablets::TabletMap> PlanMove(
      const tablets::TabletMap& current, const std::string& target,
      const std::function<bool(const std::string&)>& reachable) const;

 private:
  struct MemberHealth {
    int consecutive_misses = 0;
    Timestamp durable = Timestamp::Zero();
    bool ever_acked = false;
  };

  bool Reachable(const std::string& node) const;

  Options options_;
  std::map<std::string, MemberHealth> health_;
};

}  // namespace pileus::reconfig

#endif  // PILEUS_SRC_RECONFIG_COORDINATOR_H_
