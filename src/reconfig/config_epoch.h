// Epoch-stamped table configurations (paper Section 6.2).
//
// A ConfigEpoch makes "primary" a role instead of a node: it names the
// member currently holding the primary role, the full storage membership,
// and the synchronously-updated replicas, all under a monotonically
// increasing epoch number. Each tablet of a tablets::TabletMap carries one,
// so a failover is a map edit that bumps the epochs of the tablets it
// moves. Storage nodes install maps and reject stale ones; every reply they
// send is stamped with the owning tablet's epoch and primary so clients
// learn about a reconfiguration from ordinary traffic instead of an
// out-of-band channel.
//
// Epoch 0 is reserved for "unconfigured": a node that never installed a
// map behaves exactly like the pre-reconfiguration system (static roles
// assigned at tablet creation), which keeps single-node deployments and
// existing tests unchanged.

#ifndef PILEUS_SRC_RECONFIG_CONFIG_EPOCH_H_
#define PILEUS_SRC_RECONFIG_CONFIG_EPOCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/util/codec.h"

namespace pileus::reconfig {

struct ConfigEpoch {
  uint64_t epoch = 0;   // 0 = unconfigured (legacy static placement).
  std::string primary;  // Member currently holding the primary role.
  // Every storage member, including the primary and any crashed members
  // (membership survives a crash; only the roles move).
  std::vector<std::string> members;
  // Synchronously-updated replicas besides the primary (Section 6.4). These
  // hold a complete prefix of the commit order at every instant, so they are
  // both strong-read targets and the preferred promotion candidates.
  std::vector<std::string> sync_members;

  bool operator==(const ConfigEpoch&) const = default;

  bool IsMember(std::string_view node) const;
  bool IsSyncMember(std::string_view node) const;

  // "epoch 3: primary=US members=[England,US,India] sync=[India]".
  std::string ToString() const;
};

// The epoch+1 config with `new_primary` in the role — the one sync-member
// rule shared by failovers and deliberate moves. Up to `sync_target` sync
// members are chosen from the members `reachable` accepts: surviving sync
// members first (no catch-up needed), then the demoted primary (it holds
// the complete prefix), then the rest in membership order.
ConfigEpoch NextEpoch(const ConfigEpoch& current,
                      const std::string& new_primary, size_t sync_target,
                      const std::function<bool(const std::string&)>& reachable);

// Codec helpers shared by the wire format and the WAL config record.
void EncodeConfigEpoch(Encoder& enc, const ConfigEpoch& config);
Status DecodeConfigEpoch(Decoder& dec, ConfigEpoch* config);

}  // namespace pileus::reconfig

#endif  // PILEUS_SRC_RECONFIG_CONFIG_EPOCH_H_
