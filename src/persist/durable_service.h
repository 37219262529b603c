// A StorageNode serving one caller-owned durable tablet.
//
// A thin adapter for callers written when durability was a separate node
// type. It hosts the tablet on a StorageNode, so requests go through the
// node's one dispatcher (admission, fencing, telemetry, merged reads), and
// with group commit on the node defers mutation acks to a GroupCommitter
// until a batch fsync covers them (DESIGN.md Section 13).

#ifndef PILEUS_SRC_PERSIST_DURABLE_SERVICE_H_
#define PILEUS_SRC_PERSIST_DURABLE_SERVICE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/persist/durable_tablet.h"
#include "src/persist/group_commit.h"
#include "src/proto/messages.h"
#include "src/storage/storage_node.h"

namespace pileus::persist {

class DurableStorageService {
 public:
  // `tablet` is not owned and must outlive the service.
  DurableStorageService(std::string table, DurableTablet* tablet,
                        const GroupCommitConfig& group_commit = {});

  // Synchronous dispatch. Under group commit a successful mutation returns
  // once it is durable.
  proto::Message Handle(const proto::Message& request);

  // StorageNode::HandleAsync.
  void HandleAsync(const proto::Message& request,
                   std::function<void(proto::Message)> done) {
    node_.HandleAsync(request, std::move(done));
  }

  // Null when group commit is disabled.
  GroupCommitter* group_committer() { return committer_.get(); }

  uint64_t requests_served() const { return node_.requests_served(); }

 private:
  storage::StorageNode node_;
  std::unique_ptr<GroupCommitter> committer_;  // Destroyed before node_.
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_DURABLE_SERVICE_H_
