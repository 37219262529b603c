#include "src/persist/durable_service.h"

#include <future>

namespace pileus::persist {

DurableStorageService::DurableStorageService(
    std::string table, DurableTablet* tablet,
    const GroupCommitConfig& group_commit)
    : node_("durable", "local", tablet->tablet().clock()) {
  // A fresh node hosts nothing the tablet could overlap.
  (void)node_.AddTablet(table, tablet->shared_tablet());
  committer_ = StartGroupCommit(&node_, group_commit);
}

proto::Message DurableStorageService::Handle(const proto::Message& request) {
  auto reply = std::make_shared<std::promise<proto::Message>>();
  std::future<proto::Message> ready = reply->get_future();
  node_.HandleAsync(request, [reply](proto::Message message) {
    reply->set_value(std::move(message));
  });
  return ready.get();
}

}  // namespace pileus::persist
