// One committed version as a node holds it (DESIGN.md "One copy of each
// version per node").
//
// A tablet builds each version it accepts or applies exactly once, as an
// immutable object, and hands the same pointer to its versioned store and its
// update log. Neither structure ever mutates a version, so sharing needs no
// copy-on-write; a version lives until the last structure drops it. Copies
// are made only when a version leaves the node: replies, replication pulls,
// the audit export.

#ifndef PILEUS_SRC_STORAGE_SHARED_VERSION_H_
#define PILEUS_SRC_STORAGE_SHARED_VERSION_H_

#include <memory>
#include <utility>

#include "src/proto/messages.h"

namespace pileus::storage {

using VersionPtr = std::shared_ptr<const proto::ObjectVersion>;

inline VersionPtr MakeVersion(proto::ObjectVersion version) {
  return std::make_shared<const proto::ObjectVersion>(std::move(version));
}

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_SHARED_VERSION_H_
