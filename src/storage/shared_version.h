// One committed version as a node holds it (DESIGN.md "One copy of each
// version per node").
//
// A tablet builds each version it accepts or applies exactly once, as an
// immutable object, and hands the same pointer to its versioned store and its
// update log. Neither structure ever mutates a version, so sharing needs no
// copy-on-write; a version lives until the last holder drops it. Scan replies
// are holders too: a node's RangeReply carries the store's pointers, so a
// scan copies no key or value under the node lock, and the transport encodes
// the reply after the lock is released. Copies are made only where a version
// leaves the node by value: Get replies, replication pulls, the audit export.

#ifndef PILEUS_SRC_STORAGE_SHARED_VERSION_H_
#define PILEUS_SRC_STORAGE_SHARED_VERSION_H_

#include "src/proto/messages.h"

namespace pileus::storage {

using VersionPtr = proto::VersionPtr;
using proto::MakeVersion;

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_SHARED_VERSION_H_
