// Sessions and minimum acceptable read timestamps (paper Sections 3.1, 4.4).
//
// All Gets and Puts happen inside a session; the session records exactly the
// state needed to compute, per consistency guarantee, the minimum acceptable
// read timestamp for a key:
//
//   read-my-writes - timestamps of this session's Puts, per key;
//   monotonic      - timestamp of the latest version this session has read,
//                    per key;
//   causal         - the maximum timestamp of anything read or written in
//                    this session (Puts are causally ordered at the primary,
//                    so each node always holds a causally consistent prefix);
//   bounded(t)     - the current time minus t;
//   strong         - served only by an authoritative copy (represented as
//                    Timestamp::Max() plus the RequiresAuthoritative flag);
//   eventual       - zero.
//
// Everything is computed purely client-side; nodes never see session state.

#ifndef PILEUS_SRC_CORE_SESSION_H_
#define PILEUS_SRC_CORE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/timestamp.h"
#include "src/core/consistency.h"
#include "src/core/sla.h"
#include "src/proto/messages.h"

namespace pileus::core {

class Session {
 public:
  explicit Session(Sla default_sla) : default_sla_(std::move(default_sla)) {}

  // A copy is deep: the two sessions share no state afterwards. A move hands
  // over the per-key maps whole; the moved-from session may only be
  // destroyed or assigned to.
  Session(const Session& other);
  Session& operator=(const Session& other);
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  const Sla& default_sla() const { return default_sla_; }

  // Process-unique session identity, used by the audit harness to attribute
  // operations to sessions. It travels with Serialize/Deserialize, so a
  // session handed off to another frontend keeps its identity (and its
  // recorded history stays one per-session stream).
  uint64_t id() const { return id_; }

  // The minimum acceptable read timestamp for reading `key` at `now_us` with
  // the given guarantee. A node qualifies iff its high timestamp is >= this
  // (and, for strong, it is authoritative).
  Timestamp MinReadTimestamp(const Guarantee& guarantee, std::string_view key,
                             MicrosecondCount now_us) const;

  // Minimum acceptable read timestamp for a *range scan*. Per-key state
  // generalizes conservatively: read-my-writes must cover every key this
  // session has written (any of them could fall in the range), monotonic
  // every key it has read.
  Timestamp MinReadTimestampForScan(const Guarantee& guarantee,
                                    MicrosecondCount now_us) const;

  // Bookkeeping called by the client library after each operation.
  void RecordPut(std::string_view key, const Timestamp& timestamp);
  void RecordGet(std::string_view key, const Timestamp& version_timestamp);
  // RecordGet for every item of a scan reply. Items normally come in
  // ascending key order; then one lookup finds the first and the rest are
  // placed by walking forward. An item out of order gets a fresh lookup, so
  // the result never depends on the order.
  void RecordScan(std::span<const proto::VersionPtr> items);

  // Serialization: a session is pure client-side state (per-key put/get
  // timestamps plus the causal maxima), so it can be handed between
  // processes - e.g. a web application continuing a user's session on a
  // different frontend while preserving read-my-writes and monotonic
  // guarantees. The SLA travels with it.
  std::string Serialize() const;
  static Result<Session> Deserialize(std::string_view bytes);

  // Introspection (tests, debugging).
  Timestamp LastPutTimestamp(std::string_view key) const;
  Timestamp LastGetTimestamp(std::string_view key) const;
  const Timestamp& max_read_timestamp() const { return max_read_; }
  const Timestamp& max_write_timestamp() const { return max_write_; }
  size_t tracked_put_keys() const { return keys_->puts.size(); }
  size_t tracked_get_keys() const { return keys_->gets.size(); }

 private:
  using TimestampMap =
      std::pmr::map<std::pmr::string, Timestamp, std::less<>>;
  // The per-key maps. Nothing is ever erased from them, so their nodes and
  // keys come from one arena that is freed whole with the session: a new key
  // costs a pointer bump instead of a heap allocation or two.
  struct KeyMaps {
    KeyMaps() = default;
    KeyMaps(const KeyMaps& other)
        : puts(other.puts, &arena), gets(other.gets, &arena) {}
    KeyMaps& operator=(const KeyMaps&) = delete;

    std::pmr::monotonic_buffer_resource arena;
    // Update timestamps of this session's Puts, per key.
    TimestampMap puts{&arena};
    // Timestamps of the latest version returned to this session, per key.
    TimestampMap gets{&arena};
  };

  static uint64_t NextId();
  // Raises `key`'s entry to `timestamp` (inserting it if new); returns it.
  static TimestampMap::iterator Raise(TimestampMap& map, std::string_view key,
                                      const Timestamp& timestamp);

  Sla default_sla_;
  uint64_t id_ = NextId();
  std::unique_ptr<KeyMaps> keys_ = std::make_unique<KeyMaps>();
  Timestamp max_read_ = Timestamp::Zero();
  Timestamp max_write_ = Timestamp::Zero();
};

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_SESSION_H_
