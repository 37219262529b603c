// Tests for session state and minimum acceptable read timestamps (paper
// Section 4.4, Figure 7).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/session.h"

namespace pileus::core {
namespace {

constexpr MicrosecondCount kNow = SecondsToMicroseconds(1000);

class SessionTest : public ::testing::Test {
 protected:
  Session session_{ShoppingCartSla()};
};

TEST_F(SessionTest, DefaultSlaIsStored) {
  EXPECT_EQ(session_.default_sla().size(), 2u);
}

TEST_F(SessionTest, StrongAlwaysRequiresMax) {
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Strong(), "k", kNow),
            Timestamp::Max());
  session_.RecordPut("k", Timestamp{500, 0});
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Strong(), "k", kNow),
            Timestamp::Max());
}

TEST_F(SessionTest, EventualIsAlwaysZero) {
  session_.RecordPut("k", Timestamp{500, 0});
  session_.RecordGet("k", Timestamp{600, 0});
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Eventual(), "k", kNow),
            Timestamp::Zero());
}

TEST_F(SessionTest, ReadMyWritesTracksPutsPerKey) {
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::ReadMyWrites(), "k", kNow),
            Timestamp::Zero());
  session_.RecordPut("k", Timestamp{500, 0});
  session_.RecordPut("other", Timestamp{900, 0});
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::ReadMyWrites(), "k", kNow),
            (Timestamp{500, 0}));
  // Unwritten keys still require nothing.
  EXPECT_EQ(
      session_.MinReadTimestamp(Guarantee::ReadMyWrites(), "unput", kNow),
      Timestamp::Zero());
}

TEST_F(SessionTest, ReadMyWritesKeepsMaxPut) {
  session_.RecordPut("k", Timestamp{500, 0});
  session_.RecordPut("k", Timestamp{700, 0});
  session_.RecordPut("k", Timestamp{600, 0});  // Stale echo; ignored.
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::ReadMyWrites(), "k", kNow),
            (Timestamp{700, 0}));
}

TEST_F(SessionTest, MonotonicTracksGetsPerKey) {
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Monotonic(), "k", kNow),
            Timestamp::Zero());
  session_.RecordGet("k", Timestamp{400, 0});
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Monotonic(), "k", kNow),
            (Timestamp{400, 0}));
  session_.RecordGet("k", Timestamp{450, 0});
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Monotonic(), "k", kNow),
            (Timestamp{450, 0}));
  // Other keys are independent.
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Monotonic(), "j", kNow),
            Timestamp::Zero());
}

TEST_F(SessionTest, CausalIsMaxOfAllReadsAndWrites) {
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Causal(), "k", kNow),
            Timestamp::Zero());
  session_.RecordGet("a", Timestamp{300, 0});
  session_.RecordPut("b", Timestamp{500, 0});
  session_.RecordGet("c", Timestamp{400, 0});
  // Causal min covers every key, even ones never touched.
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Causal(), "zzz", kNow),
            (Timestamp{500, 0}));
}

TEST_F(SessionTest, BoundedSubtractsFromNow) {
  const Guarantee bounded = Guarantee::BoundedSeconds(30);
  EXPECT_EQ(session_.MinReadTimestamp(bounded, "k", kNow),
            (Timestamp{kNow - SecondsToMicroseconds(30), 0}));
}

TEST_F(SessionTest, BoundedClampsAtZero) {
  const Guarantee bounded = Guarantee::BoundedSeconds(30);
  EXPECT_EQ(session_.MinReadTimestamp(bounded, "k", 5),
            (Timestamp{0, 0}));
}

TEST_F(SessionTest, SessionScopeBoundaries) {
  // A fresh session has no memory of a previous one: the paper's YCSB
  // adaptation starts a new session every 400 operations.
  session_.RecordPut("k", Timestamp{500, 0});
  Session fresh(ShoppingCartSla());
  EXPECT_EQ(fresh.MinReadTimestamp(Guarantee::ReadMyWrites(), "k", kNow),
            Timestamp::Zero());
  EXPECT_EQ(fresh.MinReadTimestamp(Guarantee::Causal(), "k", kNow),
            Timestamp::Zero());
}

TEST_F(SessionTest, IntrospectionAccessors) {
  session_.RecordPut("a", Timestamp{100, 0});
  session_.RecordGet("b", Timestamp{200, 0});
  EXPECT_EQ(session_.LastPutTimestamp("a"), (Timestamp{100, 0}));
  EXPECT_EQ(session_.LastGetTimestamp("b"), (Timestamp{200, 0}));
  EXPECT_EQ(session_.max_write_timestamp(), (Timestamp{100, 0}));
  EXPECT_EQ(session_.max_read_timestamp(), (Timestamp{200, 0}));
  EXPECT_EQ(session_.tracked_put_keys(), 1u);
  EXPECT_EQ(session_.tracked_get_keys(), 1u);
}

proto::VersionPtr Item(const std::string& key, int64_t ts) {
  proto::ObjectVersion item;
  item.key = key;
  item.value = "v";
  item.timestamp = Timestamp{ts, 0};
  return proto::MakeVersion(std::move(item));
}

// RecordScan must leave exactly the state that one RecordGet per item
// leaves. Both sessions are copies of one serialized session, so they share
// an id and their serializations can be compared byte for byte.
void ExpectScanMatchesGets(const Session& base,
                           const proto::VersionList& items) {
  Result<Session> by_scan = Session::Deserialize(base.Serialize());
  Result<Session> by_gets = Session::Deserialize(base.Serialize());
  ASSERT_TRUE(by_scan.ok() && by_gets.ok());
  by_scan->RecordScan(items);
  for (const proto::VersionPtr& item : items) {
    by_gets->RecordGet(item->key, item->timestamp);
  }
  EXPECT_EQ(by_scan->Serialize(), by_gets->Serialize());
  EXPECT_EQ(by_scan->tracked_get_keys(), by_gets->tracked_get_keys());
  EXPECT_EQ(by_scan->max_read_timestamp(), by_gets->max_read_timestamp());
  for (const proto::VersionPtr& item : items) {
    EXPECT_EQ(by_scan->LastGetTimestamp(item->key),
              by_gets->LastGetTimestamp(item->key))
        << item->key;
  }
}

TEST_F(SessionTest, RecordScanIntoEmptySession) {
  ExpectScanMatchesGets(session_, {Item("a", 10), Item("b", 30), Item("c", 20)});
  ExpectScanMatchesGets(session_, {});
}

TEST_F(SessionTest, RecordScanInterleavesWithRecordedKeys) {
  session_.RecordGet("b", Timestamp{50, 0});   // Newer than the scan's b.
  session_.RecordGet("d", Timestamp{5, 0});    // Older than the scan's d.
  session_.RecordGet("f", Timestamp{70, 0});   // Between two scanned keys.
  session_.RecordGet("zz", Timestamp{80, 0});  // After the whole scan.
  session_.RecordPut("c", Timestamp{90, 0});
  ExpectScanMatchesGets(session_, {Item("a", 10), Item("b", 20), Item("c", 30),
                                   Item("d", 40), Item("e", 10), Item("g", 60)});

  session_.RecordScan(proto::VersionList{Item("b", 20), Item("d", 40)});
  EXPECT_EQ(session_.LastGetTimestamp("b"), (Timestamp{50, 0}));
  EXPECT_EQ(session_.LastGetTimestamp("d"), (Timestamp{40, 0}));
  EXPECT_EQ(session_.MinReadTimestamp(Guarantee::Monotonic(), "d", kNow),
            (Timestamp{40, 0}));
  EXPECT_EQ(session_.max_read_timestamp(), (Timestamp{80, 0}));
}

TEST_F(SessionTest, RecordScanHandlesOutOfOrderItems) {
  session_.RecordGet("c", Timestamp{15, 0});
  // Descending, a repeated key, and a jump back below recorded keys.
  ExpectScanMatchesGets(session_, {Item("e", 10), Item("a", 40), Item("c", 20),
                                   Item("c", 5), Item("b", 30), Item("d", 1),
                                   Item("a", 50)});
}

TEST_F(SessionTest, SerializeRoundTripPreservesGuaranteeState) {
  session_.RecordPut("cart", Timestamp{500, 3});
  session_.RecordPut("profile", Timestamp{600, 0});
  session_.RecordGet("cart", Timestamp{450, 0});
  session_.RecordGet("news", Timestamp{700, 1});

  const std::string bytes = session_.Serialize();
  Result<Session> restored = Session::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // The guarantee-relevant state is identical: min read timestamps match
  // for every guarantee and key.
  for (const Guarantee& guarantee :
       {Guarantee::Strong(), Guarantee::Causal(), Guarantee::BoundedSeconds(30),
        Guarantee::ReadMyWrites(), Guarantee::Monotonic(),
        Guarantee::Eventual()}) {
    for (const char* key : {"cart", "profile", "news", "untouched"}) {
      EXPECT_EQ(restored->MinReadTimestamp(guarantee, key, kNow),
                session_.MinReadTimestamp(guarantee, key, kNow))
          << guarantee.ToString() << " / " << key;
    }
  }
  // The default SLA travelled with the session.
  EXPECT_EQ(restored->default_sla().size(), session_.default_sla().size());
  EXPECT_EQ(restored->default_sla()[0].consistency,
            session_.default_sla()[0].consistency);
}

TEST_F(SessionTest, CopyIsDeepAndIndependent) {
  session_.RecordPut("cart", Timestamp{500, 0});
  session_.RecordGet("news", Timestamp{700, 0});
  Session copy = session_;
  EXPECT_EQ(copy.id(), session_.id());
  EXPECT_EQ(copy.Serialize(), session_.Serialize());

  // Writes to one show in neither the other's maps nor its maxima.
  copy.RecordPut("cart", Timestamp{900, 0});
  copy.RecordPut("copy-only", Timestamp{950, 0});
  session_.RecordGet("original-only-and-longer-than-sso", Timestamp{800, 0});
  EXPECT_EQ(session_.LastPutTimestamp("cart"), (Timestamp{500, 0}));
  EXPECT_EQ(session_.LastPutTimestamp("copy-only"), Timestamp::Zero());
  EXPECT_EQ(session_.max_write_timestamp(), (Timestamp{500, 0}));
  EXPECT_EQ(copy.LastPutTimestamp("cart"), (Timestamp{900, 0}));
  EXPECT_EQ(copy.LastGetTimestamp("original-only-and-longer-than-sso"),
            Timestamp::Zero());
  EXPECT_EQ(copy.tracked_get_keys(), 1u);
  EXPECT_EQ(session_.tracked_get_keys(), 2u);

  // Copy assignment replaces the target's maps with a deep copy too, and
  // the source outlives nothing the target reads.
  Session assigned(PasswordCheckingSla());
  assigned.RecordPut("stale", Timestamp{1, 0});
  {
    Session source = copy;
    assigned = source;
    source.RecordPut("later", Timestamp{2000, 0});
  }
  EXPECT_EQ(assigned.Serialize(), copy.Serialize());
  EXPECT_EQ(assigned.LastPutTimestamp("stale"), Timestamp::Zero());
  EXPECT_EQ(assigned.LastPutTimestamp("later"), Timestamp::Zero());
}

TEST_F(SessionTest, MovedSessionStillWorks) {
  session_.RecordPut("cart", Timestamp{500, 0});
  session_.RecordScan(proto::VersionList{Item("a", 10), Item("b", 30)});
  const std::string before = session_.Serialize();
  Session moved = std::move(session_);
  EXPECT_EQ(moved.Serialize(), before);
  moved.RecordScan(proto::VersionList{Item("b", 40), Item("c", 20)});
  moved.RecordPut("cart", Timestamp{600, 0});
  EXPECT_EQ(moved.LastGetTimestamp("b"), (Timestamp{40, 0}));
  EXPECT_EQ(moved.LastPutTimestamp("cart"), (Timestamp{600, 0}));
  EXPECT_EQ(moved.tracked_get_keys(), 3u);

  // A moved-from session can be assigned to again and used.
  session_ = std::move(moved);
  session_.RecordGet("d", Timestamp{50, 0});
  EXPECT_EQ(session_.tracked_get_keys(), 4u);
  EXPECT_EQ(session_.max_read_timestamp(), (Timestamp{50, 0}));
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// Serialized bytes with the session id (the varint after the version byte)
// taken out, so sessions built in this process compare with pinned bytes.
std::string WithoutId(std::string_view bytes) {
  size_t end = 1;
  while (end < bytes.size() &&
         (static_cast<unsigned char>(bytes[end]) & 0x80) != 0) {
    ++end;
  }
  return std::string(bytes.substr(0, 1)) + std::string(bytes.substr(end + 1));
}

proto::VersionPtr Item(const std::string& key, int64_t ts, uint32_t logical) {
  proto::ObjectVersion item;
  item.key = key;
  item.value = "v";
  item.timestamp = Timestamp{ts, logical};
  return proto::MakeVersion(std::move(item));
}

// The serialized form is a hand-off format between frontends, so its bytes
// are pinned: a session of id 1 with a three-rank SLA, puts, gets and a scan
// (kPinnedSession), and the same session resumed elsewhere and used again
// (kPinnedResumed).
constexpr std::string_view kPinnedSession =
    "0401030300c0cf24000000000000f03f02808ece1c80b518000000000000e83f"
    "050080897a000000000000d03f020161880e0006757365723132d00f02061f61"
    "2d6b65792d6c6f6e6765722d7468616e2d7369787465656e2d6279746573d804"
    "0001620a0006757365723130640006757365723131f80a040675736572313298"
    "1100027a7ae01201e01201d00f02";
constexpr std::string_view kPinnedResumed =
    "0401030300c0cf24000000000000f03f02808ece1c80b518000000000000e83f"
    "050080897a000000000000d03f030161880e00016db8170306757365723132d0"
    "0f02071f612d6b65792d6c6f6e6765722d7468616e2d7369787465656e2d6279"
    "746573d8040001620a0006757365723130780106757365723131f80a04067573"
    "6572313298110006757365723133a81400027a7ae01202a81400b81703";
// kPinnedSession in wire version 3, which ended with a client-cache floor
// timestamp (here Zero: "0000").
constexpr std::string_view kPinnedSessionV3 =
    "0301030300c0cf24000000000000f03f02808ece1c80b518000000000000e83f"
    "050080897a000000000000d03f020161880e0006757365723132d00f02061f61"
    "2d6b65792d6c6f6e6765722d7468616e2d7369787465656e2d6279746573d804"
    "0001620a0006757365723130640006757365723131f80a040675736572313298"
    "1100027a7ae01201e01201d00f020000";

TEST_F(SessionTest, SerializeMatchesPinnedBytes) {
  Session session(Sla()
                      .Add(Guarantee::ReadMyWrites(), 300000, 1.0)
                      .Add(Guarantee::BoundedSeconds(30), 200000, 0.75)
                      .Add(Guarantee::Eventual(), 1000000, 0.25));
  session.RecordPut("user12", Timestamp{1000, 2});
  session.RecordPut("a", Timestamp{900, 0});
  session.RecordPut("user12", Timestamp{800, 9});
  session.RecordGet("zz", Timestamp{1200, 1});
  session.RecordGet("a-key-longer-than-sixteen-bytes", Timestamp{300, 0});
  session.RecordScan(proto::VersionList{
      Item("user10", 50, 0), Item("user11", 700, 4), Item("user12", 1100, 0),
      Item("b", 5, 0)});
  EXPECT_EQ(ToHex(WithoutId(session.Serialize())),
            ToHex(WithoutId(FromHex(kPinnedSession))));

  Result<Session> resumed = Session::Deserialize(FromHex(kPinnedSession));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  resumed->RecordPut("m", Timestamp{1500, 3});
  resumed->RecordGet("user11", Timestamp{650, 0});
  resumed->RecordScan(proto::VersionList{Item("user13", 1300, 0),
                                         Item("user10", 60, 1),
                                         Item("zz", 1200, 2)});
  EXPECT_EQ(ToHex(resumed->Serialize()), kPinnedResumed);

  // Version 3 bytes are no longer accepted.
  Result<Session> v3 = Session::Deserialize(FromHex(kPinnedSessionV3));
  ASSERT_FALSE(v3.ok());
  EXPECT_EQ(v3.status().code(), StatusCode::kCorruption);
}

TEST_F(SessionTest, SerializeEmptySession) {
  Result<Session> restored = Session::Deserialize(session_.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->tracked_put_keys(), 0u);
  EXPECT_EQ(restored->tracked_get_keys(), 0u);
}

TEST_F(SessionTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Session::Deserialize("").ok());
  EXPECT_FALSE(Session::Deserialize("not a session").ok());
  std::string bytes = session_.Serialize();
  bytes[0] = '\x7f';  // Bad version.
  EXPECT_FALSE(Session::Deserialize(bytes).ok());
  // Truncations never crash and are rejected.
  const std::string full = session_.Serialize();
  for (size_t cut = 1; cut + 1 < full.size(); cut += 2) {
    EXPECT_FALSE(Session::Deserialize(full.substr(0, cut)).ok()) << cut;
  }
  // Trailing junk is rejected.
  EXPECT_FALSE(Session::Deserialize(full + "x").ok());
}

TEST_F(SessionTest, BoundedSlaSurvivesSerialization) {
  Session session(WebApplicationSla());
  Result<Session> restored = Session::Deserialize(session.Serialize());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->default_sla().size(), 4u);
  EXPECT_EQ(restored->default_sla()[0].consistency.bound_us,
            SecondsToMicroseconds(300));
  EXPECT_DOUBLE_EQ(restored->default_sla()[1].utility, 0.000008);
}

// Ordering property across all guarantees: strong >= causal >= {rmw,
// monotonic} >= eventual for any session state (Figure 7's nesting).
TEST_F(SessionTest, GuaranteeStrengthOrdering) {
  session_.RecordPut("k", Timestamp{500, 0});
  session_.RecordGet("k", Timestamp{450, 0});
  session_.RecordGet("j", Timestamp{480, 0});

  const Timestamp strong =
      session_.MinReadTimestamp(Guarantee::Strong(), "k", kNow);
  const Timestamp causal =
      session_.MinReadTimestamp(Guarantee::Causal(), "k", kNow);
  const Timestamp rmw =
      session_.MinReadTimestamp(Guarantee::ReadMyWrites(), "k", kNow);
  const Timestamp monotonic =
      session_.MinReadTimestamp(Guarantee::Monotonic(), "k", kNow);
  const Timestamp eventual =
      session_.MinReadTimestamp(Guarantee::Eventual(), "k", kNow);

  EXPECT_GE(strong, causal);
  EXPECT_GE(causal, rmw);
  EXPECT_GE(causal, monotonic);
  EXPECT_GE(rmw, eventual);
  EXPECT_GE(monotonic, eventual);
}

}  // namespace
}  // namespace pileus::core
