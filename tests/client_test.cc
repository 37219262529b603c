// Tests for PileusClient against scripted fake connections: target selection
// plumbing, subSLA-met determination (Figure 9 included), fixed strategies,
// availability retries, parallel fan-out, and monitor/session bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/clock.h"
#include "src/core/client.h"

namespace pileus::core {
namespace {

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

class FakeConnection : public NodeConnection {
 public:
  using Script =
      std::function<TimedReply(const proto::Message&, MicrosecondCount)>;

  explicit FakeConnection(Script script) : script_(std::move(script)) {}

  TimedReply Call(const proto::Message& request,
                  MicrosecondCount timeout_us) override {
    ++calls_;
    last_timeout_us_ = timeout_us;
    return script_(request, timeout_us);
  }

  int calls() const { return calls_; }
  MicrosecondCount last_timeout_us() const { return last_timeout_us_; }

 private:
  Script script_;
  int calls_ = 0;
  MicrosecondCount last_timeout_us_ = -1;
};

// A GetReply TimedReply with the given RTT, high timestamp, and value ts.
TimedReply GetReplyWith(MicrosecondCount rtt, Timestamp high,
                        Timestamp value_ts, bool from_primary = false) {
  proto::GetReply reply;
  reply.found = true;
  reply.value = "value";
  reply.value_timestamp = value_ts;
  reply.high_timestamp = high;
  reply.served_by_primary = from_primary;
  return TimedReply(proto::Message(reply), rtt);
}

TimedReply PutReplyWith(MicrosecondCount rtt, Timestamp ts) {
  proto::PutReply reply;
  reply.timestamp = ts;
  reply.high_timestamp = ts;
  return TimedReply(proto::Message(reply), rtt);
}

TimedReply RangeReplyWith(MicrosecondCount rtt, Timestamp high,
                          std::vector<std::string> keys,
                          bool from_primary = false) {
  proto::RangeReply reply;
  for (const std::string& key : keys) {
    proto::ObjectVersion v;
    v.key = key;
    v.value = "v:" + key;
    v.timestamp = high;
    reply.items.push_back(proto::MakeVersion(std::move(v)));
  }
  reply.high_timestamp = high;
  reply.served_by_primary = from_primary;
  return TimedReply(proto::Message(reply), rtt);
}

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : clock_(SecondsToMicroseconds(1000)) {}

  // Builds a client over three fakes: primary / near / far.
  void Build(PileusClient::Options options,
             FakeConnection::Script primary_script,
             FakeConnection::Script near_script,
             FakeConnection::Script far_script) {
    auto primary = std::make_shared<FakeConnection>(primary_script);
    auto near = std::make_shared<FakeConnection>(near_script);
    auto far = std::make_shared<FakeConnection>(far_script);
    primary_ = primary.get();
    near_ = near.get();
    far_ = far.get();

    TableView view;
    view.table_name = "t";
    view.replicas = {Replica{"primary", true, primary},
                     Replica{"near", false, near},
                     Replica{"far", false, far}};
    view.primary_index = 0;
    ASSERT_TRUE(view.Validate().ok());
    client_ = std::make_unique<PileusClient>(std::move(view), &clock_,
                                             options, &fanout_);
  }

  // Teaches the client's monitor a stable picture of each node.
  void Teach(const std::string& node, MicrosecondCount rtt, Timestamp high) {
    for (int i = 0; i < 10; ++i) {
      client_->monitor().RecordLatency(node, rtt);
    }
    client_->monitor().RecordHighTimestamp(node, high);
  }

  Timestamp Now() const { return Timestamp{clock_.NowMicros(), 0}; }

  ManualClock clock_;
  ThreadFanoutCaller fanout_;
  std::unique_ptr<PileusClient> client_;
  FakeConnection* primary_ = nullptr;
  FakeConnection* near_ = nullptr;
  FakeConnection* far_ = nullptr;
};

TEST_F(ClientTest, TableViewValidation) {
  TableView view;
  EXPECT_FALSE(view.Validate().ok());  // No name, no replicas.
  view.table_name = "t";
  EXPECT_FALSE(view.Validate().ok());  // No replicas.
  auto conn = std::make_shared<FakeConnection>(
      [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  view.replicas = {Replica{"a", false, conn}};
  view.primary_index = 0;
  EXPECT_FALSE(view.Validate().ok());  // Primary not authoritative.
  view.replicas[0].authoritative = true;
  EXPECT_TRUE(view.Validate().ok());
  view.primary_index = 5;
  EXPECT_FALSE(view.Validate().ok());  // Out of range.
}

TEST_F(ClientTest, BeginSessionValidatesSla) {
  Build(PileusClient::Options{},
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  EXPECT_FALSE(client_->BeginSession(Sla()).ok());
  EXPECT_TRUE(client_->BeginSession(ShoppingCartSla()).ok());
}

TEST_F(ClientTest, PutGoesToPrimaryAndUpdatesSession) {
  const Timestamp put_ts{clock_.NowMicros(), 7};
  Build(PileusClient::Options{},
        [&](const proto::Message& m, MicrosecondCount) {
          EXPECT_TRUE(std::holds_alternative<proto::PutRequest>(m));
          return PutReplyWith(2 * kMs, put_ts);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });

  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<PutResult> result = client_->Put(session, "cart", "item");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->timestamp, put_ts);
  EXPECT_EQ(primary_->calls(), 1);
  EXPECT_EQ(near_->calls(), 0);
  EXPECT_EQ(session.LastPutTimestamp("cart"), put_ts);
  // High-timestamp evidence recorded; latency not (a Put's RTT overstates
  // the node's Get latency).
  EXPECT_EQ(client_->monitor().KnownHighTimestamp("primary"), put_ts);
  EXPECT_EQ(client_->monitor().MeanLatency("primary"), 0);
}

TEST_F(ClientTest, PutErrorPropagates) {
  Build(PileusClient::Options{},
        [](const proto::Message&, MicrosecondCount) {
          proto::ErrorReply err;
          err.code = StatusCode::kNotPrimary;
          return TimedReply(proto::Message(err), kMs);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  EXPECT_EQ(client_->Put(session, "k", "v").status().code(),
            StatusCode::kNotPrimary);
  // Semantic errors are final: no blind retry against a node that answered.
  EXPECT_EQ(primary_->calls(), 1);
}

TEST_F(ClientTest, PutRetriesTransportFailureWithJitteredBackoff) {
  const Timestamp put_ts{clock_.NowMicros(), 1};
  std::vector<MicrosecondCount> sleeps;
  // Enough attempts for the nominal backoff to reach its cap:
  // 50, 100, 200, 400, 800, 1600 ms, then 2 s instead of 3.2 s.
  PileusClient::Options options;
  options.put_max_attempts = 8;
  options.sleep_fn = [&sleeps](MicrosecondCount us) { sleeps.push_back(us); };
  int attempt = 0;
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          if (++attempt < options.put_max_attempts) {
            return TimedReply(
                Status(StatusCode::kUnavailable, "connection reset"), kMs);
          }
          return PutReplyWith(2 * kMs, put_ts);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });

  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<PutResult> result = client_->Put(session, "k", "v");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->timestamp, put_ts);
  EXPECT_EQ(primary_->calls(), options.put_max_attempts);
  EXPECT_EQ(session.LastPutTimestamp("k"), put_ts);
  // One jittered wait before each retry: 50-100% of the nominal backoff,
  // which grows by kPutBackoffMultiplier up to kPutBackoffMaxUs.
  ASSERT_EQ(sleeps.size(), 7u);
  MicrosecondCount nominal = PileusClient::kPutBackoffInitialUs;
  for (MicrosecondCount sleep : sleeps) {
    EXPECT_GE(sleep, nominal / 2);
    EXPECT_LE(sleep, nominal);
    nominal = std::min(PileusClient::kPutBackoffMaxUs,
                       static_cast<MicrosecondCount>(
                           static_cast<double>(nominal) *
                           PileusClient::kPutBackoffMultiplier));
  }
  // Failed attempts fed the monitor and tripped the breaker once; the final
  // success closed it.
  EXPECT_LT(client_->monitor().PNodeUp("primary"), 1.0);
  EXPECT_EQ(client_->monitor().breaker_trips(), 1u);
  EXPECT_EQ(client_->monitor().Breaker("primary"),
            Monitor::BreakerState::kClosed);
}

TEST_F(ClientTest, PutGivesUpAfterBoundedAttempts) {
  PileusClient::Options options;
  options.put_max_attempts = 4;
  options.sleep_fn = [](MicrosecondCount) {};
  Build(options,
        [](const proto::Message&, MicrosecondCount) {
          return TimedReply(Status(StatusCode::kTimeout, "silent drop"),
                            10 * kMs);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<PutResult> result = client_->Put(session, "k", "v");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(primary_->calls(), 4);  // Bounded: never an infinite retry loop.
  // Four consecutive transport failures tripped the primary's breaker.
  EXPECT_EQ(client_->monitor().breaker_trips(), 1u);
  EXPECT_DOUBLE_EQ(client_->monitor().PNodeUp("primary"), 0.0);
}

TEST_F(ClientTest, PutRetriesUnavailableErrorReply) {
  // A node that answers with kUnavailable (e.g. mid-restart) is retried just
  // like a transport failure; any other ErrorReply is final.
  const Timestamp put_ts{clock_.NowMicros(), 2};
  int attempt = 0;
  PileusClient::Options options;
  options.sleep_fn = [](MicrosecondCount) {};
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          if (++attempt == 1) {
            proto::ErrorReply err;
            err.code = StatusCode::kUnavailable;
            return TimedReply(proto::Message(err), kMs);
          }
          return PutReplyWith(kMs, put_ts);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "k", "v").ok());
  EXPECT_EQ(primary_->calls(), 2);
}

TEST_F(ClientTest, GetDeliversValueAndTopSubSla) {
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(2 * kMs, Now(), Now(), true);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(1 * kMs, Now(), Now());
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("near", 1 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<GetResult> result = client_->Get(session, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->value, "value");
  EXPECT_EQ(result->outcome.met_rank, 0);
  EXPECT_DOUBLE_EQ(result->outcome.utility, 1.0);
  EXPECT_EQ(result->outcome.target_rank, 0);
  EXPECT_EQ(result->outcome.messages_sent, 1);
  // Session learned the read for monotonic guarantees.
  EXPECT_EQ(session.LastGetTimestamp("k"), result->timestamp);
}

TEST_F(ClientTest, PrimaryStrategyAlwaysReadsPrimary) {
  PileusClient::Options options;
  options.strategy = ReadStrategy::kPrimary;
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(150 * kMs, Now(), Now(), true);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(1 * kMs, Now(), Now());
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->Get(session, "k").ok());
  }
  EXPECT_EQ(primary_->calls(), 10);
  EXPECT_EQ(near_->calls(), 0);
}

TEST_F(ClientTest, RandomStrategySpreadsAcrossReplicas) {
  PileusClient::Options options;
  options.strategy = ReadStrategy::kRandom;
  auto reply_fast = [&](const proto::Message&, MicrosecondCount) {
    return GetReplyWith(1 * kMs, Now(), Now());
  };
  Build(options, reply_fast, reply_fast, reply_fast);
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(client_->Get(session, "k").ok());
  }
  EXPECT_GT(primary_->calls(), 10);
  EXPECT_GT(near_->calls(), 10);
  EXPECT_GT(far_->calls(), 10);
}

TEST_F(ClientTest, ClosestStrategyConvergesToFastestNode) {
  PileusClient::Options options;
  options.strategy = ReadStrategy::kClosest;
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(150 * kMs, Now(), Now(), true);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(1 * kMs, Now(), Now());
        },
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(300 * kMs, Now(), Now());
        });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 300 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->Get(session, "k").ok());
  }
  EXPECT_EQ(near_->calls(), 10);
}

TEST_F(ClientTest, ProbeNodeFeedsMonitor) {
  Build(PileusClient::Options{},
        [&](const proto::Message& m, MicrosecondCount) {
          EXPECT_TRUE(std::holds_alternative<proto::ProbeRequest>(m));
          proto::ProbeReply reply;
          reply.high_timestamp = Timestamp{777, 0};
          reply.is_primary = true;
          return TimedReply(proto::Message(reply), 3 * kMs);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  ASSERT_TRUE(client_->ProbeNode(0).ok());
  EXPECT_EQ(client_->monitor().KnownHighTimestamp("primary"),
            (Timestamp{777, 0}));
  EXPECT_EQ(client_->monitor().MeanLatency("primary"), 3 * kMs);
  EXPECT_FALSE(client_->ProbeNode(9).ok());
}

TEST_F(ClientTest, ProbeStaleNodesSkipsFreshOnes) {
  auto probe_reply = [&](const proto::Message&, MicrosecondCount) {
    proto::ProbeReply reply;
    reply.high_timestamp = Now();
    return TimedReply(proto::Message(reply), kMs);
  };
  Build(PileusClient::Options{}, probe_reply, probe_reply, probe_reply);
  // Make `near` freshly contacted; the others are unknown (stale).
  client_->monitor().RecordLatency("near", kMs);
  client_->ProbeStaleNodes();
  EXPECT_EQ(primary_->calls(), 1);
  EXPECT_EQ(near_->calls(), 0);
  EXPECT_EQ(far_->calls(), 1);
}

TEST_F(ClientTest, DeleteGoesToPrimaryAndUpdatesSession) {
  const Timestamp tombstone_ts{clock_.NowMicros(), 9};
  Build(PileusClient::Options{},
        [&](const proto::Message& m, MicrosecondCount) {
          EXPECT_TRUE(std::holds_alternative<proto::DeleteRequest>(m));
          return PutReplyWith(2 * kMs, tombstone_ts);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<PutResult> result = client_->Delete(session, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->timestamp, tombstone_ts);
  EXPECT_EQ(primary_->calls(), 1);
  // The deletion is a session write: read-my-writes covers it.
  EXPECT_EQ(session.LastPutTimestamp("k"), tombstone_ts);
}

TEST_F(ClientTest, GetRangeDeliversItemsAndOutcome) {
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return RangeReplyWith(150 * kMs, Now(), {"a", "b"}, true);
        },
        [&](const proto::Message& m, MicrosecondCount) {
          EXPECT_TRUE(std::holds_alternative<proto::RangeRequest>(m));
          return RangeReplyWith(1 * kMs, Now(), {"a", "b", "c"});
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 300 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<RangeResult> result = client_->GetRange(session, "a", "z", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->items.size(), 3u);
  EXPECT_EQ(result->items[2]->key, "c");
  EXPECT_EQ(result->outcome.met_rank, 0);
  EXPECT_EQ(result->outcome.node_name, "near");
  // The scan fed per-key monotonic state.
  EXPECT_GT(session.LastGetTimestamp("b"), Timestamp::Zero());
}

TEST_F(ClientTest, GetRangeScanGuaranteeUsesMaxWrite) {
  // After a Put anywhere, a read-my-writes scan needs a node whose high
  // timestamp covers it; a stale node only earns the eventual tier.
  const Timestamp stale{clock_.NowMicros() - SecondsToMicroseconds(100), 0};
  Build(PileusClient::Options{},
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [&](const proto::Message&, MicrosecondCount) {
          return RangeReplyWith(1 * kMs, stale, {"a"});
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 400 * kMs, Now());
  Teach("near", 1 * kMs, stale);
  Teach("far", 350 * kMs, stale);
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  session.RecordPut("zzz", Now());  // A write to a key outside the range.
  Result<RangeResult> result = client_->GetRange(session, "a", "m", 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.met_rank, 1);  // Only eventual.
}

TEST_F(ClientTest, GetRangeFailsOverToAnotherReplica) {
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return RangeReplyWith(150 * kMs, Now(), {"a"}, true);
        },
        [](const proto::Message&, MicrosecondCount) {
          return TimedReply(Status(StatusCode::kUnavailable, "dead"), 2 * kMs);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return RangeReplyWith(40 * kMs, Now(), {"a"});
        });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 40 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<RangeResult> result = client_->GetRange(session, "", "", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->outcome.retried);
  EXPECT_NE(result->outcome.node_name, "near");
}

TEST_F(ClientTest, SharedMonitorIsVisibleAcrossClients) {
  // Section 6.1: co-located clients share monitoring state. Build a second
  // client over the same fakes that uses the first client's monitor.
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(150 * kMs, Now(), Now(), true);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(1 * kMs, Now(), Now());
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 300 * kMs, Now());

  PileusClient::Options shared_options;
  shared_options.shared_monitor = &client_->monitor();
  TableView view;
  view.table_name = "t";
  view.replicas = client_->table().replicas;
  view.primary_index = 0;
  PileusClient second(std::move(view), &clock_, shared_options);
  EXPECT_EQ(&second.monitor(), &client_->monitor());

  // The second client starts warm: it knows `near` is fast without ever
  // having contacted anything.
  EXPECT_EQ(second.monitor().MeanLatency("near"), 1 * kMs);
  Session session = second.BeginSession(ShoppingCartSla()).value();
  Result<GetResult> result = second.Get(session, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.node_name, "near");

  // And its evidence flows back to the first client.
  const uint64_t samples = client_->monitor().samples_recorded();
  EXPECT_GT(samples, 0u);
}

TEST_F(ClientTest, MessageAccounting) {
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return PutReplyWith(kMs, Now());
        },
        [&](const proto::Message&, MicrosecondCount) {
          return GetReplyWith(kMs, Now(), Now());
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 400 * kMs, Now());
  Teach("near", kMs, Now());
  Teach("far", 350 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "k", "v").ok());
  ASSERT_TRUE(client_->Get(session, "other").ok());
  EXPECT_EQ(client_->puts_issued(), 1u);
  EXPECT_EQ(client_->gets_issued(), 1u);
  EXPECT_EQ(client_->messages_sent(), 2u);
}

// --- One read protocol: every case below runs as a Get and as a GetRange ---

enum class ReadOp { kGet, kGetRange };

void PrintTo(ReadOp op, std::ostream* os) {
  *os << (op == ReadOp::kGet ? "Get" : "GetRange");
}

// What the read protocol decided for one op, whichever op it was.
struct ReadResult {
  GetOutcome outcome;
  bool has_data = false;  // The Get found its key, or the scan returned items.
};

class ReadProtocolTest : public ClientTest,
                         public ::testing::WithParamInterface<ReadOp> {
 protected:
  // A well-formed reply to the op under test. A scan reply holds key "k"
  // at the high timestamp.
  TimedReply ReplyWith(MicrosecondCount rtt, Timestamp high, Timestamp value_ts,
                       bool from_primary = false) const {
    return GetParam() == ReadOp::kGet
               ? GetReplyWith(rtt, high, value_ts, from_primary)
               : RangeReplyWith(rtt, high, {"k"}, from_primary);
  }

  // A Get of "k", or a scan of ["k", "l"), under `sla` (the session's
  // default SLA when null).
  Result<ReadResult> Read(Session& session, const Sla* sla = nullptr) {
    const Sla& use = sla != nullptr ? *sla : session.default_sla();
    ReadResult read;
    if (GetParam() == ReadOp::kGet) {
      Result<GetResult> got = client_->Get(session, "k", use);
      if (!got.ok()) {
        return got.status();
      }
      read.outcome = got->outcome;
      read.has_data = got->found;
    } else {
      Result<RangeResult> got = client_->GetRange(session, "k", "l", 0, use);
      if (!got.ok()) {
        return got.status();
      }
      read.outcome = got->outcome;
      read.has_data = !got->items.empty();
    }
    return read;
  }
};

INSTANTIATE_TEST_SUITE_P(Ops, ReadProtocolTest,
                         ::testing::Values(ReadOp::kGet, ReadOp::kGetRange),
                         [](const ::testing::TestParamInfo<ReadOp>& param) {
                           return param.param == ReadOp::kGet ? "Get"
                                                             : "GetRange";
                         });

TEST_P(ReadProtocolTest, SlowReplyMeetsOnlyLowerSubSla) {
  // Password SLA: 400 ms from the primary misses the 150 ms tier but meets
  // the 1 s strong tier.
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(400 * kMs, Now(), Now(), true);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 100 * kMs, Now());
  Session session = client_->BeginSession(PasswordCheckingSla()).value();
  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.met_rank, 2);
  EXPECT_DOUBLE_EQ(result->outcome.utility, 0.25);
}

TEST_P(ReadProtocolTest, StaleReplyMeetsOnlyEventual) {
  const Timestamp stale{clock_.NowMicros() - SecondsToMicroseconds(100), 0};
  Build(PileusClient::Options{},
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(1 * kMs, stale, stale);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 400 * kMs, Now());  // Too slow for the 300 ms targets.
  Teach("near", 1 * kMs, stale);
  Teach("far", 300 * kMs, stale);
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  // A session Put newer than the near node's high timestamp.
  session.RecordPut("k", Timestamp{clock_.NowMicros(), 0});
  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.met_rank, 1);  // Eventual tier.
  EXPECT_DOUBLE_EQ(result->outcome.utility, 0.5);
}

TEST_P(ReadProtocolTest, MetHigherThanTargetedFigure9) {
  // The monitor believes `near` is stale (target = subSLA 2), but the node
  // actually caught up: the reply's high timestamp proves read-my-writes.
  const Timestamp old_high{clock_.NowMicros() - SecondsToMicroseconds(60), 0};
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(150 * kMs, Now(), Now(), true);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(1 * kMs, Now(), Now());
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 350 * kMs, Now());  // Too slow for the 300 ms bound.
  Teach("near", 1 * kMs, old_high);
  Teach("far", 320 * kMs, old_high);
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  session.RecordPut("k", Timestamp{clock_.NowMicros() - 1000, 0});

  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.target_rank, 1);  // Expected only eventual.
  EXPECT_EQ(result->outcome.met_rank, 0);     // Actually got read-my-writes.
  EXPECT_DOUBLE_EQ(result->outcome.utility, 1.0);
}

TEST_P(ReadProtocolTest, NoSubSlaMetYieldsZeroUtility) {
  Build(PileusClient::Options{},
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [&](const proto::Message&, MicrosecondCount) {
          // Answers in 299 ms from a node that has seen nothing.
          return ReplyWith(299 * kMs, Timestamp::Zero(), Timestamp::Zero());
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Teach("primary", 400 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 350 * kMs, Timestamp::Zero());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  session.RecordPut("k", Now());  // Makes rank 0 unmeetable by a stale node.
  // 299 ms still meets the eventual tier.
  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.met_rank, 1);

  // Now an SLA whose tiers are all unmeetable by this reply.
  const Sla tight = Sla()
                        .Add(Guarantee::Eventual(), 100 * kMs, 1.0)
                        .Add(Guarantee::Eventual(), 200 * kMs, 0.5);
  Result<ReadResult> missed = Read(session, &tight);
  ASSERT_TRUE(missed.ok());
  EXPECT_EQ(missed->outcome.met_rank, -1);
  EXPECT_DOUBLE_EQ(missed->outcome.utility, 0.0);
  EXPECT_TRUE(missed->has_data);  // Data still returned.
}

TEST_P(ReadProtocolTest, FailedTargetFallsOverToAnotherReplica) {
  // The chosen node is dead; the availability retry serves the read from
  // the untried replica with the lowest mean latency, within the same call.
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(150 * kMs, Now(), Now(), true);
        },
        [](const proto::Message&, MicrosecondCount) {
          return TimedReply(Status(StatusCode::kUnavailable, "dead"), 2 * kMs);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(40 * kMs, Now(), Now());
        });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 40 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(near_->calls(), 1);
  EXPECT_EQ(primary_->calls(), 0);
  EXPECT_EQ(result->outcome.node_name, "far");
  EXPECT_TRUE(result->outcome.retried);
  EXPECT_EQ(result->outcome.messages_sent, 2);
  EXPECT_EQ(result->outcome.met_rank, 0);
  // The failure was recorded: the dead node's PNodeUp dropped.
  EXPECT_LT(client_->monitor().PNodeUp("near"), 1.0);
}

TEST_P(ReadProtocolTest, ErrorReplyAlsoTriggersFallover) {
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(150 * kMs, Now(), Now(), true);
        },
        [](const proto::Message&, MicrosecondCount) {
          proto::ErrorReply err;
          err.code = StatusCode::kWrongNode;
          return TimedReply(proto::Message(err), 2 * kMs);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(40 * kMs, Now(), Now());
        });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 40 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.node_name, "far");
  // A WrongNode error means the node is up, just misconfigured: PNodeUp
  // stays intact.
  EXPECT_DOUBLE_EQ(client_->monitor().PNodeUp("near"), 1.0);
}

TEST_P(ReadProtocolTest, FalloverDisabledReturnsUnavailable) {
  PileusClient::Options options;
  options.retry_other_replicas_on_failure = false;
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(150 * kMs, Now(), Now(), true);
        },
        [](const proto::Message&, MicrosecondCount) {
          return TimedReply(Status(StatusCode::kUnavailable, "dead"), 2 * kMs);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(40 * kMs, Now(), Now());
        });
  Teach("primary", 150 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 40 * kMs, Now());
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  EXPECT_EQ(Read(session).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(far_->calls(), 0);
}

TEST_P(ReadProtocolTest, AllRepliesFailingIsUnavailable) {
  Build(PileusClient::Options{},
        [](const proto::Message&, MicrosecondCount timeout) {
          return TimedReply(Status(StatusCode::kTimeout, "t"), timeout);
        },
        [](const proto::Message&, MicrosecondCount timeout) {
          return TimedReply(Status(StatusCode::kTimeout, "t"), timeout);
        },
        [](const proto::Message&, MicrosecondCount timeout) {
          return TimedReply(Status(StatusCode::kTimeout, "t"), timeout);
        });
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  EXPECT_EQ(Read(session).status().code(), StatusCode::kUnavailable);
}

TEST_P(ReadProtocolTest, GetTimeoutEqualsSlaMaxLatency) {
  Build(PileusClient::Options{},
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(1 * kMs, Now(), Now(), true);
        },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); },
        [](const proto::Message&, MicrosecondCount) { return TimedReply(); });
  Session session = client_->BeginSession(PasswordCheckingSla()).value();
  ASSERT_TRUE(Read(session).ok());
  EXPECT_EQ(primary_->last_timeout_us(), SecondsToMicroseconds(1));
}

TEST_P(ReadProtocolTest, ParallelFanoutCallsTiedCandidates) {
  PileusClient::Options options;
  options.parallel_fanout = 2;
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(150 * kMs, Now(), Now(), true);
        },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(5 * kMs, Now(), Now());
        },
        [&](const proto::Message&, MicrosecondCount) {
          return ReplyWith(1 * kMs, Now(), Now());
        });
  // near and far tie on expected utility for an eventual SLA.
  Teach("near", 5 * kMs, Now());
  Teach("far", 6 * kMs, Now());
  const Sla sla = Sla().Add(Guarantee::Eventual(), 300 * kMs, 1.0);
  Session session = client_->BeginSession(sla).value();
  Result<ReadResult> result = Read(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.messages_sent, 2);
  EXPECT_EQ(near_->calls() + far_->calls() + primary_->calls(), 2);
  // The faster reply wins.
  EXPECT_EQ(result->outcome.rtt_us,
            result->outcome.node_name == "far" ? 1 * kMs : 5 * kMs);
}

// The degradation ladder (DESIGN.md Section 11) ends at the failure finish:
// when every replica sheds a Get, the client surfaces kUnavailable.
TEST_F(ClientTest, OverloadedReplicasSurfaceUnavailable) {
  telemetry::MetricsRegistry registry;
  PileusClient::Options options;
  options.metrics = &registry;
  bool overloaded = false;
  const auto shed_or = [&](TimedReply reply) {
    return overloaded ? TimedReply(proto::MakeOverloadedReply(5), kMs)
                      : std::move(reply);
  };
  Build(options,
        [&](const proto::Message&, MicrosecondCount) {
          return shed_or(GetReplyWith(2 * kMs, Now(), Now(), true));
        },
        [&](const proto::Message&, MicrosecondCount) {
          return shed_or(GetReplyWith(1 * kMs, Now(), Now()));
        },
        [&](const proto::Message&, MicrosecondCount) {
          return shed_or(GetReplyWith(3 * kMs, Now(), Now()));
        });
  Teach("primary", 2 * kMs, Now());
  Teach("near", 1 * kMs, Now());
  Teach("far", 3 * kMs, Now());
  const Sla sla =
      Sla()
          .Add(Guarantee::Strong(), SecondsToMicroseconds(10), 1.0)
          .Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 0.5);
  Session session = client_->BeginSession(sla).value();
  Result<GetResult> warm = client_->Get(session, "k");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->outcome.met_rank, 0);

  telemetry::Counter* const get_errors =
      registry.GetCounter(telemetry::WithLabels(
          "pileus_client_get_errors_total", {{"table", "t"}}));
  const uint64_t errors_before = get_errors->Value();
  const uint64_t messages_before = client_->messages_sent();
  const double tokens_before = client_->retry_budget().tokens();

  overloaded = true;
  Result<GetResult> result = client_->Get(session, "k");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // The target and both availability retries: each replica shed once.
  EXPECT_EQ(client_->messages_sent() - messages_before, 3u);
  EXPECT_EQ(client_->overload_rejections(), 3u);
  EXPECT_EQ(get_errors->Value(), errors_before + 1);
  // The two retries spent budget, and the failure refilled none of it.
  EXPECT_DOUBLE_EQ(client_->retry_budget().tokens(), tokens_before - 2.0);
}

}  // namespace
}  // namespace pileus::core
