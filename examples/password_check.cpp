// Password checking with speculation (paper Section 2.3, Figure 6).
//
// The classic pattern reads credentials with a weak (fast) read, checks the
// password, and only re-checks against a strong read if the first check
// fails. With a consistency-based SLA the client library makes that decision
// itself: the Get's condition code says whether the data came from an
// authoritative copy, so the application can skip the second read entirely
// when the fast answer was already strong (the paper's "the client is
// informed whether the data was retrieved from a primary replica so that it
// can skip the second, unnecessary read operation").

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/core/client.h"
#include "src/core/prober.h"
#include "src/core/sla.h"
#include "src/net/inproc.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"

using namespace pileus;  // NOLINT

namespace {

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

// Checks `password` for `user` under the password-checking SLA. Returns true
// when authenticated. Prints which path was taken.
bool CheckPassword(core::PileusClient& client, core::Session& session,
                   const std::string& user, const std::string& password) {
  const core::Sla& sla = session.default_sla();
  Result<core::GetResult> fast = client.Get(session, "pw:" + user);
  if (!fast.ok()) {
    std::printf("  [%s] credential store unavailable: %s\n", user.c_str(),
                fast.status().ToString().c_str());
    return false;
  }
  const bool match = fast->found && fast->value == password;
  std::printf("  [%s] fast read via %s (%.1f ms, met %s): %s\n", user.c_str(),
              fast->outcome.node_name.c_str(),
              MicrosecondsToMilliseconds(fast->outcome.rtt_us),
              fast->outcome.met_rank >= 0
                  ? sla[fast->outcome.met_rank].ToString().c_str()
                  : "none",
              match ? "MATCH" : "no match");
  if (match) {
    return true;  // Stale credentials can only deny, never grant, wrongly...
  }
  if (fast->outcome.from_primary) {
    // ...and this answer was already authoritative: no second read needed.
    std::printf("  [%s] answer was authoritative; skipping strong re-check\n",
                user.c_str());
    return false;
  }
  // The fast answer was weak and negative: re-check against the latest
  // credentials before rejecting the login (the user may have just changed
  // their password).
  const core::Sla strong_sla =
      core::Sla().Add(core::Guarantee::Strong(), SecondsToMicroseconds(2),
                      1.0);
  Result<core::GetResult> strong =
      client.Get(session, "pw:" + user, strong_sla);
  if (!strong.ok()) {
    return false;
  }
  const bool strong_match = strong->found && strong->value == password;
  std::printf("  [%s] strong re-check via %s (%.1f ms): %s\n", user.c_str(),
              strong->outcome.node_name.c_str(),
              MicrosecondsToMilliseconds(strong->outcome.rtt_us),
              strong_match ? "MATCH" : "no match");
  return strong_match;
}

}  // namespace

int main() {
  // Primary (180 ms round trip: beyond the SLA's 150 ms fast tier) + local
  // secondary (1 ms), pulling every 80 ms.
  storage::StorageNode primary("primary", "hq", RealClock::Instance());
  storage::StorageNode local("edge", "edge", RealClock::Instance());
  storage::Tablet::Options primary_options;
  primary_options.is_primary = true;
  (void)primary.AddTablet("creds", primary_options);
  (void)local.AddTablet("creds", storage::Tablet::Options{});

  net::InProcNetwork network;
  network.RegisterEndpoint(
      "primary", [&](const proto::Message& m) { return primary.Handle(m); });
  network.RegisterEndpoint(
      "edge", [&](const proto::Message& m) { return local.Handle(m); });

  replication::ReplicationAgent agent(
      &local, replication::ReplicationAgent::Options{.table = "creds"});
  auto sync_channel =
      std::shared_ptr<net::Channel>(network.Connect("primary", 90 * kMs));
  replication::ThreadedPuller puller(
      &agent,
      [sync_channel](const proto::SyncRequest& request) {
        return replication::ToSyncReply(
            sync_channel->Call(request, SecondsToMicroseconds(5)));
      },
      80 * kMs);

  core::TableView view;
  view.table_name = "creds";
  view.replicas = {
      core::Replica{"primary", true,
                    std::make_shared<core::ChannelConnection>(
                        network.Connect("primary", 90 * kMs),
                        RealClock::Instance())},
      core::Replica{"edge", false,
                    std::make_shared<core::ChannelConnection>(
                        network.Connect("edge", 500),
                        RealClock::Instance())}};
  view.primary_index = 0;
  core::PileusClient client(std::move(view), RealClock::Instance());
  core::ThreadedProber prober(&client, 40 * kMs);

  const core::Sla sla = core::PasswordCheckingSla();
  std::printf("password checking SLA: %s\n\n", sla.ToString().c_str());
  core::Session session = client.BeginSession(sla).value();

  // Provision a user and let replication distribute the credentials.
  (void)client.Put(session, "pw:alice", "correct-horse");
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  std::printf("login with the right password:\n");
  const bool ok1 = CheckPassword(client, session, "alice", "correct-horse");
  std::printf("  -> %s\n\n", ok1 ? "AUTHENTICATED" : "DENIED");

  std::printf("login with a wrong password:\n");
  const bool ok2 = CheckPassword(client, session, "alice", "battery-staple");
  std::printf("  -> %s\n\n", ok2 ? "AUTHENTICATED" : "DENIED");

  // Alice changes her password; an immediate login with the new password may
  // hit a stale replica, and the strong re-check rescues it.
  std::printf("password change, then immediate login (fresh session, like a "
              "different frontend):\n");
  (void)client.Put(session, "pw:alice", "battery-staple");
  core::Session frontend = client.BeginSession(sla).value();
  const bool ok3 = CheckPassword(client, frontend, "alice", "battery-staple");
  std::printf("  -> %s\n", ok3 ? "AUTHENTICATED" : "DENIED");
  return ok1 && !ok2 && ok3 ? 0 : 1;
}
