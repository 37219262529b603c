// Shopping cart scenario (paper Section 2.1, Figure 4).
//
// A cart service backed by a geo-replicated table: the primary is "remote"
// (a 60 ms round trip, emulated over the in-process transport) and a local
// secondary replicates from it every 100 ms. The shopping cart SLA asks for
// read-my-writes within 300 ms at utility 1.0, falling back to eventual
// consistency at utility 0.5.
//
// Watch the condition codes: right after an update only the primary can
// satisfy read-my-writes, so reads go remote; once replication catches up
// (and a probe tells the monitor), the same guarantee is served locally.

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

void Show(const char* label, const Result<core::GetResult>& result,
          const core::Sla& sla) {
  if (!result.ok()) {
    std::printf("%-28s -> %s\n", label, result.status().ToString().c_str());
    return;
  }
  const core::GetOutcome& outcome = result.value().outcome;
  std::printf("%-28s -> '%s' via %-7s rtt=%5.1f ms  met %s (utility %.2f)\n",
              label, result.value().value.c_str(),
              outcome.node_name.c_str(),
              MicrosecondsToMilliseconds(outcome.rtt_us),
              outcome.met_rank >= 0
                  ? sla[outcome.met_rank].ToString().c_str()
                  : "none",
              outcome.utility);
}

}  // namespace

int main() {
  // --- Two storage nodes: remote primary + local secondary ---
  storage::StorageNode primary("remote", "eu-west", RealClock::Instance());
  storage::StorageNode local("local", "us-west", RealClock::Instance());
  storage::Tablet::Options primary_options;
  primary_options.is_primary = true;
  (void)primary.AddTablet("carts", primary_options);
  (void)local.AddTablet("carts", storage::Tablet::Options{});

  net::InProcNetwork network;
  network.RegisterEndpoint(
      "remote", [&](const proto::Message& m) { return primary.Handle(m); });
  network.RegisterEndpoint(
      "local", [&](const proto::Message& m) { return local.Handle(m); });

  // Replication: the local secondary pulls from the primary every 100 ms.
  replication::ReplicationAgent agent(
      &local, replication::ReplicationAgent::Options{.table = "carts"});
  auto sync_channel =
      std::shared_ptr<net::Channel>(network.Connect("remote", 30 * kMs));
  replication::ThreadedPuller puller(
      &agent,
      [sync_channel](const proto::SyncRequest& request) {
        return replication::ToSyncReply(
            sync_channel->Call(request, SecondsToMicroseconds(5)));
      },
      100 * kMs);

  // --- Client: shopping cart SLA from the paper's Figure 4 ---
  core::TableView view;
  view.table_name = "carts";
  view.replicas = {
      core::Replica{"remote", true,
                    std::make_shared<core::ChannelConnection>(
                        network.Connect("remote", 30 * kMs),
                        RealClock::Instance())},
      core::Replica{"local", false,
                    std::make_shared<core::ChannelConnection>(
                        network.Connect("local", 1 * kMs),
                        RealClock::Instance())}};
  view.primary_index = 0;
  core::PileusClient::Options client_options;
  // Probe aggressively so the monitor notices the secondary catching up
  // within this short demo (production deployments use ~10 s).
  client_options.monitor.probe_interval_us = 50 * kMs;
  core::PileusClient client(std::move(view), RealClock::Instance(),
                            client_options);
  core::ThreadedProber prober(&client, 50 * kMs);

  const core::Sla sla = core::ShoppingCartSla();
  std::printf("shopping cart SLA: %s\n\n", sla.ToString().c_str());

  core::Session session = client.BeginSession(sla).value();

  // The shopper adds items to her cart.
  (void)client.Put(session, "cart:alice", "wool socks");
  Show("read right after update", client.Get(session, "cart:alice"), sla);

  (void)client.Put(session, "cart:alice", "wool socks, teapot");
  Show("read right after 2nd update", client.Get(session, "cart:alice"),
       sla);

  // Let replication and probing catch up, then read again: the same
  // read-my-writes guarantee now comes from the local secondary.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  Show("read after replication", client.Get(session, "cart:alice"), sla);
  Show("read again (warm monitor)", client.Get(session, "cart:alice"), sla);

  // A different shopper (fresh session) has no writes to read back, so the
  // local node satisfies the top subSLA immediately.
  core::Session bob = client.BeginSession(sla).value();
  Show("new session, cold cart", client.Get(session, "cart:bob"), sla);
  (void)bob;

  std::printf("\nstats: %llu Gets, %llu Puts, %llu messages\n",
              static_cast<unsigned long long>(client.gets_issued()),
              static_cast<unsigned long long>(client.puts_issued()),
              static_cast<unsigned long long>(client.messages_sent()));
  return 0;
}
