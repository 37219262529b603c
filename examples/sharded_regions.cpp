// Range-sharded table with per-region primaries (paper Section 4.2).
//
// "Different tablets may be configured with different primary sites." A
// user-profile table is split at "n" into two tablets: users A-M have their
// tablet's primary in the EU, users N-Z in the US; each region also holds a
// secondary of the other region's tablet. A client library routes every operation to the
// owning tablet and runs the normal SLA machinery against that tablet's
// replicas - so EU users get local writes AND the US client still reads
// everything with its preferred guarantees.

#include <cstdio>
#include <memory>
#include <string>

#include "src/core/sharded_client.h"
#include "src/core/sla.h"
#include "src/net/inproc.h"
#include "src/storage/storage_node.h"
#include "src/tablets/tablet_map.h"

using namespace pileus;  // NOLINT

namespace {

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

void Show(const char* label, const Result<core::GetResult>& result) {
  if (!result.ok()) {
    std::printf("%-34s -> %s\n", label, result.status().ToString().c_str());
    return;
  }
  std::printf("%-34s -> '%s' via %-9s rtt=%5.1f ms  subSLA #%d%s\n", label,
              result->value.c_str(), result->outcome.node_name.c_str(),
              MicrosecondsToMilliseconds(result->outcome.rtt_us),
              result->outcome.met_rank + 1,
              result->outcome.from_primary ? " [authoritative]" : "");
}

}  // namespace

int main() {
  // Two nodes, one per region; each hosts both tablets (primary for its own
  // region's key range, secondary for the other).
  storage::StorageNode eu("eu-node", "eu", RealClock::Instance());
  storage::StorageNode us("us-node", "us", RealClock::Instance());

  const KeyRange low{"", "n"};   // A-M: EU-primary tablet.
  const KeyRange high{"n", ""};  // N-Z: US-primary tablet.

  auto add = [](storage::StorageNode& node, const KeyRange& range,
                bool primary) {
    storage::Tablet::Options options;
    options.range = range;
    options.is_primary = primary;
    (void)node.AddTablet("profiles", options);
  };
  add(eu, low, /*primary=*/true);
  add(us, low, /*primary=*/false);
  add(us, high, /*primary=*/true);
  add(eu, high, /*primary=*/false);

  // The client's routing map: each tablet lists its primary first. The
  // nodes never install a map, so the client never refreshes this one.
  tablets::TabletMap map;
  map.table = "profiles";
  map.version = 1;
  auto tablet = [](const KeyRange& range, const char* primary,
                   const char* secondary) {
    tablets::TabletInfo info;
    info.range = range;
    info.config.epoch = 1;
    info.config.primary = primary;
    info.config.members = {primary, secondary};
    return info;
  };
  map.tablets = {tablet(low, "eu-node", "us-node"),
                 tablet(high, "us-node", "eu-node")};

  // Transatlantic link: 80 ms round trip; local access 1 ms.
  net::InProcNetwork network;
  network.RegisterEndpoint(
      "eu-node", [&](const proto::Message& m) { return eu.Handle(m); });
  network.RegisterEndpoint(
      "us-node", [&](const proto::Message& m) { return us.Handle(m); });

  // A client in the US: its connection to eu-node pays the WAN round trip.
  core::ShardedClient::RoutingOptions routing;
  routing.connect = [&](const std::string& node) {
    const MicrosecondCount delay = node == "eu-node" ? 40 * kMs : 500;
    return std::make_shared<core::ChannelConnection>(
        network.Connect(node, delay), RealClock::Instance());
  };

  Result<std::unique_ptr<core::ShardedClient>> created =
      core::ShardedClient::Create(std::move(map), RealClock::Instance(),
                                  core::PileusClient::Options{},
                                  std::move(routing));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(created).value();

  const core::Sla sla = core::ShoppingCartSla();
  std::printf("US client, sharded profiles table, SLA: %s\n\n",
              sla.ToString().c_str());
  core::Session session = client->BeginSession(sla).value();

  // Writes route to each shard's own primary: "zoe" is local to the US
  // client, "alice" pays the transatlantic trip.
  (void)client->Put(session, "zoe", "us-profile");
  (void)client->Put(session, "alice", "eu-profile");
  std::printf("wrote zoe (US-primary shard) and alice (EU-primary shard)\n\n");

  Show("read zoe  (own region's shard)", client->Get(session, "zoe"));
  Show("read alice (remote shard)", client->Get(session, "alice"));

  // Read-my-writes for alice forces the EU primary until the US secondary
  // catches up; a key never written by this session can be read locally
  // right away.
  Show("read bob   (never written)", client->Get(session, "bob"));

  std::printf("\ntablets: %zu; 'alice' routes to the tablet of range %s\n",
              client->shard_count(),
              client->shard_range(0).ToString().c_str());
  return 0;
}
