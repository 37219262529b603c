// pileus_cli: command-line client for a pileus_server node.
//
//   pileus_cli --port 7000 put mykey myvalue
//   pileus_cli --port 7000 get mykey
//   pileus_cli --port 7000 probe
//   pileus_cli --port 7000 sync            # dump versions above --after
//   pileus_cli --port 7000 tablets         # live tablet map (table or JSON)
//   pileus_cli --port 7000 tablets handoff 7001 backup
//                                          # move primaryship to a replica
//   pileus_cli --port 7000 bench 1000      # tiny put/get latency check
//
// Talks the raw storage protocol over TCP and pretty-prints replies,
// including the node's high timestamp so operators can eyeball staleness.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/core/monitor.h"
#include "src/net/tcp.h"
#include "src/proto/messages.h"
#include "src/replication/replication_agent.h"
#include "src/tablets/tablet_map.h"
#include "src/util/histogram.h"
#include "tools/flags.h"

using namespace pileus;  // NOLINT

namespace {

Result<proto::Message> Call(net::TcpChannel& channel,
                            const proto::Message& request) {
  Result<proto::Message> reply =
      channel.Call(request, SecondsToMicroseconds(10));
  if (!reply.ok()) {
    return reply;
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply.value())) {
    return Status(err->code, err->message);
  }
  return reply;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JoinMembers(const std::vector<std::string>& members) {
  std::string out;
  for (const std::string& m : members) {
    if (!out.empty()) {
      out += ",";
    }
    out += m;
  }
  return out;
}

// Fetches the node's current tablet map. Nodes that never installed one
// synthesize a version-0 view from their hosted tablets, so this works
// against a plain `pileus_server` too.
Result<tablets::TabletMap> FetchTabletMap(net::TcpChannel& channel,
                                          const std::string& table) {
  proto::TabletMapRequest request;
  request.table = table;
  request.have_version = 0;
  Result<proto::Message> reply = Call(channel, request);
  if (!reply.ok()) {
    return reply.status();
  }
  const auto* map_reply = std::get_if<proto::TabletMapReply>(&reply.value());
  if (map_reply == nullptr) {
    return Status(StatusCode::kInternal,
                  "unexpected reply type for tablet map");
  }
  if (!map_reply->has_map) {
    return Status(StatusCode::kNotFound,
                  "node hosts no tablets for table '" + table + "'");
  }
  return map_reply->map;
}

// Prints the map as one JSON object (no trailing newline).
void PrintTabletMapJson(const tablets::TabletMap& map) {
  std::printf("{\"table\": \"%s\", \"version\": %llu, \"tablets\": [",
              JsonEscape(map.table).c_str(),
              static_cast<unsigned long long>(map.version));
  for (size_t i = 0; i < map.tablets.size(); ++i) {
    const tablets::TabletInfo& t = map.tablets[i];
    std::printf(
        "%s{\"begin\": \"%s\", \"end\": \"%s\", \"epoch\": %llu, "
        "\"primary\": \"%s\", \"members\": [",
        i == 0 ? "" : ", ", JsonEscape(t.range.begin).c_str(),
        JsonEscape(t.range.end).c_str(),
        static_cast<unsigned long long>(t.config.epoch),
        JsonEscape(t.config.primary).c_str());
    for (size_t j = 0; j < t.config.members.size(); ++j) {
      std::printf("%s\"%s\"", j == 0 ? "" : ", ",
                  JsonEscape(t.config.members[j]).c_str());
    }
    std::printf("], \"size_bytes\": %llu}",
                static_cast<unsigned long long>(t.size_bytes));
  }
  std::printf("]}");
}

void PrintTabletMap(const tablets::TabletMap& map, bool json) {
  if (json) {
    PrintTabletMapJson(map);
    std::printf("\n");
    return;
  }
  std::printf("table '%s': map v%llu, %zu tablet%s\n", map.table.c_str(),
              static_cast<unsigned long long>(map.version),
              map.tablets.size(), map.tablets.size() == 1 ? "" : "s");
  std::printf("%-28s %6s %-12s %-24s %10s\n", "RANGE", "EPOCH", "PRIMARY",
              "MEMBERS", "BYTES");
  for (const tablets::TabletInfo& t : map.tablets) {
    std::string range = "['" + t.range.begin + "', ";
    range += t.range.end.empty() ? "\xE2\x88\x9E)" : "'" + t.range.end + "')";
    std::printf("%-28s %6llu %-12s %-24s %10llu\n", range.c_str(),
                static_cast<unsigned long long>(t.config.epoch),
                t.config.primary.empty() ? "-" : t.config.primary.c_str(),
                JoinMembers(t.config.members).c_str(),
                static_cast<unsigned long long>(t.size_bytes));
  }
}

// "put us:  p50=... p95=... p99=..." — quantiles from the log-bucketed
// histogram, not just the mean, so tail latency is visible from the CLI.
void PrintLatencyLine(const char* label, const Histogram& histogram) {
  std::printf(
      "%s n=%llu mean=%.1f p50=%lld p95=%lld p99=%lld max=%lld (us)\n", label,
      static_cast<unsigned long long>(histogram.count()), histogram.Mean(),
      static_cast<long long>(histogram.Quantile(0.50)),
      static_cast<long long>(histogram.Quantile(0.95)),
      static_cast<long long>(histogram.Quantile(0.99)),
      static_cast<long long>(histogram.max()));
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags;
  flags.DefineInt("port", 7000, "server port on 127.0.0.1");
  flags.DefineString("table", "default", "table name");
  flags.DefineString("after", "0",
                     "sync: dump versions after this physical timestamp (us)");
  flags.DefineString("format", "summary",
                     "stats: server export format (summary | prometheus | json)");
  flags.DefineInt("probes", 5, "stats: probes used for the local node view");
  flags.DefineInt("pipeline", 0,
                  "bench: ops kept in flight on the channel (0 = serial "
                  "synchronous loop)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  const auto& args = flags.positional();
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: pileus_cli [flags] put KEY VALUE | get KEY | del KEY | "
                 "range BEGIN [END] | probe | sync | stats | "
                 "tablets [handoff PORT NAME] | bench N\n");
    return 2;
  }
  net::TcpChannel channel(static_cast<uint16_t>(flags.GetInt("port")));
  const std::string table = flags.GetString("table");
  const std::string& command = args[0];

  if (command == "put" && args.size() == 3) {
    proto::PutRequest request;
    request.table = table;
    request.key = args[1];
    request.value = args[2];
    Result<proto::Message> reply = Call(channel, request);
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const auto& put = std::get<proto::PutReply>(reply.value());
    std::printf("ok: timestamp=%s\n", put.timestamp.ToString().c_str());
    return 0;
  }

  if (command == "get" && args.size() == 2) {
    proto::GetRequest request;
    request.table = table;
    request.key = args[1];
    Result<proto::Message> reply = Call(channel, request);
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const auto& get = std::get<proto::GetReply>(reply.value());
    if (!get.found) {
      std::printf("(not found)  node high=%s%s\n",
                  get.high_timestamp.ToString().c_str(),
                  get.served_by_primary ? " [primary]" : "");
      return 1;
    }
    std::printf("%s\n  version=%s  node high=%s%s\n", get.value.c_str(),
                get.value_timestamp.ToString().c_str(),
                get.high_timestamp.ToString().c_str(),
                get.served_by_primary ? " [primary]" : "");
    return 0;
  }

  if (command == "probe" && args.size() == 1) {
    proto::ProbeRequest request;
    request.table = table;
    const MicrosecondCount start = RealClock::Instance()->NowMicros();
    Result<proto::Message> reply = Call(channel, request);
    const MicrosecondCount rtt = RealClock::Instance()->NowMicros() - start;
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const auto& probe = std::get<proto::ProbeReply>(reply.value());
    std::printf("high=%s  primary=%s  rtt=%.2f ms\n",
                probe.high_timestamp.ToString().c_str(),
                probe.is_primary ? "yes" : "no",
                MicrosecondsToMilliseconds(rtt));
    return 0;
  }

  if (command == "sync" && args.size() == 1) {
    proto::SyncRequest request;
    request.table = table;
    request.after =
        Timestamp{std::strtoll(flags.GetString("after").c_str(), nullptr, 10),
                  0};
    Result<proto::SyncReply> reply =
        replication::ToSyncReply(Call(channel, request));
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const proto::SyncReply& sync = reply.value();
    for (const proto::ObjectVersion& v : sync.versions) {
      std::printf("%s  %s  (%zu bytes)\n", v.timestamp.ToString().c_str(),
                  v.key.c_str(), v.value.size());
    }
    std::printf("-- %zu versions, heartbeat=%s%s\n", sync.versions.size(),
                sync.heartbeat.ToString().c_str(),
                sync.has_more ? ", more pending" : "");
    return 0;
  }

  if (command == "del" && args.size() == 2) {
    proto::DeleteRequest request;
    request.table = table;
    request.key = args[1];
    Result<proto::Message> reply = Call(channel, request);
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const auto& put = std::get<proto::PutReply>(reply.value());
    std::printf("deleted: tombstone timestamp=%s\n",
                put.timestamp.ToString().c_str());
    return 0;
  }

  if (command == "range" && (args.size() == 2 || args.size() == 3)) {
    proto::RangeRequest request;
    request.table = table;
    request.begin = args[1];
    request.end = args.size() == 3 ? args[2] : "";
    request.limit = 100;
    Result<proto::Message> reply = Call(channel, request);
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const auto& range = std::get<proto::RangeReply>(reply.value());
    for (const proto::VersionPtr& v : range.items) {
      std::printf("%-24s %s  (ts %s)\n", v->key.c_str(), v->value.c_str(),
                  v->timestamp.ToString().c_str());
    }
    std::printf("-- %zu items%s, node high=%s%s\n", range.items.size(),
                range.truncated ? " (truncated at 100)" : "",
                range.high_timestamp.ToString().c_str(),
                range.served_by_primary ? " [primary]" : "");
    return 0;
  }

  if (command == "stats" && args.size() == 1) {
    // Local view first: probe the node a few times and summarize what a
    // client-side monitor would conclude about it (latency quantiles,
    // staleness, breaker state).
    const std::string node_name =
        "127.0.0.1:" + std::to_string(flags.GetInt("port"));
    core::Monitor monitor(RealClock::Instance());
    const long long probes = flags.GetInt("probes");
    for (long long i = 0; i < probes; ++i) {
      proto::ProbeRequest request;
      request.table = table;
      const MicrosecondCount start = RealClock::Instance()->NowMicros();
      Result<proto::Message> reply = Call(channel, request);
      const MicrosecondCount rtt = RealClock::Instance()->NowMicros() - start;
      if (reply.ok()) {
        const auto& probe = std::get<proto::ProbeReply>(reply.value());
        monitor.RecordLatency(node_name, rtt);
        monitor.RecordHighTimestamp(node_name, probe.high_timestamp);
        monitor.RecordSuccess(node_name);
      } else {
        monitor.RecordFailure(node_name);
      }
    }
    const MicrosecondCount now = RealClock::Instance()->NowMicros();
    std::printf("node view (%lld probes):\n", probes);
    for (const core::Monitor::NodeSnapshot& s : monitor.Snapshot()) {
      std::printf(
          "  %-22s rtt p50=%lld us p95=%lld us p99=%lld us (n=%zu)\n"
          "  %-22s high=%s (staleness %.1f ms)  p_up=%.2f  breaker=%s\n",
          s.node.c_str(), static_cast<long long>(s.p50_latency_us),
          static_cast<long long>(s.p95_latency_us),
          static_cast<long long>(s.p99_latency_us), s.latency_samples, "",
          s.high_timestamp.ToString().c_str(),
          MicrosecondsToMilliseconds(now - s.high_timestamp.physical_us),
          s.p_up, std::string(core::BreakerStateName(s.breaker)).c_str());
    }
    // Then the server's own registry in the requested format.
    proto::StatsRequest request;
    request.format = flags.GetString("format");
    Result<proto::Message> reply = Call(channel, request);
    if (!reply.ok()) {
      return Fail(reply.status());
    }
    const auto& stats = std::get<proto::StatsReply>(reply.value());
    std::printf("server telemetry (%s):\n%s", request.format.c_str(),
                stats.text.c_str());
    return 0;
  }

  if (command == "tablets" && args.size() == 1) {
    Result<tablets::TabletMap> map = FetchTabletMap(channel, table);
    if (!map.ok()) {
      return Fail(map.status());
    }
    PrintTabletMap(map.value(), flags.GetString("format") == "json");
    return 0;
  }

  if (command == "tablets" && args.size() == 4 && args[1] == "handoff") {
    // CLI-coordinated primary move of the whole table's tablets from this
    // node (the --port source) to a second pileus_server that already
    // replicates from it (--role secondary --primary_port SOURCE):
    //
    //   1. Build the next map: version+1, every epoch+1, primary=TARGET.
    //   2. Install on the SOURCE first — it fences (kWrongTablet /
    //      kNotPrimary) immediately: the write-unavailability window opens.
    //   3. Poll the target until its replication pulls drain the remaining
    //      tail (high timestamp catches up to the source's fenced high).
    //   4. Install on the TARGET — it promotes: the window closes.
    const uint16_t target_port =
        static_cast<uint16_t>(std::strtol(args[2].c_str(), nullptr, 10));
    const std::string& target_name = args[3];
    net::TcpChannel target(target_port);

    Result<tablets::TabletMap> base = FetchTabletMap(channel, table);
    if (!base.ok()) {
      return Fail(base.status());
    }
    tablets::TabletMap next = base.value();
    next.version = next.version + 1;  // v0 view -> v1: first real map.
    for (tablets::TabletInfo& t : next.tablets) {
      t.config.epoch += 1;
      t.config.primary = target_name;
      if (!t.config.IsMember(target_name)) {
        t.config.members.push_back(target_name);
      }
    }
    if (Status valid = next.Validate(); !valid.ok()) {
      return Fail(valid);
    }

    proto::TabletMapRequest install;
    install.table = table;
    install.install = true;
    install.map = next;
    const MicrosecondCount fence_us = RealClock::Instance()->NowMicros();
    Result<proto::Message> fenced = Call(channel, install);
    if (!fenced.ok()) {
      return Fail(fenced.status());
    }
    if (!std::get<proto::TabletMapReply>(fenced.value()).accepted) {
      return Fail(Status(StatusCode::kInternal,
                         "source rejected the handoff map as stale"));
    }

    // Drain target: the source's high water mark measured AFTER the fence.
    // A live primary advertises a clock-fresh high that keeps advancing; the
    // fenced (demoted) source reports its frozen high — exactly the last
    // commit the target must replicate before it may take over.
    proto::ProbeRequest probe;
    probe.table = table;
    Result<proto::Message> source_probe = Call(channel, probe);
    if (!source_probe.ok()) {
      return Fail(source_probe.status());
    }
    const Timestamp drain_to =
        std::get<proto::ProbeReply>(source_probe.value()).high_timestamp;
    std::printf("source fenced at map v%llu (drain target %s)\n",
                static_cast<unsigned long long>(next.version),
                drain_to.ToString().c_str());

    // Drain: the target's periodic pulls (--pull_period_ms) bring it up to
    // the fenced high. 30 s is generous for any sane pull period.
    const MicrosecondCount deadline =
        RealClock::Instance()->NowMicros() + SecondsToMicroseconds(30);
    bool drained = false;
    while (RealClock::Instance()->NowMicros() < deadline) {
      Result<proto::Message> target_probe = Call(target, probe);
      if (target_probe.ok() &&
          std::get<proto::ProbeReply>(target_probe.value()).high_timestamp >=
              drain_to) {
        drained = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!drained) {
      return Fail(Status(
          StatusCode::kTimeout,
          "target never caught up to " + drain_to.ToString() +
              "; is it replicating from this node (--role secondary "
              "--primary_port)? The source stays fenced — reinstall the old "
              "map to roll back."));
    }

    Result<proto::Message> promoted = Call(target, install);
    if (!promoted.ok()) {
      return Fail(promoted.status());
    }
    if (!std::get<proto::TabletMapReply>(promoted.value()).accepted) {
      return Fail(Status(StatusCode::kInternal,
                         "target rejected the handoff map as stale"));
    }
    const MicrosecondCount window_us =
        RealClock::Instance()->NowMicros() - fence_us;
    std::printf(
        "handoff complete: '%s' now primary for %zu tablet%s at map v%llu "
        "(write-unavailability window %.1f ms)\n",
        target_name.c_str(), next.tablets.size(),
        next.tablets.size() == 1 ? "" : "s",
        static_cast<unsigned long long>(next.version),
        MicrosecondsToMilliseconds(window_us));
    return 0;
  }

  if (command == "bench" && args.size() == 2) {
    const long n = std::strtol(args[1].c_str(), nullptr, 10);
    if (const long depth = flags.GetInt("pipeline"); depth > 0) {
      // Pipelined closed loop: keep `depth` requests in flight; every
      // completion issues the next op from the event-loop thread. Ops
      // alternate Put/Get over the same rotating key set as the serial loop.
      struct BenchState {
        std::mutex mu;
        std::condition_variable cv;
        long next_op = 0;
        long completed = 0;
        bool failed = false;
        Status failure;
        Histogram put_latency, get_latency;
      };
      auto state = std::make_shared<BenchState>();
      const long total_ops = 2 * n;
      auto issue = std::make_shared<std::function<void()>>();
      *issue = [&channel, state, issue, total_ops, table]() {
        long op;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (state->failed || state->next_op >= total_ops) {
            return;
          }
          op = state->next_op++;
        }
        proto::Message request;
        const std::string key = "bench:" + std::to_string((op / 2) % 1000);
        if (op % 2 == 0) {
          proto::PutRequest put;
          put.table = table;
          put.key = key;
          put.value = "v" + std::to_string(op / 2);
          request = put;
        } else {
          proto::GetRequest get;
          get.table = table;
          get.key = key;
          request = get;
        }
        const MicrosecondCount start = RealClock::Instance()->NowMicros();
        channel.CallAsync(
            request, SecondsToMicroseconds(30),
            [state, issue, op, start](Result<proto::Message> reply) {
              {
                std::lock_guard<std::mutex> lock(state->mu);
                ++state->completed;
                if (reply.ok()) {
                  (op % 2 == 0 ? state->put_latency : state->get_latency)
                      .Record(RealClock::Instance()->NowMicros() - start);
                } else if (!state->failed) {
                  state->failed = true;
                  state->failure = reply.status();
                }
              }
              (*issue)();
              state->cv.notify_all();
            });
      };
      const MicrosecondCount bench_start = RealClock::Instance()->NowMicros();
      for (long i = 0; i < depth && i < total_ops; ++i) {
        (*issue)();
      }
      {
        std::unique_lock<std::mutex> lock(state->mu);
        // Done when every issued op completed AND no more will be issued
        // (all ops dispatched, or the first failure stopped the loop).
        state->cv.wait(lock, [&state, total_ops] {
          return state->completed == state->next_op &&
                 (state->failed || state->next_op >= total_ops);
        });
      }
      *issue = nullptr;  // Break the self-reference cycle.
      if (state->failed) {
        return Fail(state->failure);
      }
      const double elapsed_s =
          static_cast<double>(RealClock::Instance()->NowMicros() -
                              bench_start) /
          1e6;
      std::printf("pipelined depth %ld: %ld ops in %.3f s (%.0f ops/s)\n",
                  depth, total_ops, elapsed_s,
                  elapsed_s > 0 ? total_ops / elapsed_s : 0.0);
      PrintLatencyLine("put us:", state->put_latency);
      PrintLatencyLine("get us:", state->get_latency);
      return 0;
    }
    Histogram put_latency, get_latency;
    for (long i = 0; i < n; ++i) {
      proto::PutRequest put;
      put.table = table;
      put.key = "bench:" + std::to_string(i % 1000);
      put.value = "v" + std::to_string(i);
      MicrosecondCount start = RealClock::Instance()->NowMicros();
      Result<proto::Message> put_reply = Call(channel, put);
      if (!put_reply.ok()) {
        return Fail(put_reply.status());
      }
      put_latency.Record(RealClock::Instance()->NowMicros() - start);

      start = RealClock::Instance()->NowMicros();
      proto::GetRequest get;
      get.table = table;
      get.key = put.key;
      Result<proto::Message> get_reply = Call(channel, get);
      if (!get_reply.ok()) {
        return Fail(get_reply.status());
      }
      get_latency.Record(RealClock::Instance()->NowMicros() - start);
    }
    PrintLatencyLine("put us:", put_latency);
    PrintLatencyLine("get us:", get_latency);
    return 0;
  }

  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
