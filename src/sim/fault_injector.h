// Scriptable fault injection for simulations, testbeds, and the in-process
// transport.
//
// SetNodeDown-style failures are the friendliest possible outage: the dead
// node answers instantly with a clean kUnavailable. Real outages are silent
// timeouts, gray slowness, asymmetric partitions, flipped bytes, and crashes
// that lose volatile state. The FaultInjector models all of these as rules
// that transports consult on every message:
//
//   - per-node rules apply to every message to or from the node (a sick host
//     is sick in both directions);
//   - per-directed-link rules apply to messages from -> to only, so A->B can
//     be blocked while B->A flows (asymmetric partition).
//
// Each rule can silently drop messages (the caller sees only a deadline
// expiry, never a fast error), slow them down by a multiplier (gray failure),
// or corrupt the encoded payload (the codec's checksum must reject the frame
// cleanly). Rules combine: drop/corrupt probabilities OR together, latency
// multipliers multiply, and any block wins.
//
// The injector is transport-agnostic: it decides, the transport acts. The
// deterministic simulation turns a drop into a virtual-time deadline expiry;
// the threaded in-process transport sleeps out the real deadline.
//
// Thread safety: fully synchronized (the in-process transport calls in from
// many threads); counters are monotonic and lock-free to read.

#ifndef PILEUS_SRC_SIM_FAULT_INJECTOR_H_
#define PILEUS_SRC_SIM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/random.h"

namespace pileus::sim {

// One fault rule; the default-constructed rule is "healthy".
struct FaultRule {
  // Drop every message (crash / hard partition). The sender learns nothing.
  bool block = false;
  // Silently drop this fraction of messages.
  double drop_probability = 0.0;
  // Flip bytes in this fraction of encoded payloads.
  double corrupt_probability = 0.0;
  // Gray failure: messages take this many times longer (>= 1.0).
  double latency_multiplier = 1.0;
  // Overload (DESIGN.md Section 11): this fraction of *data-path requests*
  // is answered with a fast kOverloaded rejection carrying
  // `overload_retry_after_ms`, as if the node's admission controller shed
  // them. Control traffic (probes, sync, config) is never synthesized away,
  // matching the real controller's bypass.
  double overload_probability = 0.0;
  uint32_t overload_retry_after_ms = 50;

  bool IsHealthy() const {
    return !block && drop_probability == 0.0 && corrupt_probability == 0.0 &&
           latency_multiplier == 1.0 && overload_probability == 0.0;
  }
};

// What a transport should do with one directed message.
struct FaultDecision {
  bool drop = false;
  bool corrupt = false;
  double latency_multiplier = 1.0;
  // Answer with a synthesized kOverloaded rejection (data-path requests
  // only; the transport decides what counts as data-path).
  bool overload = false;
  uint32_t retry_after_ms = 0;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- Rule management ---

  // Node rules apply to every message whose source or destination is `node`.
  void SetNodeRule(std::string_view node, FaultRule rule);
  void ClearNodeRule(std::string_view node);
  FaultRule NodeRule(std::string_view node) const;

  // Directed-link rules apply to messages from -> to only.
  void SetLinkRule(std::string_view from, std::string_view to, FaultRule rule);
  void ClearLinkRule(std::string_view from, std::string_view to);

  // Removes every rule.
  void ClearAll();

  // --- Named fault classes (sugar over the rules above) ---

  // Crash: the node goes completely silent. Callers model volatile-state
  // loss themselves (see GeoTestbed::CrashNode).
  void CrashNode(std::string_view node);
  bool IsCrashed(std::string_view node) const;
  // Heal the node entirely (drops its rule).
  void RecoverNode(std::string_view node);

  // Gray failure: the node still answers, N x slower.
  void SetGrayNode(std::string_view node, double latency_multiplier);

  // Silent packet loss on everything touching the node.
  void SetSilentDrop(std::string_view node, double probability);

  // Payload corruption on everything touching the node.
  void SetCorruption(std::string_view node, double probability);

  // Overload: the node sheds this fraction of data-path requests with
  // kOverloaded rejections hinting `retry_after_ms`.
  void SetOverloadNode(std::string_view node, double probability,
                       uint32_t retry_after_ms = 50);

  // Asymmetric partition: from -> to is blocked; the reverse direction is
  // untouched unless partitioned separately.
  void SetPartition(std::string_view from, std::string_view to, bool blocked);

  // --- The per-message decision ---

  // Combines the from-node, to-node, and from->to link rules into one
  // decision for a single directed message. `rng` supplies the coin flips;
  // simulations pass their seeded RNG so runs stay reproducible.
  FaultDecision OnMessage(std::string_view from, std::string_view to,
                          Random& rng) const;

  // True when no rule could ever affect a message between these endpoints;
  // lets hot paths skip encode/decode work when the injector is idle.
  bool Affects(std::string_view from, std::string_view to) const;

  // Corruption helper: flips 1-3 random bytes of a non-empty frame in place.
  static void CorruptFrame(std::string& frame, Random& rng);

  // --- Counters (observability for benches and tests) ---

  uint64_t messages_dropped() const {
    return messages_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t messages_corrupted() const {
    return messages_corrupted_.load(std::memory_order_relaxed);
  }
  uint64_t messages_slowed() const {
    return messages_slowed_.load(std::memory_order_relaxed);
  }
  uint64_t messages_overloaded() const {
    return messages_overloaded_.load(std::memory_order_relaxed);
  }

 private:
  // Folds `rule` into `decision`; returns true when the message is dropped
  // outright (no further rules matter).
  static void Combine(const FaultRule& rule, FaultDecision* decision,
                      Random& rng);

  const FaultRule* FindNodeRuleLocked(std::string_view node) const;

  mutable std::mutex mu_;
  std::map<std::string, FaultRule, std::less<>> node_rules_;
  // Keyed by "from\x1fto" (sites never contain control characters).
  std::map<std::string, FaultRule, std::less<>> link_rules_;
  mutable std::atomic<uint64_t> messages_dropped_{0};
  mutable std::atomic<uint64_t> messages_corrupted_{0};
  mutable std::atomic<uint64_t> messages_slowed_{0};
  mutable std::atomic<uint64_t> messages_overloaded_{0};
};

}  // namespace pileus::sim

#endif  // PILEUS_SRC_SIM_FAULT_INJECTOR_H_
