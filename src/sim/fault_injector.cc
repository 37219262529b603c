#include "src/sim/fault_injector.h"

#include <algorithm>

namespace pileus::sim {

namespace {

std::string LinkKey(std::string_view from, std::string_view to) {
  std::string key;
  key.reserve(from.size() + 1 + to.size());
  key.append(from);
  key.push_back('\x1f');
  key.append(to);
  return key;
}

}  // namespace

void FaultInjector::SetNodeRule(std::string_view node, FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = node_rules_.find(node);
  if (rule.IsHealthy()) {
    if (it != node_rules_.end()) {
      node_rules_.erase(it);
    }
    return;
  }
  if (it != node_rules_.end()) {
    it->second = rule;
  } else {
    node_rules_.emplace(std::string(node), rule);
  }
}

void FaultInjector::ClearNodeRule(std::string_view node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = node_rules_.find(node);
  if (it != node_rules_.end()) {
    node_rules_.erase(it);
  }
}

FaultRule FaultInjector::NodeRule(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const FaultRule* rule = FindNodeRuleLocked(node);
  return rule == nullptr ? FaultRule{} : *rule;
}

void FaultInjector::SetLinkRule(std::string_view from, std::string_view to,
                                FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = LinkKey(from, to);
  if (rule.IsHealthy()) {
    link_rules_.erase(key);
    return;
  }
  link_rules_[key] = rule;
}

void FaultInjector::ClearLinkRule(std::string_view from, std::string_view to) {
  std::lock_guard<std::mutex> lock(mu_);
  link_rules_.erase(LinkKey(from, to));
}

void FaultInjector::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  node_rules_.clear();
  link_rules_.clear();
}

void FaultInjector::CrashNode(std::string_view node) {
  FaultRule rule;
  rule.block = true;
  SetNodeRule(node, rule);
}

bool FaultInjector::IsCrashed(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const FaultRule* rule = FindNodeRuleLocked(node);
  return rule != nullptr && rule->block;
}

void FaultInjector::RecoverNode(std::string_view node) {
  ClearNodeRule(node);
}

void FaultInjector::SetGrayNode(std::string_view node,
                                double latency_multiplier) {
  FaultRule rule;
  rule.latency_multiplier = std::max(1.0, latency_multiplier);
  SetNodeRule(node, rule);
}

void FaultInjector::SetSilentDrop(std::string_view node, double probability) {
  FaultRule rule;
  rule.drop_probability = std::clamp(probability, 0.0, 1.0);
  SetNodeRule(node, rule);
}

void FaultInjector::SetCorruption(std::string_view node, double probability) {
  FaultRule rule;
  rule.corrupt_probability = std::clamp(probability, 0.0, 1.0);
  SetNodeRule(node, rule);
}

void FaultInjector::SetOverloadNode(std::string_view node, double probability,
                                    uint32_t retry_after_ms) {
  FaultRule rule;
  rule.overload_probability = std::clamp(probability, 0.0, 1.0);
  rule.overload_retry_after_ms = retry_after_ms;
  SetNodeRule(node, rule);
}

void FaultInjector::SetPartition(std::string_view from, std::string_view to,
                                 bool blocked) {
  FaultRule rule;
  rule.block = blocked;
  SetLinkRule(from, to, rule);
}

const FaultRule* FaultInjector::FindNodeRuleLocked(
    std::string_view node) const {
  auto it = node_rules_.find(node);
  return it == node_rules_.end() ? nullptr : &it->second;
}

void FaultInjector::Combine(const FaultRule& rule, FaultDecision* decision,
                            Random& rng) {
  if (rule.block || (rule.drop_probability > 0.0 &&
                     rng.NextBool(rule.drop_probability))) {
    decision->drop = true;
  }
  if (rule.corrupt_probability > 0.0 && rng.NextBool(rule.corrupt_probability)) {
    decision->corrupt = true;
  }
  if (rule.overload_probability > 0.0 &&
      rng.NextBool(rule.overload_probability)) {
    decision->overload = true;
    decision->retry_after_ms =
        std::max(decision->retry_after_ms, rule.overload_retry_after_ms);
  }
  decision->latency_multiplier *= std::max(1.0, rule.latency_multiplier);
}

FaultDecision FaultInjector::OnMessage(std::string_view from,
                                       std::string_view to,
                                       Random& rng) const {
  FaultDecision decision;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (node_rules_.empty() && link_rules_.empty()) {
      return decision;
    }
    if (const FaultRule* rule = FindNodeRuleLocked(from)) {
      Combine(*rule, &decision, rng);
    }
    if (to != from) {
      if (const FaultRule* rule = FindNodeRuleLocked(to)) {
        Combine(*rule, &decision, rng);
      }
    }
    auto link = link_rules_.find(LinkKey(from, to));
    if (link != link_rules_.end()) {
      Combine(link->second, &decision, rng);
    }
  }
  if (decision.drop) {
    // A dropped message is only dropped; the other effects are moot.
    decision.corrupt = false;
    decision.overload = false;
    decision.latency_multiplier = 1.0;
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    return decision;
  }
  if (decision.overload) {
    // A shed request is answered with a fast rejection, not served: the
    // other effects are moot. The transport still decides whether the
    // message is data-path (only those are shed), so the counter tracks
    // decisions, not necessarily synthesized rejections.
    decision.corrupt = false;
    messages_overloaded_.fetch_add(1, std::memory_order_relaxed);
    return decision;
  }
  if (decision.corrupt) {
    messages_corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (decision.latency_multiplier > 1.0) {
    messages_slowed_.fetch_add(1, std::memory_order_relaxed);
  }
  return decision;
}

bool FaultInjector::Affects(std::string_view from, std::string_view to) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (FindNodeRuleLocked(from) != nullptr ||
      FindNodeRuleLocked(to) != nullptr) {
    return true;
  }
  return link_rules_.find(LinkKey(from, to)) != link_rules_.end();
}

void FaultInjector::CorruptFrame(std::string& frame, Random& rng) {
  if (frame.empty()) {
    return;
  }
  const int flips = 1 + static_cast<int>(rng.NextUint64(3));
  for (int i = 0; i < flips; ++i) {
    const size_t pos = rng.NextUint64(frame.size());
    // XOR with a non-zero byte so the flip always changes the frame.
    frame[pos] = static_cast<char>(
        static_cast<unsigned char>(frame[pos]) ^
        static_cast<unsigned char>(1 + rng.NextUint64(255)));
  }
}

}  // namespace pileus::sim
