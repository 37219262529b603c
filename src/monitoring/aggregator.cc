#include "src/monitoring/aggregator.h"

#include <algorithm>
#include <cmath>

namespace pileus::monitoring {

bool MonitorAggregator::Ingest(std::string_view reporter, uint64_t seq,
                               const std::vector<NodeCondition>& conditions) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = reporter_seq_.find(reporter);
  if (it != reporter_seq_.end() && seq <= it->second) {
    // Duplicate or reordered report: the reporter's seq is monotonic, so
    // anything at or below the last accepted one carries no new evidence
    // (and applying it could roll merged state backwards).
    ++reports_rejected_;
    return false;
  }
  if (it == reporter_seq_.end()) {
    reporter_seq_.emplace(std::string(reporter), seq);
  } else {
    it->second = seq;
  }
  const MicrosecondCount now = clock_->NowMicros();
  for (const NodeCondition& condition : conditions) {
    if (condition.node.empty()) {
      continue;
    }
    NodeState& node = nodes_[condition.node];
    auto entry = node.by_reporter.find(reporter);
    if (entry == node.by_reporter.end()) {
      entry = node.by_reporter.emplace(std::string(reporter), ReporterEntry{})
                  .first;
    }
    entry->second.condition = condition;
    entry->second.received_at_us = now;
  }
  PruneLocked(now);
  ++version_;
  ++reports_ingested_;
  return true;
}

void MonitorAggregator::PruneLocked(MicrosecondCount now_us) {
  for (auto node = nodes_.begin(); node != nodes_.end();) {
    auto& by_reporter = node->second.by_reporter;
    for (auto entry = by_reporter.begin(); entry != by_reporter.end();) {
      if (now_us - entry->second.received_at_us >= kEntryTtlUs) {
        entry = by_reporter.erase(entry);
      } else {
        ++entry;
      }
    }
    if (by_reporter.empty()) {
      node = nodes_.erase(node);
    } else {
      ++node;
    }
  }
}

ConditionDigest MonitorAggregator::Digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  const MicrosecondCount now = clock_->NowMicros();
  ConditionDigest digest;
  digest.version = version_;
  digest.reports_merged = reports_ingested_;
  digest.nodes.reserve(nodes_.size());
  // nodes_ is an ordered map, so the digest comes out sorted by name.
  for (const auto& [name, state] : nodes_) {
    NodeCondition merged;
    merged.node = name;
    merged.high_age_us = -1;
    double lat_weight = 0.0;      // Weight over entries with latency samples.
    double lat_mean = 0.0, lat_p50 = 0.0, lat_p95 = 0.0, lat_p99 = 0.0;
    double cond_weight = 0.0;     // Weight over all live entries.
    double p_up = 0.0, queue_delay = 0.0;
    for (const auto& [reporter, entry] : state.by_reporter) {
      const MicrosecondCount age = now - entry.received_at_us;
      if (age >= kEntryTtlUs) {
        continue;  // Expired since the last Ingest pruned.
      }
      const double decay = std::exp2(-static_cast<double>(age) /
                                     static_cast<double>(kHalfLifeUs));
      const NodeCondition& c = entry.condition;
      const double w = decay * static_cast<double>(std::max<uint64_t>(
                                   1, c.sample_count));
      cond_weight += w;
      p_up += w * c.p_up;
      queue_delay += w * static_cast<double>(c.queue_delay_us);
      if (c.overloaded && age <= kHalfLifeUs) {
        merged.overloaded = true;
      }
      if (c.sample_count > 0) {
        const double lw = decay * static_cast<double>(c.sample_count);
        lat_weight += lw;
        lat_mean += lw * static_cast<double>(c.mean_latency_us);
        lat_p50 += lw * static_cast<double>(c.p50_latency_us);
        lat_p95 += lw * static_cast<double>(c.p95_latency_us);
        lat_p99 += lw * static_cast<double>(c.p99_latency_us);
        merged.sample_count += c.sample_count;
      }
      // High timestamps only grow: keep the max, with the youngest age at
      // which anyone observed it (entry age + the reporter's observation
      // age at report time).
      if (c.high_age_us >= 0 && c.high_timestamp > merged.high_timestamp) {
        merged.high_timestamp = c.high_timestamp;
        merged.high_age_us = c.high_age_us + age;
      }
    }
    if (cond_weight <= 0.0) {
      continue;
    }
    merged.p_up = p_up / cond_weight;
    merged.queue_delay_us =
        static_cast<MicrosecondCount>(queue_delay / cond_weight);
    if (lat_weight > 0.0) {
      merged.mean_latency_us =
          static_cast<MicrosecondCount>(lat_mean / lat_weight);
      merged.p50_latency_us =
          static_cast<MicrosecondCount>(lat_p50 / lat_weight);
      merged.p95_latency_us =
          static_cast<MicrosecondCount>(lat_p95 / lat_weight);
      merged.p99_latency_us =
          static_cast<MicrosecondCount>(lat_p99 / lat_weight);
    }
    digest.nodes.push_back(std::move(merged));
  }
  return digest;
}

}  // namespace pileus::monitoring
