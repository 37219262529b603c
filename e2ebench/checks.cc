#include "e2ebench/checks.h"

#include <cstdio>

#include "src/common/clock.h"
#include "src/persist/durable_tablet.h"

namespace e2ebench {

using pileus::Timestamp;

void AckLog::Record(std::string_view key, const Timestamp& timestamp,
                    std::string_view value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(std::string(key), Entry{timestamp, std::string(value)});
  } else if (it->second.timestamp < timestamp) {
    it->second = Entry{timestamp, std::string(value)};
  }
}

void AckLog::Merge(const AckLog& other) {
  for (const auto& [key, entry] : other.entries_) {
    Record(key, entry.timestamp, entry.value);
  }
}

std::string CheckResult::Summary(std::string_view what) const {
  std::string out(what);
  out += ": " + std::to_string(checked) + " acked keys checked, " +
         std::to_string(missing) + " missing or wrong";
  for (const std::string& example : examples) {
    out += "\n    " + example;
  }
  return out;
}

CheckResult CheckAckedWrites(const AckLog& acked, const KeyLookup& lookup) {
  constexpr size_t kMaxExamples = 5;
  CheckResult result;
  for (const auto& [key, entry] : acked.entries()) {
    ++result.checked;
    const pileus::proto::GetReply reply = lookup(key);
    std::string problem;
    if (!reply.found) {
      problem = "absent";
    } else if (reply.value_timestamp < entry.timestamp) {
      problem = "older version " + reply.value_timestamp.ToString();
    } else if (reply.value_timestamp == entry.timestamp &&
               reply.value != entry.value) {
      problem = "wrong value";
    }
    if (problem.empty()) {
      continue;
    }
    ++result.missing;
    if (result.examples.size() < kMaxExamples) {
      result.examples.push_back("key " + key + " acked at " +
                                entry.timestamp.ToString() + ": " + problem);
    }
  }
  return result;
}

pileus::Result<CheckResult> CheckDurableReopen(const std::string& directory,
                                               const AckLog& acked) {
  pileus::persist::DurableTablet::Options options;
  options.directory = directory;
  options.tablet.is_primary = true;
  pileus::Result<std::unique_ptr<pileus::persist::DurableTablet>> reopened =
      pileus::persist::DurableTablet::Open(options,
                                           pileus::RealClock::Instance());
  if (!reopened.ok()) {
    return reopened.status();
  }
  const pileus::persist::DurableTablet& tablet = *reopened.value();
  return CheckAckedWrites(
      acked, [&tablet](std::string_view key) { return tablet.HandleGet(key); });
}

std::string CheckRouting(double strong_primary_share,
                         double relaxed_primary_share) {
  std::string problem;
  char buffer[160];
  if (strong_primary_share < kMinStrongPrimaryShare) {
    std::snprintf(buffer, sizeof(buffer),
                  "strong sessions left the primary: primary share %.4f < "
                  "%.2f",
                  strong_primary_share, kMinStrongPrimaryShare);
    problem += buffer;
  }
  if (relaxed_primary_share > kMaxRelaxedPrimaryShare) {
    std::snprintf(buffer, sizeof(buffer),
                  "%srelaxed sessions left the secondary: primary share %.4f "
                  "> %.2f",
                  problem.empty() ? "" : "; ", relaxed_primary_share,
                  kMaxRelaxedPrimaryShare);
    problem += buffer;
  }
  return problem;
}

}  // namespace e2ebench
