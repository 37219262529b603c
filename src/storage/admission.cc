#include "src/storage/admission.h"

#include <algorithm>
#include <cmath>

namespace pileus::storage {

std::string_view AdmitClassName(AdmitClass cls) {
  switch (cls) {
    case AdmitClass::kRead:
      return "read";
    case AdmitClass::kStrongRead:
      return "strong_read";
    case AdmitClass::kWrite:
      return "write";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

AdmissionController::Bucket& AdmissionController::BucketFor(
    std::string_view tenant, MicrosecondCount now_us) {
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    Bucket fresh;
    fresh.tokens = options_.tenant_burst_ops;
    fresh.last_refill_us = now_us;
    it = buckets_.emplace(std::string(tenant), fresh).first;
  }
  return it->second;
}

void AdmissionController::RefillLocked(Bucket& bucket,
                                       MicrosecondCount now_us) const {
  if (now_us <= bucket.last_refill_us) {
    return;
  }
  const double elapsed_s =
      static_cast<double>(now_us - bucket.last_refill_us) /
      kMicrosecondsPerSecond;
  bucket.tokens = std::min(options_.tenant_burst_ops,
                           bucket.tokens +
                               elapsed_s * options_.tenant_ops_per_sec);
  bucket.last_refill_us = now_us;
}

double AdmissionController::BacklogLocked(const Bucket& bucket) const {
  return std::max(0.0, -bucket.tokens);
}

uint32_t AdmissionController::RetryAfterLocked(const Bucket& bucket,
                                               double threshold) const {
  // Drain time until the backlog is back under `threshold` operations, plus
  // one refill interval so the retry lands with a token available.
  const double excess =
      std::max(0.0, BacklogLocked(bucket) - threshold) + 1.0;
  const double seconds = excess / options_.tenant_ops_per_sec;
  const double ms = std::ceil(seconds * 1000.0);
  const double clamped =
      std::clamp(ms, static_cast<double>(kMinRetryAfterMs),
                 static_cast<double>(kMaxRetryAfterMs));
  return static_cast<uint32_t>(clamped);
}

AdmitDecision AdmissionController::Admit(std::string_view tenant,
                                         AdmitClass cls, double utility,
                                         MicrosecondCount deadline_us,
                                         MicrosecondCount now_us) {
  AdmitDecision decision;
  if (!options_.enabled()) {
    return decision;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = BucketFor(tenant, now_us);
  RefillLocked(bucket, now_us);

  const double max_queue = std::max(1.0, options_.tenant_max_queue_ops);
  const double backlog = BacklogLocked(bucket);
  const double pressure = backlog / max_queue;

  // Shedding threshold for this class, as a pressure fraction. Writes have
  // no pressure threshold: only a full queue rejects them.
  double threshold = 1.0;
  switch (cls) {
    case AdmitClass::kRead: {
      const double scaled = std::clamp(utility / kUtilityReference, 0.0, 1.0);
      threshold = kShedReadsStart +
                  (kShedStrongReadsAt - kShedReadsStart) * scaled;
      break;
    }
    case AdmitClass::kStrongRead:
      threshold = kShedStrongReadsAt;
      break;
    case AdmitClass::kWrite:
      threshold = 1.0;
      break;
  }

  const bool queue_full = backlog + 1.0 > max_queue;
  const bool over_threshold = cls != AdmitClass::kWrite &&
                              pressure >= threshold;
  if (queue_full || over_threshold) {
    decision.admitted = false;
    decision.retry_after_ms =
        RetryAfterLocked(bucket, queue_full ? max_queue - 1.0
                                            : threshold * max_queue);
    switch (cls) {
      case AdmitClass::kRead:
        ++counters_.shed_reads;
        break;
      case AdmitClass::kStrongRead:
        ++counters_.shed_strong_reads;
        break;
      case AdmitClass::kWrite:
        ++counters_.shed_writes;
        break;
    }
    return decision;
  }

  const double backlog_after = std::max(0.0, -(bucket.tokens - 1.0));
  const MicrosecondCount queue_delay_us = static_cast<MicrosecondCount>(
      backlog_after / options_.tenant_ops_per_sec * kMicrosecondsPerSecond);
  if (deadline_us > 0 && queue_delay_us >= deadline_us) {
    // Admissible, but the reply would arrive after the client stopped
    // caring; shedding it now is strictly cheaper for everyone. The token
    // is not consumed.
    decision.admitted = false;
    decision.deadline_exceeded = true;
    decision.retry_after_ms = RetryAfterLocked(bucket, 0.0);
    ++counters_.deadline_rejected;
    return decision;
  }

  bucket.tokens -= 1.0;
  decision.queue_delay_us = queue_delay_us;
  ++counters_.admitted;
  return decision;
}

MicrosecondCount AdmissionController::CurrentQueueDelay(
    std::string_view tenant, MicrosecondCount now_us) {
  if (!options_.enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = BucketFor(tenant, now_us);
  RefillLocked(bucket, now_us);
  return static_cast<MicrosecondCount>(BacklogLocked(bucket) /
                                       options_.tenant_ops_per_sec *
                                       kMicrosecondsPerSecond);
}

AdmissionController::Counters AdmissionController::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<std::string> AdmissionController::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(buckets_.size());
  for (const auto& [name, bucket] : buckets_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace pileus::storage
