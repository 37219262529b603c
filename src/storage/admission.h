// Per-tenant admission control with utility-weighted shedding
// (DESIGN.md Section 11).
//
// Every data-path request first passes through an AdmissionController before
// the node touches a tablet. Each tenant (defaulting to the table name) owns
// a token bucket that refills at a configured rate and may run a bounded
// "virtual queue" of debt: admitting a request when the bucket is empty
// drives the token count negative, and the backlog divided by the refill
// rate is the node's self-measured queue delay, which it stamps on every
// reply. When the backlog approaches the bound, the controller sheds load in
// the order the paper's utility model (Section 4) prescribes:
//
//   1. low-utility subSLA reads are rejected first (a read targeting
//      utility 0.1 sheds at ~half pressure, utility 1.0 holds on longer),
//   2. strong/authoritative reads are shed only when the queue is nearly
//      full, and
//   3. writes are rejected only when admitting one would exceed the bound
//      outright — an acked write is never the thing we sacrifice.
//
// Rejections carry a retry_after_ms hint: the time the bucket needs to drain
// back below the rejected class's threshold. Requests whose propagated
// deadline is already smaller than the current queue delay are rejected even
// when admissible — serving them would burn capacity on a reply the client
// must discard.
//
// The controller is thread-safe; StorageNode calls it under its own lock but
// benches and tests drive it directly.

#ifndef PILEUS_SRC_STORAGE_ADMISSION_H_
#define PILEUS_SRC_STORAGE_ADMISSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"

namespace pileus::storage {

// What kind of work a request represents, for shedding priority. Control
// traffic (probes, sync pulls, map installs, stats) is never admitted
// through the controller at all: monitoring and replication must survive
// overload or the system can neither observe nor drain the backlog.
enum class AdmitClass {
  kRead = 0,        // Eventual/intermediate-guarantee read; shed first.
  kStrongRead = 1,  // Authoritative read; protected until near-full.
  kWrite = 2,       // Put/Delete; shed only at a full queue.
};

std::string_view AdmitClassName(AdmitClass cls);

struct AdmissionOptions {
  // Sustained admitted-operation rate per tenant bucket. <= 0 disables
  // admission control entirely (every request admitted, zero queue delay).
  double tenant_ops_per_sec = 0;
  // Bucket capacity: how large a burst is admitted at zero queue delay.
  double tenant_burst_ops = 16;
  // Maximum backlog (token debt) a bucket may carry. The virtual queue is
  // full when the debt reaches this many operations; queue delay at the
  // bound is tenant_max_queue_ops / tenant_ops_per_sec seconds.
  double tenant_max_queue_ops = 32;

  bool enabled() const { return tenant_ops_per_sec > 0; }
};

// The verdict for one request.
struct AdmitDecision {
  bool admitted = true;
  // Set on admitted requests: the backlog-derived delay the node reports to
  // the client (and, in the simulator, actually spends serving the request).
  MicrosecondCount queue_delay_us = 0;
  // Set on rejections: how long until the bucket drains below the rejected
  // class's threshold.
  uint32_t retry_after_ms = 0;
  // True when the rejection happened because the request's own deadline was
  // tighter than the current queue delay (counted separately from sheds).
  bool deadline_exceeded = false;
};

class AdmissionController {
 public:
  // Pressure (backlog / max queue) at which the lowest-utility read is shed.
  // A read with utility u (relative to kUtilityReference) is shed when
  // pressure >= kShedReadsStart + (kShedStrongReadsAt - kShedReadsStart)
  // * min(1, u / kUtilityReference), so higher-utility reads survive deeper
  // into the overload.
  static constexpr double kShedReadsStart = 0.5;
  // Pressure at which even strong reads are shed. Writes are never shed by
  // pressure, only by a full queue.
  static constexpr double kShedStrongReadsAt = 0.9;
  // Utility treated as "full utility" when scaling read shed thresholds.
  static constexpr double kUtilityReference = 1.0;
  // Bounds for the retry_after_ms hint carried on rejections.
  static constexpr uint32_t kMinRetryAfterMs = 5;
  static constexpr uint32_t kMaxRetryAfterMs = 2000;

  explicit AdmissionController(AdmissionOptions options);

  // Decides one request. `utility` is the client-reported utility of the
  // subSLA rank the read targets (ignored for writes); `deadline_us` is the
  // client's remaining budget (0 = none).
  AdmitDecision Admit(std::string_view tenant, AdmitClass cls, double utility,
                      MicrosecondCount deadline_us, MicrosecondCount now_us);

  // Current queue delay of `tenant`'s bucket without consuming a token;
  // stamped on probe replies so monitors see pressure building.
  MicrosecondCount CurrentQueueDelay(std::string_view tenant,
                                     MicrosecondCount now_us);

  const AdmissionOptions& options() const { return options_; }

  // Lifetime counters, for telemetry and test assertions.
  struct Counters {
    uint64_t admitted = 0;
    uint64_t shed_reads = 0;
    uint64_t shed_strong_reads = 0;
    uint64_t shed_writes = 0;
    uint64_t deadline_rejected = 0;

    uint64_t shed_total() const {
      return shed_reads + shed_strong_reads + shed_writes;
    }
  };
  Counters counters() const;

  // Tenants that have touched the controller, in name order (tests/stats).
  std::vector<std::string> Tenants() const;

 private:
  struct Bucket {
    // Available tokens; negative values are backlog (the virtual queue).
    double tokens = 0;
    MicrosecondCount last_refill_us = 0;
  };

  Bucket& BucketFor(std::string_view tenant, MicrosecondCount now_us);
  void RefillLocked(Bucket& bucket, MicrosecondCount now_us) const;
  double BacklogLocked(const Bucket& bucket) const;
  uint32_t RetryAfterLocked(const Bucket& bucket, double threshold) const;

  const AdmissionOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Bucket, std::less<>> buckets_;
  Counters counters_;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_ADMISSION_H_
