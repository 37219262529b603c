// Per-tenant retry budget (DESIGN.md Section 11).
//
// Retries amplify load exactly when the system can least afford it: a node
// that sheds 50% of requests sees its offered load double if every rejection
// is retried. The budget bounds that amplification the way production RPC
// stacks do (and unlike a plain attempt counter, it bounds it *across*
// operations): retries spend from a token bucket that only successful
// operations refill, so a client whose requests mostly succeed retries
// freely, while one facing a brown-out runs dry after kCapacity extra
// attempts and stops contributing to the storm until successes resume.
//
// Every retry path draws from the same budget — availability retries on the
// Get path, transport/kUnavailable/kOverloaded retries AND kNotPrimary
// redirects on the write path — so the total extra traffic a
// client can generate is bounded no matter which failure mode it hits.
//
// Thread safety: fully synchronized, so one budget can be shared by every
// client of a tenant (PileusClient::Options::shared_retry_budget), making the
// bound per-tenant rather than per-client.

#ifndef PILEUS_SRC_CORE_RETRY_BUDGET_H_
#define PILEUS_SRC_CORE_RETRY_BUDGET_H_

#include <algorithm>
#include <cstdint>
#include <mutex>

namespace pileus::core {

class RetryBudget {
 public:
  // Maximum retries available after a run of successes (bucket capacity).
  static constexpr double kCapacity = 10.0;
  // Tokens returned per successful operation. 0.1 means sustained retry
  // traffic is at most ~10% of sustained success traffic.
  static constexpr double kRefillPerSuccess = 0.1;

  // Takes one retry token. False (and no state change beyond the denial
  // counter) when the budget is exhausted: the caller must not retry.
  bool TryAcquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (tokens_ < 1.0) {
      ++denied_;
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  // A (first-attempt or retried) operation succeeded: refill a fraction of a
  // token, capped at capacity.
  void RecordSuccess() {
    std::lock_guard<std::mutex> lock(mu_);
    tokens_ = std::min(kCapacity, tokens_ + kRefillPerSuccess);
  }

  double tokens() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tokens_;
  }

  // Retries denied for lack of budget, for telemetry and tests.
  uint64_t denied() const {
    std::lock_guard<std::mutex> lock(mu_);
    return denied_;
  }

 private:
  mutable std::mutex mu_;
  double tokens_ = kCapacity;
  uint64_t denied_ = 0;
};

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_RETRY_BUDGET_H_
