// AggregatorService: the protocol face of a MonitorAggregator.
//
// Translates wire-v5 monitoring messages into aggregator calls:
//
//   MonitorReport   -> Ingest; answered with a DigestPush carrying the
//                      post-merge fleet digest, so reporters refresh their
//                      priors in the same round trip.
//   DigestSubscribe -> answered with a DigestPush; `has_digest` is false
//                      when the subscriber's have_version is already
//                      current (a cheap not-modified poll).
//
// MaybeHandle returns nullopt for every other message type, so the service
// composes as a wrapper around an existing handler: server::NodeHost asks it
// first with --aggregator, and the standalone pileus_aggregator daemon uses
// it as its whole handler.

#ifndef PILEUS_SRC_MONITORING_SERVICE_H_
#define PILEUS_SRC_MONITORING_SERVICE_H_

#include <optional>

#include "src/monitoring/aggregator.h"
#include "src/net/channel.h"
#include "src/proto/messages.h"
#include "src/telemetry/metrics.h"

namespace pileus::monitoring {

class AggregatorService {
 public:
  // Neither pointer is owned; `metrics` may be null (no accounting).
  explicit AggregatorService(MonitorAggregator* aggregator,
                             telemetry::MetricsRegistry* metrics = nullptr);

  // Handles MonitorReport / DigestSubscribe; nullopt for everything else.
  std::optional<proto::Message> MaybeHandle(const proto::Message& request);

  // A handler that intercepts monitoring messages and forwards the rest to
  // `inner` (which may be null: non-monitoring messages then get an
  // ErrorReply, the standalone-daemon configuration).
  net::Handler Wrap(net::Handler inner);

 private:
  MonitorAggregator* aggregator_;  // Not owned.
  telemetry::Counter* reports_ = nullptr;
  telemetry::Counter* reports_rejected_ = nullptr;
  telemetry::Counter* subscribes_ = nullptr;
  telemetry::Counter* pushes_ = nullptr;
};

}  // namespace pileus::monitoring

#endif  // PILEUS_SRC_MONITORING_SERVICE_H_
