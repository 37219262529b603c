#include "src/tablets/intent_log.h"

#include <algorithm>

namespace pileus::tablets {

namespace {

constexpr uint8_t kKindLease = 1;
constexpr uint8_t kKindIntent = 2;
constexpr uint8_t kKindMap = 3;

}  // namespace

std::string_view IntentPhaseName(IntentPhase phase) {
  switch (phase) {
    case IntentPhase::kSplitPrepare:
      return "split-prepare";
    case IntentPhase::kMigrationPrepare:
      return "migration-prepare";
    case IntentPhase::kMigrationCutover:
      return "migration-cutover";
    case IntentPhase::kMigrationRollback:
      return "migration-rollback";
  }
  return "unknown";
}

void EncodeTabletIntent(Encoder& enc, const TabletIntent& intent) {
  enc.PutVarint64(intent.intent_id);
  enc.PutUint8(static_cast<uint8_t>(intent.phase));
  enc.PutLengthPrefixed(intent.table);
  enc.PutLengthPrefixed(intent.range.begin);
  enc.PutLengthPrefixed(intent.range.end);
  enc.PutLengthPrefixed(intent.split_key);
  enc.PutLengthPrefixed(intent.from);
  enc.PutLengthPrefixed(intent.to);
  enc.PutVarint64(intent.next_version);
  enc.PutVarint64(intent.next_epoch);
  enc.PutBool(intent.target_hosted);
  enc.PutVarint64(intent.coordinator_epoch);
  enc.PutVarintSigned64(intent.started_us);
}

Status DecodeTabletIntent(Decoder& dec, TabletIntent* intent) {
  uint8_t phase = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&intent->intent_id));
  PILEUS_RETURN_IF_ERROR(dec.GetUint8(&phase));
  if (phase < static_cast<uint8_t>(IntentPhase::kSplitPrepare) ||
      phase > static_cast<uint8_t>(IntentPhase::kMigrationRollback)) {
    return Status(StatusCode::kCorruption, "unknown intent phase");
  }
  intent->phase = static_cast<IntentPhase>(phase);
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&intent->table));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&intent->range.begin));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&intent->range.end));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&intent->split_key));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&intent->from));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&intent->to));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&intent->next_version));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&intent->next_epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&intent->target_hosted));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&intent->coordinator_epoch));
  return dec.GetVarintSigned64(&intent->started_us);
}

void EncodeCoordinatorLease(Encoder& enc, const CoordinatorLease& lease) {
  enc.PutVarint64(lease.epoch);
  enc.PutLengthPrefixed(lease.holder);
  enc.PutVarintSigned64(lease.expiry_us);
}

Status DecodeCoordinatorLease(Decoder& dec, CoordinatorLease* lease) {
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&lease->epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&lease->holder));
  return dec.GetVarintSigned64(&lease->expiry_us);
}

Result<IntentLog> IntentLog::Open(const std::string& path,
                                  sim::FaultInjector* injector) {
  Result<persist::RecordLog> log = persist::RecordLog::Open(path);
  if (!log.ok()) {
    return log.status();
  }
  IntentLog intent_log;
  intent_log.log_ = std::move(*log);
  intent_log.log_.SetCrashPoints(injector, "persist.intent_log.");
  return intent_log;
}

Status IntentLog::WriteLease(const CoordinatorLease& lease) {
  Encoder enc;
  EncodeCoordinatorLease(enc, lease);
  PILEUS_RETURN_IF_ERROR(log_.Append(kKindLease, enc.Release()));
  return log_.Sync();
}

Status IntentLog::WriteIntent(const TabletIntent& intent) {
  Encoder enc;
  EncodeTabletIntent(enc, intent);
  PILEUS_RETURN_IF_ERROR(log_.Append(kKindIntent, enc.Release()));
  return log_.Sync();
}

Status IntentLog::CommitMap(const TabletMap& map) {
  Encoder enc;
  EncodeTabletMap(enc, map);
  PILEUS_RETURN_IF_ERROR(log_.Append(kKindMap, enc.Release()));
  return log_.Sync();
}

Result<IntentLog::RecoveredState> IntentLog::Recover(const std::string& path) {
  RecoveredState state;
  Result<persist::RecordLog::ReplayStats> stats = persist::RecordLog::Replay(
      path,
      [&](uint8_t kind, std::string_view payload) -> Status {
        Decoder dec(payload);
        if (kind == kKindLease) {
          PILEUS_RETURN_IF_ERROR(DecodeCoordinatorLease(dec, &state.lease));
        } else if (kind == kKindIntent) {
          TabletIntent intent;
          PILEUS_RETURN_IF_ERROR(DecodeTabletIntent(dec, &intent));
          state.next_intent_id =
              std::max(state.next_intent_id, intent.intent_id + 1);
          state.intent = std::move(intent);  // Only one op in flight.
        } else {
          PILEUS_RETURN_IF_ERROR(DecodeTabletMap(dec, &state.map));
          state.intent.reset();  // A committed map supersedes its intent.
        }
        return Status::Ok();
      },
      [](uint8_t kind) {
        return kind == kKindLease || kind == kKindIntent || kind == kKindMap;
      });
  if (!stats.ok()) {
    return stats.status();
  }
  state.tail_torn = stats->tail_torn;
  return state;
}

}  // namespace pileus::tablets
