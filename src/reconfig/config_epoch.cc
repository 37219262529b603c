#include "src/reconfig/config_epoch.h"

#include <sstream>

namespace pileus::reconfig {

namespace {

void EncodeNameList(Encoder& enc, const std::vector<std::string>& names) {
  enc.PutVarint64(names.size());
  for (const std::string& name : names) {
    enc.PutLengthPrefixed(name);
  }
}

Status DecodeNameList(Decoder& dec, std::vector<std::string>* names) {
  uint64_t count = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  if (count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "config member count too big");
  }
  names->resize(count);
  for (std::string& name : *names) {
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&name));
  }
  return Status::Ok();
}

}  // namespace

bool ConfigEpoch::IsMember(std::string_view node) const {
  for (const std::string& member : members) {
    if (member == node) {
      return true;
    }
  }
  return false;
}

bool ConfigEpoch::IsSyncMember(std::string_view node) const {
  for (const std::string& member : sync_members) {
    if (member == node) {
      return true;
    }
  }
  return false;
}

std::string ConfigEpoch::ToString() const {
  std::ostringstream os;
  os << "epoch " << epoch << ": primary=" << primary << " members=[";
  for (size_t i = 0; i < members.size(); ++i) {
    os << (i == 0 ? "" : ",") << members[i];
  }
  os << "] sync=[";
  for (size_t i = 0; i < sync_members.size(); ++i) {
    os << (i == 0 ? "" : ",") << sync_members[i];
  }
  os << "]";
  return os.str();
}

ConfigEpoch NextEpoch(
    const ConfigEpoch& current, const std::string& new_primary,
    size_t sync_target,
    const std::function<bool(const std::string&)>& reachable) {
  ConfigEpoch next;
  next.epoch = current.epoch + 1;
  next.primary = new_primary;
  next.members = current.members;
  auto try_add = [&](const std::string& member) {
    if (next.sync_members.size() < sync_target && member != new_primary &&
        !next.IsSyncMember(member) && reachable(member)) {
      next.sync_members.push_back(member);
    }
  };
  for (const std::string& member : current.sync_members) {
    try_add(member);
  }
  try_add(current.primary);
  for (const std::string& member : current.members) {
    try_add(member);
  }
  return next;
}

void EncodeConfigEpoch(Encoder& enc, const ConfigEpoch& config) {
  enc.PutVarint64(config.epoch);
  enc.PutLengthPrefixed(config.primary);
  EncodeNameList(enc, config.members);
  EncodeNameList(enc, config.sync_members);
}

Status DecodeConfigEpoch(Decoder& dec, ConfigEpoch* config) {
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&config->epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&config->primary));
  PILEUS_RETURN_IF_ERROR(DecodeNameList(dec, &config->members));
  return DecodeNameList(dec, &config->sync_members);
}

}  // namespace pileus::reconfig
