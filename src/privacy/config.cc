#include "privacy/config.h"

#include "common/macros.h"

namespace ppdb::privacy {

Status PrivacyConfig::Validate() const {
  PPDB_RETURN_NOT_OK(policy.ValidateAgainst(scales).WithPrefix("policy"));
  PPDB_RETURN_NOT_OK(
      preferences.ValidateAgainst(scales).WithPrefix("preferences"));
  auto registered = [this](PurposeId id) {
    return id >= 0 && id < purposes.num_purposes();
  };
  for (const PolicyTuple& pt : policy.tuples()) {
    if (!registered(pt.tuple.purpose)) {
      return Status::InvalidArgument(
          "policy tuple for attribute '" + pt.attribute +
          "' mentions unregistered purpose id " +
          std::to_string(pt.tuple.purpose));
    }
  }
  for (const auto& [id, prefs] : preferences.entries()) {
    for (const ProviderPreferences::Row& row : prefs.rows()) {
      if (!registered(row.tuple.purpose)) {
        return Status::InvalidArgument(
            "preference of provider " + std::to_string(id) +
            " mentions unregistered purpose id " +
            std::to_string(row.tuple.purpose));
      }
    }
  }
  for (const auto& [provider, threshold] : thresholds) {
    if (threshold < 0.0) {
      return Status::InvalidArgument("negative default threshold for provider " +
                                     std::to_string(provider));
    }
  }
  return Status::OK();
}

}  // namespace ppdb::privacy
