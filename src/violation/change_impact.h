#ifndef PPDB_VIOLATION_CHANGE_IMPACT_H_
#define PPDB_VIOLATION_CHANGE_IMPACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "privacy/config.h"
#include "privacy/policy_diff.h"
#include "violation/detector.h"

namespace ppdb::violation {

/// Before/after assessment of a policy change over a fixed population —
/// the audit a social-network user (or regulator) would want when the site
/// announces new terms (§10: "the dynamics of changing privacy policies in
/// databases").
struct ChangeImpact {
  privacy::PolicyDiff diff;

  double p_violation_before = 0.0;
  double p_violation_after = 0.0;
  double p_default_before = 0.0;
  double p_default_after = 0.0;
  double total_violations_before = 0.0;
  double total_violations_after = 0.0;
  /// Exact after-side counts behind the two ratios above (the before side
  /// is the current population's).
  int64_t num_violated_after = 0;
  int64_t num_defaulted_after = 0;

  /// Providers violated after but not before.
  std::vector<ProviderId> newly_violated;
  /// Providers violated before but not after.
  std::vector<ProviderId> no_longer_violated;
  /// Providers whose default bit flipped 0 -> 1.
  std::vector<ProviderId> newly_defaulted;
  /// Providers whose default bit flipped 1 -> 0 (won back by narrowing).
  std::vector<ProviderId> recovered;

  /// One-paragraph summary.
  std::string Summary() const;
};

/// Assesses replacing `config.policy` with `new_policy` against the
/// config's population. `config` is not modified.
Result<ChangeImpact> AssessPolicyChange(
    const privacy::PrivacyConfig& config,
    const privacy::HousePolicy& new_policy,
    ViolationDetector::Options detector_options = {});

}  // namespace ppdb::violation

#endif  // PPDB_VIOLATION_CHANGE_IMPACT_H_
