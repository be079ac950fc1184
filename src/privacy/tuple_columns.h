#ifndef PPDB_PRIVACY_TUPLE_COLUMNS_H_
#define PPDB_PRIVACY_TUPLE_COLUMNS_H_

#include <cstdint>
#include <vector>

#include "privacy/privacy_tuple.h"
#include "privacy/provider_prefs.h"
#include "privacy/sensitivity.h"

namespace ppdb::privacy {

/// Structure-of-arrays views over privacy tuples, built once per analysis
/// so the violation engine's hot loop streams contiguous level and
/// sensitivity columns instead of chasing tuple objects and sensitivity
/// maps per (provider, policy tuple) pair. Consumed by
/// `violation/kernel/severity_kernel.h`.

/// The ordered-dimension levels of a tuple sequence as three contiguous
/// int32 columns (index j ↔ tuple j), plus the purpose column.
struct TupleLevelColumns {
  std::vector<int32_t> visibility;
  std::vector<int32_t> granularity;
  std::vector<int32_t> retention;
  std::vector<PurposeId> purpose;

  size_t size() const { return visibility.size(); }

  void Clear() {
    visibility.clear();
    granularity.clear();
    retention.clear();
    purpose.clear();
  }

  void Append(const PrivacyTuple& tuple) {
    visibility.push_back(tuple.visibility);
    granularity.push_back(tuple.granularity);
    retention.push_back(tuple.retention);
    purpose.push_back(tuple.purpose);
  }
};

/// Per-tuple σ_i^a columns (Eq. 11 unpacked): the datum weight and the
/// three per-dimension weights, aligned with a policy tuple sequence.
struct SensitivityColumns {
  std::vector<double> value;
  std::vector<double> visibility;
  std::vector<double> granularity;
  std::vector<double> retention;

  size_t size() const { return value.size(); }

  /// All-ones columns: the σ defaults when a provider set nothing. Shared
  /// across every such provider instead of refilled per provider.
  void FillOnes(size_t n) {
    value.assign(n, 1.0);
    visibility.assign(n, 1.0);
    granularity.assign(n, 1.0);
    retention.assign(n, 1.0);
  }

  /// One provider's σ columns from its σ_i^a per policy tuple, already
  /// resolved (override, then default, then ones) by the caller.
  void FillFor(const std::vector<const DimensionSensitivity*>& per_tuple);
};

/// The policy side of the severity kernel, built once per `Analyze`: level
/// columns plus the purpose-resolved attribute sensitivities Σ^a (Eq. 10),
/// which depend only on the policy tuple, never the provider.
struct PolicyColumns {
  TupleLevelColumns levels;
  std::vector<double> attr_sens;

  size_t size() const { return levels.size(); }

  static PolicyColumns Build(const std::vector<PolicyTuple>& tuples,
                             const SensitivityModel& model);
};

}  // namespace ppdb::privacy

#endif  // PPDB_PRIVACY_TUPLE_COLUMNS_H_
