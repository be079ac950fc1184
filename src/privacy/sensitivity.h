#ifndef PPDB_PRIVACY_SENSITIVITY_H_
#define PPDB_PRIVACY_SENSITIVITY_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "privacy/attribute.h"
#include "privacy/dimension.h"
#include "privacy/provider_prefs.h"
#include "privacy/purpose.h"

namespace ppdb::privacy {

/// σ_i^j (Eq. 11): the sensitivity element data provider i associates with
/// the datum supplied for attribute A^j —
/// ⟨s_i^j, s_i^j[V], s_i^j[G], s_i^j[R]⟩.
///
/// `value` weights the datum itself; the per-dimension members weight a
/// violation along that axis. All default to 1 (a violation counts exactly
/// its geometric size).
struct DimensionSensitivity {
  double value = 1.0;
  double visibility = 1.0;
  double granularity = 1.0;
  double retention = 1.0;

  /// The weight for an ordered dimension; errors on kPurpose.
  Result<double> ForDimension(Dimension dim) const;

  /// Validates that all members are non-negative (a negative sensitivity
  /// would turn a violation into a benefit, which the model excludes).
  Status Validate() const;

  friend bool operator==(const DimensionSensitivity& a,
                         const DimensionSensitivity& b) {
    return a.value == b.value && a.visibility == b.visibility &&
           a.granularity == b.granularity && a.retention == b.retention;
  }
};

/// The Sensitivity = ⟨σ, Σ⟩ pair of Eq. 10 for one database: the vector Σ of
/// per-attribute sensitivities and the matrix σ of per-provider,
/// per-attribute sensitivity elements.
///
/// Eq. 10 scopes sensitivity factors to a purpose ("Sensitivity factors for
/// each purpose in a private database"); the model supports that via
/// purpose-specific overrides layered over purpose-independent defaults —
/// lookups try (purpose-specific) then (default) then the constant 1.
///
/// σ is stored provider-major: one entry per provider with explicit σ, in
/// ascending provider order, each a short vector of id-keyed rows, the
/// attribute interned in the model's own `AttributeRegistry`. Σ is per
/// attribute, not per provider, and stays keyed by name.
class SensitivityModel {
 public:
  /// The purpose of a provider's purpose-independent σ row.
  static constexpr PurposeId kAnyPurpose = -1;

  /// One explicit σ_i^a: the default (`purpose == kAnyPurpose`) or the
  /// override for one purpose.
  struct Row {
    AttributeId attribute = 0;
    PurposeId purpose = kAnyPurpose;
    DimensionSensitivity sensitivity;
  };
  /// One provider's explicit rows, at most one per (attribute, purpose).
  using Rows = std::vector<Row>;
  /// A provider with explicit σ, and its rows.
  struct ProviderEntry {
    ProviderId provider = 0;
    Rows rows;
  };

  SensitivityModel() = default;

  /// Sets Σ^a, the purpose-independent sensitivity of attribute `a`.
  /// The paper defines Σ^a as an integer; the model accepts any
  /// non-negative double. Errors on negative values.
  Status SetAttributeSensitivity(std::string_view attribute, double value);

  /// Purpose-specific override of Σ^a.
  Status SetAttributeSensitivityForPurpose(std::string_view attribute,
                                           PurposeId purpose, double value);

  /// Sets σ_i^a, provider i's purpose-independent sensitivity for `a`.
  Status SetProviderSensitivity(ProviderId provider,
                                std::string_view attribute,
                                const DimensionSensitivity& sensitivity);

  /// Purpose-specific override of σ_i^a.
  Status SetProviderSensitivityForPurpose(
      ProviderId provider, std::string_view attribute, PurposeId purpose,
      const DimensionSensitivity& sensitivity);

  /// Σ^a for `purpose`: the purpose-specific override if present, else the
  /// default, else 1.
  double AttributeSensitivity(std::string_view attribute,
                              PurposeId purpose) const;

  /// σ_i^a for `purpose`: override, else default, else all-ones.
  DimensionSensitivity ProviderSensitivity(ProviderId provider,
                                           std::string_view attribute,
                                           PurposeId purpose) const;

  /// The provider's explicit rows, or nullptr when it has none — then every
  /// lookup for it is all-ones, and batched analyses share one preset ones
  /// column.
  const Rows* RowsFor(ProviderId provider) const;

  /// The registry the rows' attribute ids refer to.
  const AttributeRegistry& attributes() const { return attributes_; }

  // Read-only views of the explicitly-set entries, for serialization and
  // inspection. Σ is keyed by (attribute) and (attribute, purpose); σ is
  // one entry per provider, ascending, each provider's rows in the order
  // they were first set.
  const std::map<std::string, double, std::less<>>& attribute_defaults()
      const {
    return attribute_default_;
  }
  const std::map<std::pair<std::string, PurposeId>, double>&
  attribute_overrides() const {
    return attribute_by_purpose_;
  }
  const std::vector<ProviderEntry>& provider_rows() const {
    return provider_rows_;
  }

 private:
  /// Upserts the σ row of (provider, attribute, purpose).
  Status SetRow(ProviderId provider, std::string_view attribute,
                PurposeId purpose, const DimensionSensitivity& sensitivity);

  // Keys: (attribute) and (attribute, purpose). std::map keeps behaviour
  // deterministic under iteration in debugging helpers.
  std::map<std::string, double, std::less<>> attribute_default_;
  std::map<std::pair<std::string, PurposeId>, double> attribute_by_purpose_;
  AttributeRegistry attributes_;
  // Sorted by provider. σ is set at load (ascending, so each new provider
  // is an append) and by direct calls, never by population events.
  std::vector<ProviderEntry> provider_rows_;
};

}  // namespace ppdb::privacy

#endif  // PPDB_PRIVACY_SENSITIVITY_H_
