#ifndef PPDB_PRIVACY_PROVIDER_PREFS_H_
#define PPDB_PRIVACY_PROVIDER_PREFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "privacy/attribute.h"
#include "privacy/ordered_scale.h"
#include "privacy/privacy_tuple.h"
#include "privacy/purpose.h"

namespace ppdb::privacy {

/// Identifier of a data provider (matches `rel::ProviderId`).
using ProviderId = int64_t;

/// ProviderPref_i (Eq. 5): the privacy preferences of one data provider —
/// one privacy tuple per (attribute, purpose) the provider has an opinion
/// about.
///
/// The preferences are stored as id-keyed rows: each row holds the
/// attribute's id in an `AttributeRegistry` and the tuple, whose purpose
/// is the row's purpose. An entry of a `PreferenceStore` shares the
/// store's registry; a free-standing object has one of its own. The
/// name-taking methods intern or look up the name once; `Stated` and
/// `rows` serve callers that resolved ids already.
///
/// Def. 1's implicit rule is exposed as `EffectivePreference`: when the
/// provider has stated no preference for a purpose a policy mentions, the
/// model substitutes the zero tuple <a, pr, 0, 0, 0> ("the individual does
/// not prefer to reveal her information for purpose pr").
class ProviderPreferences {
 public:
  /// One stated preference <i, a, p> (Eq. 5), with `a` interned.
  struct Row {
    AttributeId attribute = 0;
    PrivacyTuple tuple;
  };

  explicit ProviderPreferences(ProviderId provider);

  ProviderId provider() const { return provider_; }

  /// Adds the preference tuple <i, attribute, tuple>. Errors when one
  /// already exists for this (attribute, purpose).
  Status Add(std::string_view attribute, const PrivacyTuple& tuple);

  /// Replaces (or inserts) the preference for (attribute, tuple.purpose).
  void Set(std::string_view attribute, const PrivacyTuple& tuple);

  /// Removes the preference for (attribute, purpose); kNotFound when absent.
  Status Remove(std::string_view attribute, PurposeId purpose);

  /// ProviderPref_i^j (Eq. 6): all stated preferences for `attribute`.
  std::vector<PreferenceTuple> ForAttribute(std::string_view attribute) const;

  /// The stated preference for (attribute, purpose); kNotFound when absent.
  Result<PrivacyTuple> Find(std::string_view attribute,
                            PurposeId purpose) const;

  /// The stated tuple for (attribute id, purpose), or nullptr: the
  /// analysis' lookup, an integer scan of the rows with no name and no
  /// status built.
  const PrivacyTuple* Stated(AttributeId attribute, PurposeId purpose) const;

  /// The preference used in violation assessment for (attribute, purpose):
  /// the stated one, or the zero tuple when none was stated (Def. 1).
  PrivacyTuple EffectivePreference(std::string_view attribute,
                                   PurposeId purpose) const;

  /// All stated preferences, in stated order (a `Set` that replaces keeps
  /// its row's place).
  const std::vector<Row>& rows() const { return rows_; }

  /// The same rows with attribute names resolved (a copy).
  std::vector<PreferenceTuple> tuples() const;

  /// The registry `rows()` ids refer to.
  const AttributeRegistry& attributes() const { return *attributes_; }

  int64_t size() const { return static_cast<int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  /// Validates all tuples against `scales`.
  Status ValidateAgainst(const ScaleSet& scales) const;

 private:
  friend class PreferenceStore;

  ProviderPreferences(ProviderId provider,
                      std::shared_ptr<AttributeRegistry> attributes);

  ProviderId provider_;
  std::shared_ptr<AttributeRegistry> attributes_;
  std::vector<Row> rows_;
};

/// The preferences of every provider known to the system, keyed by provider
/// id. Ordered map: iteration order (and thus every census-style estimator)
/// is deterministic.
///
/// The store owns the attribute registry its entries share. A copy gets a
/// registry of its own, so a copied store (and a copied `PrivacyConfig`)
/// answers the same after the original is mutated or destroyed.
class PreferenceStore {
 public:
  PreferenceStore();
  PreferenceStore(const PreferenceStore& other);
  PreferenceStore& operator=(const PreferenceStore& other);
  /// Leaves `other` an empty, usable store.
  PreferenceStore(PreferenceStore&& other) noexcept;
  PreferenceStore& operator=(PreferenceStore&& other) noexcept;

  /// Returns the preferences object for `provider`, creating an empty one on
  /// first access.
  ProviderPreferences& ForProvider(ProviderId provider);

  /// Read-only lookup; kNotFound when the provider has never been added.
  Result<const ProviderPreferences*> Find(ProviderId provider) const;

  /// True iff the provider has an entry (possibly with zero tuples).
  bool Contains(ProviderId provider) const;

  /// Removes a provider's preferences (e.g. after default + erasure).
  Status Erase(ProviderId provider);

  /// Number of providers with entries.
  int64_t num_providers() const { return static_cast<int64_t>(prefs_.size()); }

  /// Provider ids in ascending order.
  std::vector<ProviderId> ProviderIds() const;

  /// Every entry by ascending provider id, for walks beside an ascending
  /// provider sequence.
  const std::map<ProviderId, ProviderPreferences>& entries() const {
    return prefs_;
  }

  /// The registry every entry's row ids refer to.
  const AttributeRegistry& attributes() const { return *attributes_; }

  /// Validates every provider's tuples against `scales`.
  Status ValidateAgainst(const ScaleSet& scales) const;

 private:
  std::shared_ptr<AttributeRegistry> attributes_;
  std::map<ProviderId, ProviderPreferences> prefs_;
};

}  // namespace ppdb::privacy

#endif  // PPDB_PRIVACY_PROVIDER_PREFS_H_
