#include "privacy/provider_prefs.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/macros.h"

namespace ppdb::privacy {

namespace {

/// Matches the row of (attribute, purpose); a provider has at most one.
auto RowFor(AttributeId attribute, PurposeId purpose) {
  return [attribute, purpose](const ProviderPreferences::Row& row) {
    return row.attribute == attribute && row.tuple.purpose == purpose;
  };
}

Status NoPreference(ProviderId provider, std::string_view attribute,
                    PurposeId purpose) {
  return Status::NotFound("provider " + std::to_string(provider) +
                          " has no preference for attribute '" +
                          std::string(attribute) + "' and purpose id " +
                          std::to_string(purpose));
}

}  // namespace

ProviderPreferences::ProviderPreferences(ProviderId provider)
    : ProviderPreferences(provider, std::make_shared<AttributeRegistry>()) {}

ProviderPreferences::ProviderPreferences(
    ProviderId provider, std::shared_ptr<AttributeRegistry> attributes)
    : provider_(provider), attributes_(std::move(attributes)) {}

Status ProviderPreferences::Add(std::string_view attribute,
                                const PrivacyTuple& tuple) {
  // A name the registry has never seen cannot collide, so only a known
  // name needs the duplicate scan; a refused Add registers nothing.
  const std::optional<AttributeId> known = attributes_->Lookup(attribute);
  if (known.has_value() && Stated(*known, tuple.purpose) != nullptr) {
    return Status::AlreadyExists(
        "provider " + std::to_string(provider_) +
        " already has a preference for attribute '" +
        std::string(attribute) + "' and purpose id " +
        std::to_string(tuple.purpose));
  }
  rows_.push_back(
      Row{known.has_value() ? *known : attributes_->Register(attribute),
          tuple});
  return Status::OK();
}

void ProviderPreferences::Set(std::string_view attribute,
                              const PrivacyTuple& tuple) {
  const AttributeId id = attributes_->Register(attribute);
  auto it =
      std::find_if(rows_.begin(), rows_.end(), RowFor(id, tuple.purpose));
  if (it != rows_.end()) {
    it->tuple = tuple;
    return;
  }
  rows_.push_back(Row{id, tuple});
}

Status ProviderPreferences::Remove(std::string_view attribute,
                                   PurposeId purpose) {
  const std::optional<AttributeId> id = attributes_->Lookup(attribute);
  auto it = id.has_value() ? std::find_if(rows_.begin(), rows_.end(),
                                          RowFor(*id, purpose))
                           : rows_.end();
  if (it == rows_.end()) return NoPreference(provider_, attribute, purpose);
  rows_.erase(it);
  return Status::OK();
}

std::vector<PreferenceTuple> ProviderPreferences::ForAttribute(
    std::string_view attribute) const {
  std::vector<PreferenceTuple> out;
  const std::optional<AttributeId> id = attributes_->Lookup(attribute);
  if (!id.has_value()) return out;
  for (const Row& row : rows_) {
    if (row.attribute == *id) {
      out.push_back(PreferenceTuple{provider_, std::string(attribute),
                                    row.tuple});
    }
  }
  return out;
}

Result<PrivacyTuple> ProviderPreferences::Find(std::string_view attribute,
                                               PurposeId purpose) const {
  const std::optional<AttributeId> id = attributes_->Lookup(attribute);
  const PrivacyTuple* stated =
      id.has_value() ? Stated(*id, purpose) : nullptr;
  if (stated == nullptr) return NoPreference(provider_, attribute, purpose);
  return *stated;
}

const PrivacyTuple* ProviderPreferences::Stated(AttributeId attribute,
                                                PurposeId purpose) const {
  auto it = std::find_if(rows_.begin(), rows_.end(),
                         RowFor(attribute, purpose));
  return it == rows_.end() ? nullptr : &it->tuple;
}

PrivacyTuple ProviderPreferences::EffectivePreference(
    std::string_view attribute, PurposeId purpose) const {
  const std::optional<AttributeId> id = attributes_->Lookup(attribute);
  const PrivacyTuple* stated =
      id.has_value() ? Stated(*id, purpose) : nullptr;
  return stated != nullptr ? *stated : PrivacyTuple::ZeroFor(purpose);
}

std::vector<PreferenceTuple> ProviderPreferences::tuples() const {
  std::vector<PreferenceTuple> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    out.push_back(PreferenceTuple{
        provider_, attributes_->NameOf(row.attribute), row.tuple});
  }
  return out;
}

Status ProviderPreferences::ValidateAgainst(const ScaleSet& scales) const {
  for (const Row& row : rows_) {
    Status s = row.tuple.ValidateAgainst(scales);
    if (!s.ok()) {
      return s.WithPrefix("provider " + std::to_string(provider_) +
                          ", attribute '" +
                          attributes_->NameOf(row.attribute) + "'");
    }
  }
  return Status::OK();
}

PreferenceStore::PreferenceStore()
    : attributes_(std::make_shared<AttributeRegistry>()) {}

PreferenceStore::PreferenceStore(const PreferenceStore& other)
    : attributes_(std::make_shared<AttributeRegistry>(*other.attributes_)),
      prefs_(other.prefs_) {
  // The copied entries still point at `other`'s registry.
  for (auto& [id, prefs] : prefs_) prefs.attributes_ = attributes_;
}

PreferenceStore& PreferenceStore::operator=(const PreferenceStore& other) {
  if (this != &other) *this = PreferenceStore(other);
  return *this;
}

PreferenceStore::PreferenceStore(PreferenceStore&& other) noexcept
    : attributes_(std::exchange(other.attributes_,
                                std::make_shared<AttributeRegistry>())),
      prefs_(std::move(other.prefs_)) {
  other.prefs_.clear();
}

PreferenceStore& PreferenceStore::operator=(PreferenceStore&& other) noexcept {
  if (this != &other) {
    attributes_ = std::exchange(other.attributes_,
                                std::make_shared<AttributeRegistry>());
    prefs_ = std::move(other.prefs_);
    other.prefs_.clear();
  }
  return *this;
}

ProviderPreferences& PreferenceStore::ForProvider(ProviderId provider) {
  auto it = prefs_.lower_bound(provider);
  if (it == prefs_.end() || it->first != provider) {
    it = prefs_.emplace_hint(it, provider,
                             ProviderPreferences(provider, attributes_));
  }
  return it->second;
}

Result<const ProviderPreferences*> PreferenceStore::Find(
    ProviderId provider) const {
  auto it = prefs_.find(provider);
  if (it == prefs_.end()) {
    return Status::NotFound("no preferences recorded for provider " +
                            std::to_string(provider));
  }
  return &it->second;
}

bool PreferenceStore::Contains(ProviderId provider) const {
  return prefs_.contains(provider);
}

Status PreferenceStore::Erase(ProviderId provider) {
  if (prefs_.erase(provider) == 0) {
    return Status::NotFound("no preferences recorded for provider " +
                            std::to_string(provider));
  }
  return Status::OK();
}

std::vector<ProviderId> PreferenceStore::ProviderIds() const {
  std::vector<ProviderId> out;
  out.reserve(prefs_.size());
  for (const auto& [id, p] : prefs_) out.push_back(id);
  return out;
}

Status PreferenceStore::ValidateAgainst(const ScaleSet& scales) const {
  for (const auto& [id, p] : prefs_) {
    PPDB_RETURN_NOT_OK(p.ValidateAgainst(scales));
  }
  return Status::OK();
}

}  // namespace ppdb::privacy
