#include "privacy/sensitivity.h"

#include <tuple>
#include <utility>

#include "common/macros.h"

namespace ppdb::privacy {

namespace {

/// `map[key] = value`, appending with an end hint when `key` sorts after
/// every entry: the DSL serializer writes σ in key order, so a load
/// inserts each entry in constant time instead of walking the tree.
template <typename Map, typename Key, typename Value>
void AssignHintedLast(Map& map, Key&& key, const Value& value) {
  if (map.empty() || map.key_comp()(map.rbegin()->first, key)) {
    map.emplace_hint(map.end(), std::forward<Key>(key), value);
    return;
  }
  map.insert_or_assign(std::forward<Key>(key), value);
}

}  // namespace

Result<double> DimensionSensitivity::ForDimension(Dimension dim) const {
  switch (dim) {
    case Dimension::kVisibility:
      return visibility;
    case Dimension::kGranularity:
      return granularity;
    case Dimension::kRetention:
      return retention;
    case Dimension::kPurpose:
      return Status::InvalidArgument(
          "purpose carries no dimension sensitivity");
  }
  return Status::Internal("unhandled dimension");
}

Status DimensionSensitivity::Validate() const {
  if (value < 0.0 || visibility < 0.0 || granularity < 0.0 ||
      retention < 0.0) {
    return Status::InvalidArgument("sensitivities must be non-negative");
  }
  return Status::OK();
}

Status SensitivityModel::SetAttributeSensitivity(std::string_view attribute,
                                                 double value) {
  if (value < 0.0) {
    return Status::InvalidArgument("attribute sensitivity must be >= 0");
  }
  attribute_default_[std::string(attribute)] = value;
  return Status::OK();
}

Status SensitivityModel::SetAttributeSensitivityForPurpose(
    std::string_view attribute, PurposeId purpose, double value) {
  if (value < 0.0) {
    return Status::InvalidArgument("attribute sensitivity must be >= 0");
  }
  attribute_by_purpose_[{std::string(attribute), purpose}] = value;
  return Status::OK();
}

Status SensitivityModel::SetProviderSensitivity(
    ProviderId provider, std::string_view attribute,
    const DimensionSensitivity& sensitivity) {
  PPDB_RETURN_NOT_OK(sensitivity.Validate());
  AssignHintedLast(provider_default_,
                   std::pair<ProviderId, std::string>(provider, attribute),
                   sensitivity);
  return Status::OK();
}

Status SensitivityModel::SetProviderSensitivityForPurpose(
    ProviderId provider, std::string_view attribute, PurposeId purpose,
    const DimensionSensitivity& sensitivity) {
  PPDB_RETURN_NOT_OK(sensitivity.Validate());
  AssignHintedLast(provider_by_purpose_,
                   std::tuple<ProviderId, std::string, PurposeId>(
                       provider, attribute, purpose),
                   sensitivity);
  return Status::OK();
}

double SensitivityModel::AttributeSensitivity(std::string_view attribute,
                                              PurposeId purpose) const {
  auto by_purpose =
      attribute_by_purpose_.find({std::string(attribute), purpose});
  if (by_purpose != attribute_by_purpose_.end()) return by_purpose->second;
  auto it = attribute_default_.find(attribute);
  if (it != attribute_default_.end()) return it->second;
  return 1.0;
}

bool SensitivityModel::HasEntriesFor(ProviderId provider) const {
  auto by_default = provider_default_.lower_bound({provider, std::string()});
  if (by_default != provider_default_.end() &&
      by_default->first.first == provider) {
    return true;
  }
  auto by_purpose = provider_by_purpose_.lower_bound(
      {provider, std::string(), PurposeId{}});
  return by_purpose != provider_by_purpose_.end() &&
         std::get<0>(by_purpose->first) == provider;
}

DimensionSensitivity SensitivityModel::ProviderSensitivity(
    ProviderId provider, std::string_view attribute,
    PurposeId purpose) const {
  auto by_purpose = provider_by_purpose_.find(
      {provider, std::string(attribute), purpose});
  if (by_purpose != provider_by_purpose_.end()) return by_purpose->second;
  auto it = provider_default_.find({provider, std::string(attribute)});
  if (it != provider_default_.end()) return it->second;
  return DimensionSensitivity{};
}

}  // namespace ppdb::privacy
