#include "privacy/sensitivity.h"

#include <algorithm>
#include <optional>

#include "common/macros.h"

namespace ppdb::privacy {

namespace {

bool ByProvider(const SensitivityModel::ProviderEntry& entry,
                ProviderId provider) {
  return entry.provider < provider;
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
  return SetRow(provider, attribute, kAnyPurpose, sensitivity);
}

Status SensitivityModel::SetProviderSensitivityForPurpose(
    ProviderId provider, std::string_view attribute, PurposeId purpose,
    const DimensionSensitivity& sensitivity) {
  return SetRow(provider, attribute, purpose, sensitivity);
}

Status SensitivityModel::SetRow(ProviderId provider,
                                std::string_view attribute, PurposeId purpose,
                                const DimensionSensitivity& sensitivity) {
  PPDB_RETURN_NOT_OK(sensitivity.Validate());
  const AttributeId id = attributes_.Register(attribute);
  // A DSL load sets σ grouped by ascending provider, so a new provider is
  // almost always an append.
  auto it = provider_rows_.end();
  if (provider_rows_.empty() || provider_rows_.back().provider < provider) {
    it = provider_rows_.insert(it, ProviderEntry{provider, {}});
  } else {
    it = std::lower_bound(provider_rows_.begin(), provider_rows_.end(),
                          provider, ByProvider);
    if (it->provider != provider) {
      it = provider_rows_.insert(it, ProviderEntry{provider, {}});
    }
  }
  for (Row& row : it->rows) {
    if (row.attribute == id && row.purpose == purpose) {
      row.sensitivity = sensitivity;
      return Status::OK();
    }
  }
  it->rows.push_back(Row{id, purpose, sensitivity});
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

const SensitivityModel::Rows* SensitivityModel::RowsFor(
    ProviderId provider) const {
  auto it = std::lower_bound(provider_rows_.begin(), provider_rows_.end(),
                             provider, ByProvider);
  return it == provider_rows_.end() || it->provider != provider ? nullptr
                                                                : &it->rows;
}

DimensionSensitivity SensitivityModel::ProviderSensitivity(
    ProviderId provider, std::string_view attribute,
    PurposeId purpose) const {
  const std::optional<AttributeId> id = attributes_.Lookup(attribute);
  const Rows* rows = RowsFor(provider);
  if (!id.has_value() || rows == nullptr) return DimensionSensitivity{};
  const Row* fallback = nullptr;
  for (const Row& row : *rows) {
    if (row.attribute != *id) continue;
    if (row.purpose == purpose) return row.sensitivity;
    if (row.purpose == kAnyPurpose) fallback = &row;
  }
  return fallback != nullptr ? fallback->sensitivity : DimensionSensitivity{};
}

}  // namespace ppdb::privacy
