#include "privacy/ordered_scale.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace ppdb::privacy {

Result<OrderedScale> OrderedScale::Create(
    Dimension dimension, std::vector<std::string> level_names) {
  if (dimension == Dimension::kPurpose) {
    return Status::InvalidArgument(
        "purpose is categorical and has no ordered scale (assumption 4)");
  }
  if (level_names.empty()) {
    return Status::InvalidArgument("a scale needs at least one level");
  }
  for (const std::string& name : level_names) {
    if (!IsValidIdentifier(name)) {
      return Status::InvalidArgument("invalid level name: '" + name + "'");
    }
  }
  OrderedScale scale(dimension, std::move(level_names));
  if (scale.index_.size() != scale.names_.size()) {
    return Status::InvalidArgument("duplicate level name in scale");
  }
  return scale;
}

OrderedScale::OrderedScale(Dimension dimension, std::vector<std::string> names)
    : dimension_(dimension),
      names_(std::move(names)),
      magnitudes_(names_.size()) {
  for (size_t i = 0; i < names_.size(); ++i) {
    index_.emplace(names_[i], static_cast<int>(i));
  }
}

OrderedScale OrderedScale::DefaultVisibility() {
  return Create(Dimension::kVisibility, {"none", "house", "third_party",
                                         "world"})
      .value();
}

OrderedScale OrderedScale::DefaultGranularity() {
  return Create(Dimension::kGranularity,
                {"none", "existential", "partial", "specific"})
      .value();
}

OrderedScale OrderedScale::DefaultRetention() {
  OrderedScale scale =
      Create(Dimension::kRetention, {"none", "week", "month", "year",
                                     "indefinite"})
          .value();
  PPDB_CHECK_OK(scale.SetMagnitude(0, 0.0));
  PPDB_CHECK_OK(scale.SetMagnitude(1, 7.0));
  PPDB_CHECK_OK(scale.SetMagnitude(2, 30.0));
  PPDB_CHECK_OK(scale.SetMagnitude(3, 365.0));
  PPDB_CHECK_OK(scale.SetMagnitude(4, 36500.0));
  return scale;
}

Result<std::string> OrderedScale::NameOf(int level) const {
  if (!IsValidLevel(level)) {
    return Status::OutOfRange("level " + std::to_string(level) +
                              " outside scale of " +
                              std::to_string(num_levels()) + " levels");
  }
  return names_[static_cast<size_t>(level)];
}

Result<int> OrderedScale::LevelOf(std::string_view name) const {
  std::optional<int> level = FindLevel(name);
  if (!level.has_value()) {
    return Status::NotFound("no level named '" + std::string(name) +
                            "' on scale " + ToString());
  }
  return *level;
}

std::optional<int> OrderedScale::FindLevel(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Status OrderedScale::SetMagnitude(int level, double magnitude) {
  if (!IsValidLevel(level)) {
    return Status::OutOfRange("level " + std::to_string(level) +
                              " outside scale");
  }
  magnitudes_[static_cast<size_t>(level)] = magnitude;
  return Status::OK();
}

Result<double> OrderedScale::MagnitudeOf(int level) const {
  if (!IsValidLevel(level)) {
    return Status::OutOfRange("level " + std::to_string(level) +
                              " outside scale");
  }
  const std::optional<double>& m = magnitudes_[static_cast<size_t>(level)];
  return m.has_value() ? *m : static_cast<double>(level);
}

std::string OrderedScale::ToString() const {
  std::string out(DimensionName(dimension_));
  out += "{";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += " < ";
    out += names_[i];
  }
  out += "}";
  return out;
}

Result<OrderedScale*> ScaleSet::MutableForDimension(Dimension dim) {
  switch (dim) {
    case Dimension::kVisibility:
      return &visibility;
    case Dimension::kGranularity:
      return &granularity;
    case Dimension::kRetention:
      return &retention;
    case Dimension::kPurpose:
      return Status::InvalidArgument("purpose has no ordered scale");
  }
  return Status::Internal("unhandled dimension");
}

Result<const OrderedScale*> ScaleSet::ForDimension(Dimension dim) const {
  switch (dim) {
    case Dimension::kVisibility:
      return &visibility;
    case Dimension::kGranularity:
      return &granularity;
    case Dimension::kRetention:
      return &retention;
    case Dimension::kPurpose:
      return Status::InvalidArgument("purpose has no ordered scale");
  }
  return Status::Internal("unhandled dimension");
}

}  // namespace ppdb::privacy
