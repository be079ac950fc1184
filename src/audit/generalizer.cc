#include "audit/generalizer.h"

#include <cmath>
#include <cstdio>

#include "common/macros.h"
#include "common/string_util.h"

namespace ppdb::audit {

namespace {

/// Fallback: suppress at 0, "*" at 1, exact rendering above.
class DefaultGeneralizer final : public ValueGeneralizer {
 public:
  Result<rel::Value> Generalize(const rel::Value& value,
                                int level) const override {
    if (value.is_null() || level <= 0) return rel::Value::Null();
    if (level == 1) return rel::Value::String("*");
    return rel::Value::String(value.ToString());
  }
};

std::string FormatBound(double v) {
  char buf[48];
  // Integral bounds render without a decimal point.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

}  // namespace

NumericRangeGeneralizer::NumericRangeGeneralizer(
    std::vector<double> level_widths)
    : level_widths_(std::move(level_widths)) {}

Result<rel::Value> NumericRangeGeneralizer::Generalize(
    const rel::Value& value, int level) const {
  if (value.is_null() || level <= 0) return rel::Value::Null();
  if (static_cast<size_t>(level) >= level_widths_.size()) {
    return rel::Value::String(value.ToString());
  }
  PPDB_ASSIGN_OR_RETURN(double v, value.AsNumeric());
  double width = level_widths_[static_cast<size_t>(level)];
  if (width <= 0.0) return rel::Value::String("*");
  double lo = std::floor(v / width) * width;
  return rel::Value::String(
      StrCat({"[", FormatBound(lo), ", ", FormatBound(lo + width), ")"}));
}

CategoryGeneralizer::CategoryGeneralizer(std::vector<LevelMap> level_maps,
                                         bool passthrough_unmapped)
    : level_maps_(std::move(level_maps)),
      passthrough_unmapped_(passthrough_unmapped) {}

Result<rel::Value> CategoryGeneralizer::Generalize(const rel::Value& value,
                                                   int level) const {
  if (value.is_null() || level <= 0) return rel::Value::Null();
  if (static_cast<size_t>(level) >= level_maps_.size()) {
    return rel::Value::String(value.ToString());
  }
  PPDB_ASSIGN_OR_RETURN(std::string key, value.AsString());
  const LevelMap& map = level_maps_[static_cast<size_t>(level)];
  auto it = map.find(key);
  if (it == map.end()) {
    if (passthrough_unmapped_) return rel::Value::String("*");
    return Status::NotFound("value '" + key +
                            "' has no generalization at level " +
                            std::to_string(level));
  }
  return rel::Value::String(it->second);
}

GeneralizerRegistry::GeneralizerRegistry()
    : fallback_(std::make_unique<DefaultGeneralizer>()) {}

void GeneralizerRegistry::Register(
    std::string_view attribute,
    std::unique_ptr<ValueGeneralizer> generalizer) {
  by_attribute_[std::string(attribute)] = std::move(generalizer);
}

const ValueGeneralizer& GeneralizerRegistry::ForAttribute(
    std::string_view attribute) const {
  auto it = by_attribute_.find(attribute);
  if (it != by_attribute_.end()) return *it->second;
  return *fallback_;
}

GeneralizerRegistry BuildGeneralizers(
    const std::map<std::string, std::vector<double>>& numeric_generalizers) {
  GeneralizerRegistry registry;
  for (const auto& [attribute, widths] : numeric_generalizers) {
    registry.Register(attribute,
                      std::make_unique<NumericRangeGeneralizer>(widths));
  }
  return registry;
}

}  // namespace ppdb::audit
