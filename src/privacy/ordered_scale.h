#ifndef PPDB_PRIVACY_ORDERED_SCALE_H_
#define PPDB_PRIVACY_ORDERED_SCALE_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "privacy/dimension.h"

namespace ppdb::privacy {

/// A named total order for one of the ordered privacy dimensions
/// (assumption 2: "values for the granularity, visibility and retention can
/// be put into a total order").
///
/// Level 0 is the least privacy exposure ("none"); higher levels expose
/// more. §6.2: "numerical values can simply be chosen to reflect the
/// orderings" — a scale is exactly that choice, made auditable by naming
/// each level.
///
/// Each level may carry an optional numeric magnitude (e.g. retention levels
/// mapped to days), used by operational components such as the retention
/// sweeper; the violation arithmetic itself uses only the level indices.
class OrderedScale {
 public:
  /// Creates a scale for `dimension` with the given level names ordered from
  /// least to most exposure. Names must be unique valid identifiers and at
  /// least one level is required. Errors on kPurpose, which is not ordered.
  static Result<OrderedScale> Create(Dimension dimension,
                                     std::vector<std::string> level_names);

  /// The canonical scales from the taxonomy paper: visibility
  /// {none, house, third_party, world} and granularity
  /// {none, existential, partial, specific}, plus a retention scale
  /// {none, week, month, year, indefinite} with day magnitudes
  /// {0, 7, 30, 365, +inf as 36500}.
  static OrderedScale DefaultVisibility();
  static OrderedScale DefaultGranularity();
  static OrderedScale DefaultRetention();

  Dimension dimension() const { return dimension_; }

  /// Number of levels.
  int num_levels() const { return static_cast<int>(names_.size()); }

  /// Largest valid level index.
  int max_level() const { return num_levels() - 1; }

  /// Name of level `level`; errors when out of range.
  Result<std::string> NameOf(int level) const;

  /// Level index of the named level; errors with kNotFound.
  Result<int> LevelOf(std::string_view name) const;

  /// Level index of the named level, or nullopt; builds no error text.
  std::optional<int> FindLevel(std::string_view name) const;

  /// All level names, least exposure first.
  const std::vector<std::string>& names() const { return names_; }

  /// True iff `level` is a valid index on this scale.
  bool IsValidLevel(int level) const {
    return level >= 0 && level < num_levels();
  }

  /// Assigns a numeric magnitude (e.g. days for retention) to a level.
  Status SetMagnitude(int level, double magnitude);

  /// Magnitude of `level`; defaults to the level index when unset.
  Result<double> MagnitudeOf(int level) const;

  /// Renders e.g. "visibility{none < house < third_party < world}".
  std::string ToString() const;

 private:
  OrderedScale(Dimension dimension, std::vector<std::string> names);

  Dimension dimension_;
  std::vector<std::string> names_;
  std::vector<std::optional<double>> magnitudes_;
  std::unordered_map<std::string, int, StringHash, std::equal_to<>> index_;
};

/// The bundle of scales for the three ordered dimensions; passed around as
/// the interpretation context for privacy tuples.
struct ScaleSet {
  OrderedScale visibility = OrderedScale::DefaultVisibility();
  OrderedScale granularity = OrderedScale::DefaultGranularity();
  OrderedScale retention = OrderedScale::DefaultRetention();

  /// The scale for `dim`; errors on kPurpose.
  Result<const OrderedScale*> ForDimension(Dimension dim) const;

  /// Mutable access to the scale for `dim`; errors on kPurpose.
  Result<OrderedScale*> MutableForDimension(Dimension dim);
};

}  // namespace ppdb::privacy

#endif  // PPDB_PRIVACY_ORDERED_SCALE_H_
