#include "privacy/tuple_columns.h"

#include <string>
#include <tuple>

namespace ppdb::privacy {

void SensitivityColumns::FillFor(const SensitivityModel& model,
                                 ProviderId provider,
                                 const std::vector<PolicyTuple>& tuples) {
  // Both provider maps are keyed provider-first, so the provider's entries
  // are one contiguous range of each. Find the two ranges once and resolve
  // every tuple against them, instead of two full map descents per tuple
  // (the per-provider cost of explicit-sensitivity populations). The rule
  // is ProviderSensitivity's: purpose override, then default, then ones.
  const auto& defaults = model.provider_defaults();
  const auto& overrides = model.provider_overrides();
  const auto defaults_begin = defaults.lower_bound({provider, std::string()});
  auto defaults_end = defaults_begin;
  while (defaults_end != defaults.end() &&
         defaults_end->first.first == provider) {
    ++defaults_end;
  }
  const auto overrides_begin =
      overrides.lower_bound({provider, std::string(), PurposeId{}});
  auto overrides_end = overrides_begin;
  while (overrides_end != overrides.end() &&
         std::get<0>(overrides_end->first) == provider) {
    ++overrides_end;
  }

  const size_t n = tuples.size();
  value.resize(n);
  visibility.resize(n);
  granularity.resize(n);
  retention.resize(n);
  for (size_t j = 0; j < n; ++j) {
    const PolicyTuple& pt = tuples[j];
    const DimensionSensitivity* found = nullptr;
    for (auto it = overrides_begin; it != overrides_end && found == nullptr;
         ++it) {
      if (std::get<2>(it->first) == pt.tuple.purpose &&
          std::get<1>(it->first) == pt.attribute) {
        found = &it->second;
      }
    }
    for (auto it = defaults_begin; it != defaults_end && found == nullptr;
         ++it) {
      if (it->first.second == pt.attribute) found = &it->second;
    }
    const DimensionSensitivity s =
        found != nullptr ? *found : DimensionSensitivity{};
    value[j] = s.value;
    visibility[j] = s.visibility;
    granularity[j] = s.granularity;
    retention[j] = s.retention;
  }
}

PolicyColumns PolicyColumns::Build(const std::vector<PolicyTuple>& tuples,
                                   const SensitivityModel& model) {
  PolicyColumns out;
  out.attr_sens.reserve(tuples.size());
  for (const PolicyTuple& pt : tuples) {
    out.levels.Append(pt.tuple);
    out.attr_sens.push_back(
        model.AttributeSensitivity(pt.attribute, pt.tuple.purpose));
  }
  return out;
}

}  // namespace ppdb::privacy
