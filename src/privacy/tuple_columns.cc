#include "privacy/tuple_columns.h"

namespace ppdb::privacy {

void SensitivityColumns::FillFor(
    const std::vector<const DimensionSensitivity*>& per_tuple) {
  const size_t n = per_tuple.size();
  value.resize(n);
  visibility.resize(n);
  granularity.resize(n);
  retention.resize(n);
  for (size_t j = 0; j < n; ++j) {
    value[j] = per_tuple[j]->value;
    visibility[j] = per_tuple[j]->visibility;
    granularity[j] = per_tuple[j]->granularity;
    retention[j] = per_tuple[j]->retention;
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
