#ifndef PPDB_VIOLATION_ANALYSIS_CORE_H_
#define PPDB_VIOLATION_ANALYSIS_CORE_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "privacy/config.h"
#include "privacy/dimension.h"
#include "privacy/tuple_columns.h"
#include "violation/detector.h"
#include "violation/kernel/severity_kernel.h"
#include "violation/report.h"

/// The shared core of the Def. 1 / Eqs. 12-15 evaluation, used by both the
/// batch detector (`detector.cc`) and the incremental view
/// (`incremental.cc`). Keeping a single implementation is what makes the
/// drift-oracle contract enforceable: the maintained view recomputes an
/// affected cell with literally the same code — same preference selection,
/// same kernel, same operation order — that a full `Analyze` would run, so
/// the two can be compared bitwise rather than within a tolerance.
///
/// Internal header: everything here lives in `ppdb::violation::internal`
/// and may change without notice; include it only from src/violation.

namespace ppdb::violation::internal {

/// Providers per block of the canonical Eq. 16 reduction — and, equal by
/// construction, providers per shard of the parallel Analyze loop. Fixed
/// (independent of thread count and of whether the batch or the delta path
/// computed the severities) so the association shape of the population sum
/// is one canonical thing: severities are summed flat within each
/// 512-provider block of the ascending provider order, then block partials
/// are summed in block order. For populations of at most one block this is
/// exactly the flat sum.
inline constexpr int64_t kSeverityReduceBlock = 512;

/// Providers analyzed between deadline polls, in the detector's shards and
/// in the view's population-wide what-if loop. Coarse enough that the
/// steady_clock read is noise, fine enough that an expired request releases
/// its worker within a few hundred providers.
inline constexpr int64_t kDeadlineStride = 128;

/// Σ severity_of(i) for i in [0, n), in the canonical blocked association
/// shape described above. Both the detector's reduce and the view's
/// aggregation tree produce sums with exactly this shape.
template <typename GetSeverity>
double BlockedSeveritySum(int64_t n, GetSeverity&& severity_of) {
  double total = 0.0;
  for (int64_t begin = 0; begin < n; begin += kSeverityReduceBlock) {
    const int64_t end = std::min(n, begin + kSeverityReduceBlock);
    double block = 0.0;
    for (int64_t i = begin; i < end; ++i) block += severity_of(i);
    total += block;
  }
  return total;
}

/// One house-policy tuple preprocessed for the per-provider inner loop: the
/// interned attribute id and the precomputed ancestor purposes (hierarchy
/// extension), so neither is recomputed per provider.
struct PreparedPolicyTuple {
  const privacy::PolicyTuple* policy = nullptr;
  int32_t attr_id = -1;
  std::vector<privacy::PurposeId> ancestors;
};

struct PreparedPolicy {
  std::vector<PreparedPolicyTuple> tuples;
  /// The policy's own tuple storage, for column builders that consume the
  /// raw (attribute, tuple) sequence.
  const std::vector<privacy::PolicyTuple>* source = nullptr;
  /// Interned policy attribute names; views into the policy's own strings.
  std::vector<std::string_view> attributes;
  std::unordered_map<std::string_view, int32_t> attr_ids;

  /// The interned id of `attribute`, or -1 when the policy never mentions
  /// it (no comparable policy tuple can exist, Eq. 13).
  int32_t AttrId(std::string_view attribute) const {
    auto it = attr_ids.find(attribute);
    return it == attr_ids.end() ? -1 : it->second;
  }
};

inline PreparedPolicy PreparePolicy(const privacy::HousePolicy& policy,
                                    const privacy::PurposeHierarchy* hierarchy) {
  PreparedPolicy out;
  out.source = &policy.tuples();
  out.tuples.reserve(policy.tuples().size());
  for (const privacy::PolicyTuple& pt : policy.tuples()) {
    PreparedPolicyTuple prepared;
    prepared.policy = &pt;
    auto [it, inserted] = out.attr_ids.try_emplace(
        pt.attribute, static_cast<int32_t>(out.attributes.size()));
    if (inserted) out.attributes.push_back(pt.attribute);
    prepared.attr_id = it->second;
    if (hierarchy != nullptr) {
      prepared.ancestors = hierarchy->AncestorsOf(pt.tuple.purpose);
    }
    out.tuples.push_back(std::move(prepared));
  }
  return out;
}

/// The flattened preference index: each analyzed provider's stated
/// preferences for policy attributes, packed into one contiguous array with
/// every provider's slice sorted by (attr_id, purpose). The hot loop does
/// binary search over flat memory instead of a per-(provider, policy tuple)
/// map lookup plus linear string scan.
struct FlatPreferenceIndex {
  struct Entry {
    int32_t attr_id = 0;
    privacy::PurposeId purpose = 0;
    privacy::PrivacyTuple tuple;
  };
  std::vector<Entry> entries;
  /// Provider at position i of the sorted provider list owns
  /// entries[offsets[i] .. offsets[i + 1]).
  std::vector<size_t> offsets;

  const privacy::PrivacyTuple* Find(size_t position, int32_t attr_id,
                                    privacy::PurposeId purpose) const {
    const Entry* begin = entries.data() + offsets[position];
    const Entry* end = entries.data() + offsets[position + 1];
    const std::pair<int32_t, privacy::PurposeId> key(attr_id, purpose);
    const Entry* it = std::lower_bound(
        begin, end, key,
        [](const Entry& e, const std::pair<int32_t, privacy::PurposeId>& k) {
          return std::pair(e.attr_id, e.purpose) < k;
        });
    if (it != end && it->attr_id == attr_id && it->purpose == purpose) {
      return &it->tuple;
    }
    return nullptr;
  }
};

inline FlatPreferenceIndex BuildIndex(const std::vector<ProviderId>& providers,
                                      const privacy::PreferenceStore& store,
                                      const PreparedPolicy& policy) {
  FlatPreferenceIndex index;
  index.offsets.reserve(providers.size() + 1);
  index.offsets.push_back(0);
  // Resolve every provider once up front so `entries` can be reserved
  // exactly — regrowing a multi-megabyte vector dominates index build time
  // at census scale.
  std::vector<const privacy::ProviderPreferences*> resolved;
  resolved.reserve(providers.size());
  size_t total_tuples = 0;
  for (ProviderId id : providers) {
    Result<const privacy::ProviderPreferences*> found = store.Find(id);
    const privacy::ProviderPreferences* prefs =
        found.ok() ? found.value() : nullptr;
    resolved.push_back(prefs);
    if (prefs != nullptr) total_tuples += prefs->tuples().size();
  }
  index.entries.reserve(total_tuples);
  for (const privacy::ProviderPreferences* prefs : resolved) {
    if (prefs != nullptr) {
      const size_t slice_begin = index.entries.size();
      for (const privacy::PreferenceTuple& pt : prefs->tuples()) {
        int32_t attr_id = policy.AttrId(pt.attribute);
        if (attr_id < 0) continue;
        index.entries.push_back(
            FlatPreferenceIndex::Entry{attr_id, pt.tuple.purpose, pt.tuple});
      }
      std::sort(index.entries.begin() + static_cast<int64_t>(slice_begin),
                index.entries.end(),
                [](const FlatPreferenceIndex::Entry& a,
                   const FlatPreferenceIndex::Entry& b) {
                  return std::pair(a.attr_id, a.purpose) <
                         std::pair(b.attr_id, b.purpose);
                });
    }
    index.offsets.push_back(index.entries.size());
  }
  return index;
}

/// The `find_pref` of the one-provider-at-a-time paths (the view, and
/// `ViolationDetector::AnalyzeProvider`), read straight from the preference
/// store: the first stated tuple for (attribute, purpose) in the provider's
/// tuple order — the one `ProviderPreferences::Find` selects — without the
/// copy and the NotFound status that `Find` builds on every miss. The batch
/// scan uses `FlatPreferenceIndex` instead. An absent provider states
/// nothing.
inline auto StoreLookup(const privacy::PrivacyConfig& config,
                        ProviderId provider) {
  Result<const privacy::ProviderPreferences*> found =
      config.preferences.Find(provider);
  const privacy::ProviderPreferences* prefs =
      found.ok() ? found.value() : nullptr;
  return [prefs](int32_t /*attr_id*/, std::string_view attribute,
                 privacy::PurposeId purpose) -> const privacy::PrivacyTuple* {
    if (prefs == nullptr) return nullptr;
    for (const privacy::PreferenceTuple& pt : prefs->tuples()) {
      if (pt.tuple.purpose == purpose && pt.attribute == attribute) {
        return &pt.tuple;
      }
    }
    return nullptr;
  };
}

/// Per-thread buffers for the kernel-backed provider analysis, reused
/// across providers so the hot loop never allocates: the preference-side
/// row columns and kernel outputs, the provider σ columns (filled only for
/// providers with explicit entries), and the violated-attribute dedupe
/// scratch.
struct AnalysisScratch {
  kernel::RowScratch row;
  privacy::SensitivityColumns provider_sens;
  std::vector<std::string_view> violated_attributes;
};

/// The Def. 1 preference-side inputs of one (provider, policy tuple) cell.
struct CellInputs {
  int32_t pref_v = 0;
  int32_t pref_g = 0;
  int32_t pref_r = 0;
  /// 0 = excluded from the comparison, -1 (all bits) = live.
  int32_t active = 0;
  uint8_t implicit = 0;
};

/// Pass 1 for a single cell: select the preference tuple Def. 1 compares
/// against policy tuple j — stated for (a, purpose); else (with the
/// hierarchy extension) the most specific stated preference for an ancestor
/// purpose; else the implicit zero tuple. Pairs Def. 1 excludes outright
/// (data-scoped attributes the provider does not supply, unstated purposes
/// under `implicit_zero_preferences = false`) come back inactive and
/// contribute exactly nothing downstream. Both the batch row build and the
/// view's delta recompute call exactly this.
template <typename FindPref>
CellInputs BuildCell(const ViolationDetector::Options& options,
                     const PreparedPolicy& policy, ProviderId provider,
                     FindPref&& find_pref, size_t j) {
  CellInputs cell;
  const PreparedPolicyTuple& prepared = policy.tuples[j];
  const privacy::PolicyTuple& policy_tuple = *prepared.policy;

  // Data scoping: with a table, only attributes the provider actually
  // supplies (a non-null datum in some owned row) are in play. Providers
  // absent from the table supply no data and incur no violations.
  if (options.data_table != nullptr) {
    Result<bool> supplies = options.data_table->ProviderSuppliesAttribute(
        provider, policy_tuple.attribute);
    if (!supplies.ok() || !supplies.value()) return cell;
  }

  const privacy::PrivacyTuple* pref = find_pref(
      prepared.attr_id, policy_tuple.attribute, policy_tuple.tuple.purpose);
  if (pref == nullptr) {
    // Consent to an ancestor purpose covers this specialization; only
    // the levels matter to the kernel, so no purpose rebase is needed.
    for (privacy::PurposeId ancestor : prepared.ancestors) {
      pref = find_pref(prepared.attr_id, policy_tuple.attribute, ancestor);
      if (pref != nullptr) break;
    }
  }
  if (pref != nullptr) {
    cell.pref_v = pref->visibility;
    cell.pref_g = pref->granularity;
    cell.pref_r = pref->retention;
  } else {
    if (!options.implicit_zero_preferences) return cell;
    const privacy::PrivacyTuple zero =
        privacy::PrivacyTuple::ZeroFor(policy_tuple.tuple.purpose);
    cell.pref_v = zero.visibility;
    cell.pref_g = zero.granularity;
    cell.pref_r = zero.retention;
    cell.implicit = 1;
  }
  cell.active = -1;
  return cell;
}

/// σ_i columns for one provider: the shared all-ones preset unless the
/// provider has explicit entries — the common census-scale case skips the
/// per-tuple map lookups entirely.
inline const privacy::SensitivityColumns* SelectSensitivity(
    const privacy::PrivacyConfig& config, const PreparedPolicy& policy,
    ProviderId provider, const privacy::SensitivityColumns& unit_sens,
    privacy::SensitivityColumns& provider_sens) {
  if (!config.sensitivities.HasEntriesFor(provider)) return &unit_sens;
  provider_sens.FillFor(config.sensitivities, provider, *policy.source);
  return &provider_sens;
}

/// Assembles the kernel input block from a filled row and the
/// provider-invariant policy columns.
inline kernel::ConfInput MakeConfInput(
    const kernel::RowScratch& row, const privacy::PolicyColumns& columns,
    const privacy::SensitivityColumns& sens) {
  kernel::ConfInput in;
  in.pref_v = row.pref_v.data();
  in.pref_g = row.pref_g.data();
  in.pref_r = row.pref_r.data();
  in.pol_v = columns.levels.visibility.data();
  in.pol_g = columns.levels.granularity.data();
  in.pol_r = columns.levels.retention.data();
  in.attr_sens = columns.attr_sens.data();
  in.sens_val = sens.value.data();
  in.sens_v = sens.visibility.data();
  in.sens_g = sens.granularity.data();
  in.sens_r = sens.retention.data();
  in.active = row.active.data();
  return in;
}

/// Eq. 15 reduce plus incident reconstruction over a row the kernel just
/// filled. The sum over tuples is association-sensitive, so it stays scalar
/// and in tuple order regardless of dispatch target; inactive rows
/// contribute exactly +0.0, a bitwise no-op on the non-negative running
/// total. Incident reconstruction is entered only when some pair exceeded,
/// scanning rows in tuple order and dimensions in the fixed V, G, R order,
/// so incidents match the pair-at-a-time path exactly.
inline ProviderViolation FinishProvider(const PreparedPolicy& policy,
                                        const privacy::PolicyColumns& columns,
                                        const privacy::SensitivityColumns& sens,
                                        ProviderId provider, bool any_exceed,
                                        AnalysisScratch& scratch) {
  ProviderViolation out;
  out.provider = provider;
  scratch.violated_attributes.clear();
  kernel::RowScratch& row = scratch.row;
  const size_t n = policy.tuples.size();

  for (size_t j = 0; j < n; ++j) out.total_severity += row.conf[j];

  if (any_exceed) {
    for (size_t j = 0; j < n; ++j) {
      const int32_t diffs[3] = {row.diff_v[j], row.diff_g[j], row.diff_r[j]};
      if ((diffs[0] | diffs[1] | diffs[2]) == 0) continue;
      const privacy::PolicyTuple& policy_tuple = *policy.tuples[j].policy;
      out.violated = true;
      if (std::find(scratch.violated_attributes.begin(),
                    scratch.violated_attributes.end(),
                    std::string_view(policy_tuple.attribute)) ==
          scratch.violated_attributes.end()) {
        scratch.violated_attributes.push_back(policy_tuple.attribute);
      }
      if (out.incidents.empty()) {
        // One up-front reservation per violated provider, sized to the
        // policy (see the allocation note in detector.h).
        out.incidents.reserve(n);
      }
      const int32_t pref_levels[3] = {row.pref_v[j], row.pref_g[j],
                                      row.pref_r[j]};
      const int32_t policy_levels[3] = {columns.levels.visibility[j],
                                        columns.levels.granularity[j],
                                        columns.levels.retention[j]};
      const double dim_sens[3] = {sens.visibility[j], sens.granularity[j],
                                  sens.retention[j]};
      for (size_t d = 0; d < privacy::kOrderedDimensions.size(); ++d) {
        if (diffs[d] <= 0) continue;
        // Recompute the Eq. 14 summand with the kernel's exact operation
        // chain, so the stored weighted severity is bit-for-bit the one
        // that entered conf.
        const double weighted = static_cast<double>(diffs[d]) *
                                columns.attr_sens[j] * sens.value[j] *
                                dim_sens[d];
        ViolationIncident incident;
        incident.provider = provider;
        incident.attribute = policy_tuple.attribute;
        incident.purpose = policy_tuple.tuple.purpose;
        incident.dimension = privacy::kOrderedDimensions[d];
        incident.preference_level = pref_levels[d];
        incident.policy_level = policy_levels[d];
        incident.diff = diffs[d];
        incident.weighted_severity = weighted;
        incident.from_implicit_preference = row.implicit[j] != 0;
        out.max_incident_severity =
            std::max(out.max_incident_severity, weighted);
        out.incidents.push_back(std::move(incident));
      }
    }
  }
  out.num_attributes_violated =
      static_cast<int>(scratch.violated_attributes.size());
  return out;
}

/// The Def. 1 / Eq. 14-15 evaluation for one provider, in three passes:
/// build the preference row (SoA columns aligned with the policy columns),
/// run the batched severity kernel over it (Eqs. 12-14), then reduce and —
/// only for exceeding rows — reconstruct the per-dimension incidents.
/// `find_pref` resolves (attr_id, attribute, purpose) to the provider's
/// stated tuple or nullptr.
template <typename FindPref>
ProviderViolation AnalyzeOne(const privacy::PrivacyConfig& config,
                             const ViolationDetector::Options& options,
                             const PreparedPolicy& policy,
                             const privacy::PolicyColumns& columns,
                             const privacy::SensitivityColumns& unit_sens,
                             ProviderId provider, FindPref&& find_pref,
                             AnalysisScratch& scratch) {
  const size_t n = policy.tuples.size();
  kernel::RowScratch& row = scratch.row;
  row.Resize(n);

  // Pass 1 — row build.
  for (size_t j = 0; j < n; ++j) {
    const CellInputs cell = BuildCell(options, policy, provider, find_pref, j);
    row.pref_v[j] = cell.pref_v;
    row.pref_g[j] = cell.pref_g;
    row.pref_r[j] = cell.pref_r;
    row.active[j] = cell.active;
    row.implicit[j] = cell.implicit;
  }

  const privacy::SensitivityColumns* sens = SelectSensitivity(
      config, policy, provider, unit_sens, scratch.provider_sens);

  // Pass 2 — the batched Eqs. 12-14 kernel over all n pairs.
  const kernel::ConfInput in = MakeConfInput(row, columns, *sens);
  const bool any_exceed = kernel::ConfKernel(in, row.Output(), n);

  // Pass 3 — reduce + incidents.
  return FinishProvider(policy, columns, *sens, provider, any_exceed, scratch);
}

}  // namespace ppdb::violation::internal

#endif  // PPDB_VIOLATION_ANALYSIS_CORE_H_
