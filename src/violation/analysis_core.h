#ifndef PPDB_VIOLATION_ANALYSIS_CORE_H_
#define PPDB_VIOLATION_ANALYSIS_CORE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
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

/// Lists of items under dense integer keys, stored flat: key k's items are
/// items[offsets[k] .. offsets[k + 1]), in the order they were given.
template <typename T>
struct KeyedLists {
  std::vector<uint32_t> offsets;
  std::vector<T> items;

  /// Key `key`'s items; none for a key outside the built range.
  std::span<const T> Of(int64_t key) const {
    if (key < 0 || key + 1 >= static_cast<int64_t>(offsets.size())) return {};
    return {items.data() + offsets[static_cast<size_t>(key)],
            items.data() + offsets[static_cast<size_t>(key) + 1]};
  }

  static KeyedLists Build(int64_t num_keys,
                          const std::vector<std::pair<int64_t, T>>& entries) {
    KeyedLists out;
    out.offsets.assign(static_cast<size_t>(num_keys) + 1, 0);
    for (const auto& entry : entries) {
      ++out.offsets[static_cast<size_t>(entry.first) + 1];
    }
    for (size_t k = 1; k < out.offsets.size(); ++k) {
      out.offsets[k] += out.offsets[k - 1];
    }
    out.items.resize(entries.size());
    std::vector<uint32_t> next(out.offsets.begin(), out.offsets.end() - 1);
    for (const auto& [key, item] : entries) {
      out.items[next[static_cast<size_t>(key)]++] = item;
    }
    return out;
  }
};

/// A policy cell a stated preference can reach, with the rank of the
/// preference's purpose among the cell's candidates: 0 for the cell's own
/// purpose, k for its k-th ancestor (hierarchy extension).
struct CellRank {
  int32_t cell = 0;
  int32_t rank = 0;
};

/// One house-policy tuple preprocessed for the per-provider inner loop: its
/// attribute interned within the policy and its precomputed ancestor
/// purposes (hierarchy extension), so neither is recomputed per provider.
struct PreparedPolicyTuple {
  const privacy::PolicyTuple* policy = nullptr;
  /// The attribute's index among the policy's distinct attributes.
  int32_t attr_id = -1;
  /// The attribute's column in the data table the analysis is scoped to;
  /// -1 without a table, or when the table has no such column.
  int32_t data_column = -1;
  std::vector<privacy::PurposeId> ancestors;
};

/// A house policy prepared against one config's stores: every attribute
/// resolved to store ids, and the inverse maps from a store row's
/// (attribute id, purpose) to the cells it feeds. One pass over a
/// provider's rows then places every row (`ResolvedRow`), with no name
/// compared and no per-cell search.
struct PreparedPolicy {
  std::vector<PreparedPolicyTuple> tuples;
  /// The policy's own tuple storage, for column builders that consume the
  /// raw (attribute, tuple) sequence.
  const std::vector<privacy::PolicyTuple>* source = nullptr;
  /// Interned policy attribute names; views into the policy's own strings.
  std::vector<std::string_view> attributes;
  std::unordered_map<std::string_view, int32_t> attr_ids;
  /// One more than the largest purpose id a cell or an ancestor names: a
  /// row for any larger purpose can reach no cell.
  int32_t purpose_slots = 0;
  /// Key pref_attr × purpose_slots + purpose: the cells whose Def. 1
  /// selection can see a preference stated for (attribute, purpose).
  KeyedLists<CellRank> pref_cells;
  /// Key sens_attr × (purpose_slots + 1) + purpose + 1, with purpose
  /// `kAnyPurpose` (-1) for the default: the cells a σ row applies to.
  KeyedLists<int32_t> sens_cells;
  /// The cells the two maps cover, ascending; empty for every cell. A
  /// what-if point that moves a few columns maps only those, so a
  /// provider's rows for the other columns are passed over at once.
  std::vector<int32_t> mapped_cells;
  /// The registry sizes the store ids were resolved at. Registries only
  /// grow, so equal sizes mean the ids are current.
  int32_t pref_attributes_seen = 0;
  int32_t sens_attributes_seen = 0;

  /// The interned id of `attribute`, or -1 when the policy never mentions
  /// it (no comparable policy tuple can exist, Eq. 13).
  int32_t AttrId(std::string_view attribute) const {
    auto it = attr_ids.find(attribute);
    return it == attr_ids.end() ? -1 : it->second;
  }

  std::span<const CellRank> PrefCellsOf(privacy::AttributeId attribute,
                                        privacy::PurposeId purpose) const {
    if (purpose < 0 || purpose >= purpose_slots) return {};
    return pref_cells.Of(int64_t{attribute} * purpose_slots + purpose);
  }

  std::span<const int32_t> SensCellsOf(privacy::AttributeId attribute,
                                       privacy::PurposeId purpose) const {
    if (purpose < -1 || purpose >= purpose_slots) return {};
    return sens_cells.Of(int64_t{attribute} * (purpose_slots + 1) + purpose +
                         1);
  }

  /// True iff a store registered an attribute since the ids were resolved:
  /// an attribute the policy names may have been stated for the first time.
  bool StoreIdsStale(const privacy::PrivacyConfig& config) const {
    return config.preferences.attributes().num_attributes() !=
               pref_attributes_seen ||
           config.sensitivities.attributes().num_attributes() !=
               sens_attributes_seen;
  }

  /// Resolves each mapped cell's attribute to its id in the preference
  /// store and in the σ model (one hash lookup per cell and store; an
  /// attribute no row names yet has no id) and rebuilds the row-to-cell
  /// maps.
  void ResolveStoreIds(const privacy::PrivacyConfig& config) {
    const privacy::AttributeRegistry& prefs = config.preferences.attributes();
    const privacy::AttributeRegistry& sens = config.sensitivities.attributes();
    std::vector<std::pair<int64_t, CellRank>> pref_entries;
    std::vector<std::pair<int64_t, int32_t>> sens_entries;
    int64_t pref_keys = 0;
    int64_t sens_keys = 0;
    const size_t mapped =
        mapped_cells.empty() ? tuples.size() : mapped_cells.size();
    for (size_t m = 0; m < mapped; ++m) {
      const int32_t cell =
          mapped_cells.empty() ? static_cast<int32_t>(m) : mapped_cells[m];
      const PreparedPolicyTuple& t = tuples[static_cast<size_t>(cell)];
      const privacy::PurposeId purpose = t.policy->tuple.purpose;
      if (std::optional<privacy::AttributeId> id =
              prefs.Lookup(t.policy->attribute)) {
        const int64_t base = int64_t{*id} * purpose_slots;
        pref_entries.push_back({base + purpose, CellRank{cell, 0}});
        for (size_t a = 0; a < t.ancestors.size(); ++a) {
          pref_entries.push_back(
              {base + t.ancestors[a],
               CellRank{cell, static_cast<int32_t>(a) + 1}});
        }
        pref_keys = std::max(pref_keys, base + purpose_slots);
      }
      if (std::optional<privacy::AttributeId> id =
              sens.Lookup(t.policy->attribute)) {
        const int64_t base = int64_t{*id} * (purpose_slots + 1);
        sens_entries.push_back({base, cell});
        sens_entries.push_back({base + purpose + 1, cell});
        sens_keys = std::max(sens_keys, base + purpose_slots + 1);
      }
    }
    pref_cells = KeyedLists<CellRank>::Build(pref_keys, pref_entries);
    sens_cells = KeyedLists<int32_t>::Build(sens_keys, sens_entries);
    pref_attributes_seen = prefs.num_attributes();
    sens_attributes_seen = sens.num_attributes();
  }
};

/// Prepares `policy` against `config`'s stores and the analysis settings
/// of `options` (hierarchy, data table). With `cells` (ascending), the
/// row-to-cell maps cover only those cells, and a `ResolvedRow` over the
/// result is valid for them alone.
inline PreparedPolicy PreparePolicy(const privacy::HousePolicy& policy,
                                    const ViolationDetector::Options& options,
                                    const privacy::PrivacyConfig& config,
                                    std::vector<int32_t> cells = {}) {
  PreparedPolicy out;
  out.mapped_cells = std::move(cells);
  out.source = &policy.tuples();
  out.tuples.reserve(policy.tuples().size());
  for (const privacy::PolicyTuple& pt : policy.tuples()) {
    PreparedPolicyTuple prepared;
    prepared.policy = &pt;
    auto [it, inserted] = out.attr_ids.try_emplace(
        pt.attribute, static_cast<int32_t>(out.attributes.size()));
    if (inserted) out.attributes.push_back(pt.attribute);
    prepared.attr_id = it->second;
    if (options.data_table != nullptr) {
      Result<int> column = options.data_table->schema().IndexOf(pt.attribute);
      if (column.ok()) prepared.data_column = column.value();
    }
    if (options.purpose_hierarchy != nullptr) {
      prepared.ancestors =
          options.purpose_hierarchy->AncestorsOf(pt.tuple.purpose);
    }
    out.purpose_slots = std::max(out.purpose_slots, pt.tuple.purpose + 1);
    for (privacy::PurposeId ancestor : prepared.ancestors) {
      out.purpose_slots = std::max(out.purpose_slots, ancestor + 1);
    }
    out.tuples.push_back(std::move(prepared));
  }
  out.ResolveStoreIds(config);
  return out;
}

/// One provider's rows in the population store, each nullptr when absent:
/// its stated preferences (absent: it states nothing) and its explicit σ
/// (absent: all-ones).
struct ProviderRows {
  const privacy::ProviderPreferences* prefs = nullptr;
  const privacy::SensitivityModel::Rows* sens = nullptr;
};

/// Looks up an ascending sequence of provider ids in a provider-keyed
/// `std::map` by walking it once beside the sequence: each lookup advances
/// past the smaller keys, amortized O(1), where `find` descends the tree
/// for every provider. `first` is the lowest id that will be looked up.
template <typename Map>
class AscendingLookup {
 public:
  AscendingLookup(const Map& map, ProviderId first)
      : it_(map.lower_bound(first)), end_(map.end()) {}

  /// The value of `provider`, or nullptr; `provider` must not be below
  /// the previous call's.
  const typename Map::mapped_type* Find(ProviderId provider) {
    while (it_ != end_ && it_->first < provider) ++it_;
    return it_ != end_ && it_->first == provider ? &it_->second : nullptr;
  }

 private:
  typename Map::const_iterator it_;
  typename Map::const_iterator end_;
};

/// v_i (Def. 4) for an ascending provider sequence starting at `first`,
/// walking the threshold map once beside it; the values and the fallback
/// rule of `PrivacyConfig::ThresholdFor`.
class ThresholdWalk {
 public:
  ThresholdWalk(const privacy::PrivacyConfig& config, ProviderId first)
      : thresholds_(config.thresholds, first),
        fallback_(config.fallback_threshold) {}

  double Next(ProviderId provider) {
    const double* threshold = thresholds_.Find(provider);
    return threshold != nullptr ? *threshold : fallback_;
  }

 private:
  AscendingLookup<std::map<ProviderId, double>> thresholds_;
  double fallback_;
};

/// `ProviderRows` for an ascending provider sequence starting at `first`:
/// the preference store and the σ entries each walked once beside it.
class ProviderRowsWalk {
 public:
  ProviderRowsWalk(const privacy::PrivacyConfig& config, ProviderId first)
      : prefs_(config.preferences.entries(), first),
        sens_(config.sensitivities.provider_rows()),
        sens_at_(std::lower_bound(
            sens_.begin(), sens_.end(), first,
            [](const privacy::SensitivityModel::ProviderEntry& entry,
               ProviderId id) { return entry.provider < id; })) {}

  ProviderRows Next(ProviderId provider) {
    while (sens_at_ != sens_.end() && sens_at_->provider < provider) {
      ++sens_at_;
    }
    const bool has_sens =
        sens_at_ != sens_.end() && sens_at_->provider == provider;
    return ProviderRows{prefs_.Find(provider),
                        has_sens ? &sens_at_->rows : nullptr};
  }

 private:
  using SensEntries = std::vector<privacy::SensitivityModel::ProviderEntry>;

  AscendingLookup<std::map<ProviderId, privacy::ProviderPreferences>> prefs_;
  const SensEntries& sens_;
  SensEntries::const_iterator sens_at_;
};

/// `ProviderRows` of one provider: a descent of each store, for the
/// one-provider-at-a-time paths (events, materialization).
inline ProviderRows RowsOf(const privacy::PrivacyConfig& config,
                           ProviderId provider) {
  const auto& entries = config.preferences.entries();
  const auto prefs = entries.find(provider);
  return ProviderRows{prefs == entries.end() ? nullptr : &prefs->second,
                      config.sensitivities.RowsFor(provider)};
}

/// One provider's per-cell inputs under a prepared policy: the stated
/// tuple Def. 1 selects for each cell (nullptr when none it can see is
/// stated) and the cell's σ weights. Found by one pass over each of the
/// provider's store rows, each row placed through the policy's row-to-cell
/// maps, instead of a search of the rows per cell.
struct ResolvedRow {
  std::vector<const privacy::PrivacyTuple*> pref;
  /// The rank (`CellRank`) of the selected tuple's purpose; lower wins.
  std::vector<int32_t> pref_rank;
  std::vector<const privacy::DimensionSensitivity*> sens;
  /// 1 where a purpose override set `sens`, which a default never replaces.
  std::vector<uint8_t> sens_override;

  void Resolve(const PreparedPolicy& policy, const ProviderRows& rows) {
    static const privacy::DimensionSensitivity kOnes;
    const size_t n = policy.tuples.size();
    pref.assign(n, nullptr);
    pref_rank.assign(n, INT32_MAX);
    sens.assign(n, &kOnes);
    sens_override.assign(n, 0);
    // Def. 1: a preference stated for the cell's own purpose, else the one
    // for its nearest ancestor. A provider states at most one row per
    // (attribute, purpose), so the lowest rank is a unique choice.
    if (rows.prefs != nullptr) {
      for (const privacy::ProviderPreferences::Row& row : rows.prefs->rows()) {
        for (const CellRank& c :
             policy.PrefCellsOf(row.attribute, row.tuple.purpose)) {
          if (c.rank < pref_rank[c.cell]) {
            pref[c.cell] = &row.tuple;
            pref_rank[c.cell] = c.rank;
          }
        }
      }
    }
    // σ: the purpose override, else the default, else ones — whatever
    // order the rows were set in.
    if (rows.sens != nullptr) {
      for (const privacy::SensitivityModel::Row& row : *rows.sens) {
        const bool is_override =
            row.purpose != privacy::SensitivityModel::kAnyPurpose;
        for (int32_t cell : policy.SensCellsOf(row.attribute, row.purpose)) {
          if (is_override || sens_override[cell] == 0) {
            sens[cell] = &row.sensitivity;
            sens_override[cell] = is_override ? 1 : 0;
          }
        }
      }
    }
  }
};

/// Per-thread buffers for the kernel-backed provider analysis, reused
/// across providers so the hot loop never allocates: the preference-side
/// per-cell resolution, the row columns and kernel outputs, the provider σ
/// columns (filled only for providers with explicit entries), and the
/// violated-attribute dedupe scratch (policy attribute ids).
struct AnalysisScratch {
  ResolvedRow resolved;
  kernel::RowScratch row;
  privacy::SensitivityColumns provider_sens;
  std::vector<int32_t> violated_attributes;
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

/// Pass 1 for a single cell: the preference side of policy tuple j, given
/// the stated tuple Def. 1 selected for it (`ResolvedRow::pref`; nullptr
/// when none is stated, and the implicit zero tuple applies). Pairs Def. 1
/// excludes outright (data-scoped attributes the provider does not supply,
/// unstated purposes under `implicit_zero_preferences = false`) come back
/// inactive and contribute exactly nothing downstream. Both the batch row
/// build and the view's delta recompute call exactly this.
inline CellInputs BuildCell(const ViolationDetector::Options& options,
                            const PreparedPolicy& policy, ProviderId provider,
                            const privacy::PrivacyTuple* pref, size_t j) {
  CellInputs cell;
  const PreparedPolicyTuple& prepared = policy.tuples[j];
  const privacy::PolicyTuple& policy_tuple = *prepared.policy;

  // Data scoping: with a table, only attributes the provider actually
  // supplies (a non-null datum in some owned row) are in play. Providers
  // absent from the table, and attributes it has no column for, supply no
  // data and incur no violations.
  if (options.data_table != nullptr &&
      (prepared.data_column < 0 ||
       !options.data_table->ProviderSuppliesColumn(provider,
                                                   prepared.data_column))) {
    return cell;
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
/// provider has explicit entries — the common census-scale case copies
/// nothing.
inline const privacy::SensitivityColumns* SelectSensitivity(
    const ProviderRows& rows, const ResolvedRow& resolved,
    const privacy::SensitivityColumns& unit_sens,
    privacy::SensitivityColumns& provider_sens) {
  if (rows.sens == nullptr) return &unit_sens;
  provider_sens.FillFor(resolved.sens);
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
      const PreparedPolicyTuple& prepared = policy.tuples[j];
      const privacy::PolicyTuple& policy_tuple = *prepared.policy;
      out.violated = true;
      if (std::find(scratch.violated_attributes.begin(),
                    scratch.violated_attributes.end(), prepared.attr_id) ==
          scratch.violated_attributes.end()) {
        scratch.violated_attributes.push_back(prepared.attr_id);
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
/// `rows` is the provider's store rows (`RowsOf` or a `ProviderRowsWalk`).
inline ProviderViolation AnalyzeOne(
    const ViolationDetector::Options& options, const PreparedPolicy& policy,
    const privacy::PolicyColumns& columns,
    const privacy::SensitivityColumns& unit_sens, ProviderId provider,
    const ProviderRows& rows, AnalysisScratch& scratch) {
  const size_t n = policy.tuples.size();
  kernel::RowScratch& row = scratch.row;
  row.Resize(n);
  scratch.resolved.Resolve(policy, rows);

  // Pass 1 — row build.
  for (size_t j = 0; j < n; ++j) {
    const CellInputs cell =
        BuildCell(options, policy, provider, scratch.resolved.pref[j], j);
    row.pref_v[j] = cell.pref_v;
    row.pref_g[j] = cell.pref_g;
    row.pref_r[j] = cell.pref_r;
    row.active[j] = cell.active;
    row.implicit[j] = cell.implicit;
  }

  const privacy::SensitivityColumns* sens = SelectSensitivity(
      rows, scratch.resolved, unit_sens, scratch.provider_sens);

  // Pass 2 — the batched Eqs. 12-14 kernel over all n pairs.
  const kernel::ConfInput in = MakeConfInput(row, columns, *sens);
  const bool any_exceed = kernel::ConfKernel(in, row.Output(), n);

  // Pass 3 — reduce + incidents.
  return FinishProvider(policy, columns, *sens, provider, any_exceed, scratch);
}

}  // namespace ppdb::violation::internal

#endif  // PPDB_VIOLATION_ANALYSIS_CORE_H_
