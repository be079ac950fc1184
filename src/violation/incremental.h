#ifndef PPDB_VIOLATION_INCREMENTAL_H_
#define PPDB_VIOLATION_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "privacy/config.h"
#include "privacy/tuple_columns.h"
#include "violation/analysis_core.h"
#include "violation/change_impact.h"
#include "violation/detector.h"
#include "violation/report.h"

namespace ppdb::violation {

/// The violation quantities of the paper — per-cell conf contributions
/// (Eq. 14), the per-provider Violation_i vector (Eq. 15), house Violations
/// (Eq. 16) and the P(W)/P(Default) counters (Def. 2, Defs. 4-5) — treated
/// as one materialized view with O(Δ) delta maintenance instead of batch
/// outputs.
///
/// The view stores conf for every (provider, policy tuple) cell plus a
/// small aggregation tree over the per-provider severities. An event
/// (preference edit, threshold move, policy change, membership change,
/// datum change) recomputes only its affected cells through exactly the
/// shared analysis core the batch detector runs (`analysis_core.h`) and
/// propagates deltas upward: integer counters move by exact increments,
/// float sums are *re-run* — flat within the affected provider's row in
/// tuple order, flat within the affected 512-provider block, block partials
/// in block order — so every maintained float is bitwise-identical to what
/// a full `ViolationDetector::Analyze` computes from scratch. That is the
/// drift-oracle contract: `CheckDrift` runs the full analysis and compares
/// bitwise, not within a tolerance.
///
/// The view reads `*config` but never mutates it: the owner applies the
/// mutation to the config first, then notifies the view (`On*`). `config`
/// must outlive the view and its address must be stable (hold the config
/// behind a pointer if the owner is movable).
///
/// Thread safety: thread-compatible, externally synchronized — same
/// contract as `LivePopulationMonitor`, which embeds one behind
/// `DatabaseService`'s writer lock.
class ViolationView {
 public:
  /// §9 expansion inequality (Eqs. 25-31) evaluated from maintained
  /// counters — the standing query behind the `expansion-check` command.
  struct ExpansionCheck {
    int64_t n_current = 0;    ///< N
    int64_t n_defaulted = 0;  ///< Σ_i default_i
    int64_t n_future = 0;     ///< N_future (Eq. 26)
    double utility_per_provider = 0.0;  ///< U
    double extra_utility = 0.0;         ///< T
    double utility_current = 0.0;       ///< Eq. 25
    double utility_future = 0.0;        ///< Eq. 27
    bool justified = false;             ///< Eqs. 28-29
    /// Eq. 31 break-even T; meaningful iff `has_break_even` (false when
    /// every provider defaulted — no finite T recovers the loss).
    bool has_break_even = false;
    double break_even_extra_utility = 0.0;
  };

  /// Outcome of one forced full recompute against the maintained state.
  struct DriftReport {
    /// True iff every maintained quantity matched the full analysis
    /// bitwise.
    bool clean = true;
    int64_t providers_checked = 0;
    int64_t mismatched_providers = 0;
    /// First few mismatches, for logs.
    std::string detail;
  };

  /// What-if for a single provider, answered from the view without
  /// touching the rest of the population: only the policy cells that
  /// actually changed are recomputed, so the cost is O(Δ) — independent of
  /// house size N.
  struct ProviderImpact {
    ProviderId provider = 0;
    privacy::PolicyDiff diff;
    double severity_before = 0.0;
    double severity_after = 0.0;
    bool violated_before = false;
    bool violated_after = false;
    bool defaulted_before = false;
    bool defaulted_after = false;
    /// Cells the answer recomputed through the kernel.
    int64_t cells_recomputed = 0;
  };

  /// One provider's maintained answers, read in one lookup — what
  /// `query provider` prints. Nothing is recomputed.
  struct ProviderSummary {
    ProviderId provider = 0;
    /// Violation_i (Eq. 15).
    double severity = 0.0;
    /// w_i (Def. 1).
    bool violated = false;
    /// Per-dimension exceedances: `ProviderViolation::incidents.size()`.
    int64_t incidents = 0;
    /// default_i (Def. 4).
    bool defaulted = false;
  };

  /// Builds the view over `config`'s current population (preference-store
  /// providers plus, when `options.data_table` is set, every provider in
  /// the table — the same population `Analyze` covers). `options` follows
  /// `ViolationDetector::Options`; `policy_override` must be unset (the
  /// view materializes the real policy) and `deadline` is ignored (events
  /// are O(Δ)). `options.num_threads` is used by the drift oracle's full
  /// recompute.
  static Result<ViolationView> Create(const privacy::PrivacyConfig* config,
                                      ViolationDetector::Options options = {});

  ViolationView(ViolationView&&) noexcept = default;
  ViolationView& operator=(ViolationView&&) noexcept = default;
  ViolationView(const ViolationView&) = delete;
  ViolationView& operator=(const ViolationView&) = delete;

  // --- event notifications (the config mutation already happened) -------

  /// Provider joined (or its table rows changed its membership): computes
  /// the provider's full row. Idempotent — recomputes when already present.
  Status OnProviderAdded(ProviderId provider);

  /// Provider left: drops the row. Keeps (and recomputes) the row when the
  /// provider is still in the analyzed population through the data table.
  Status OnProviderRemoved(ProviderId provider);

  /// One stated preference for (attribute, purpose) was set or removed:
  /// recomputes exactly the cells whose Def. 1 selection can see it — the
  /// policy tuples for `attribute` whose purpose is `purpose` or (with the
  /// hierarchy extension) descends from it. Inserts the provider when the
  /// event introduced it.
  Status OnPreferenceChanged(ProviderId provider, std::string_view attribute,
                             privacy::PurposeId purpose);

  /// v_i moved: no cells — only the default bit can flip.
  Status OnThresholdChanged(ProviderId provider);

  /// A datum for (provider, attribute) appeared, changed or disappeared:
  /// recomputes the cells of that attribute (the data-scoping mask may
  /// flip) and resolves the provider's population membership.
  Status OnDatumChanged(ProviderId provider, std::string_view attribute);

  /// The house policy was replaced. When the new policy keeps the same
  /// (attribute, purpose) cell sequence, only the columns whose levels
  /// moved are recomputed — O(N·Δ) instead of O(N·|HP|); a shape change
  /// (tuples added/removed/reordered) rebuilds the view.
  Status OnPolicyChanged();

  /// Full rebuild from the config — the fallback every event path may
  /// degrade to, and the recovery action after a detected drift.
  Status RebuildAll();

  // --- O(1) queries from maintained state -------------------------------

  int64_t num_providers() const {
    return static_cast<int64_t>(providers_.size());
  }
  int64_t num_violated() const { return num_violated_; }
  int64_t num_defaulted() const { return num_defaulted_; }

  /// Violations (Eq. 16); bitwise what a full Analyze would return.
  double TotalViolations() const { return total_severity_; }

  /// Census P(W) (Def. 2); 0 when empty.
  double ProbabilityOfViolation() const {
    return providers_.empty() ? 0.0
                              : static_cast<double>(num_violated_) /
                                    static_cast<double>(providers_.size());
  }

  /// Census P(Default) (Def. 5); 0 when empty.
  double ProbabilityOfDefault() const {
    return providers_.empty() ? 0.0
                              : static_cast<double>(num_defaulted_) /
                                    static_cast<double>(providers_.size());
  }

  bool Contains(ProviderId provider) const;

  /// Violation_i, w_i, incident count and default_i of one provider from
  /// a single O(log N) lookup; kNotFound when absent.
  Result<ProviderSummary> Summarize(ProviderId provider) const;

  /// w_i and default_i of every provider, in ascending provider order —
  /// the order `ViolationReport::providers` uses, so trials drawn over
  /// these flags pick the same providers a report-driven estimate picks.
  /// O(N).
  std::vector<bool> ViolatedFlags() const;
  std::vector<bool> DefaultedFlags() const;

  /// §9 expansion inequality from maintained counters; O(1). Errors when
  /// `utility_per_provider` is not positive (the Eq. 31 algebra divides by
  /// it).
  Result<ExpansionCheck> CheckExpansion(double utility_per_provider,
                                        double extra_utility) const;

  // --- materialization (recomputes incidents on demand) -----------------

  /// The full per-provider result, incidents included. O(|HP|): one row
  /// recompute through the cached policy preparation.
  Result<ProviderViolation> MaterializeProvider(ProviderId provider) const;

  /// A full ViolationReport equivalent to running the batch detector now —
  /// aggregates from maintained state, incidents recomputed for violated
  /// providers only.
  ViolationReport Snapshot() const;

  // --- what-if through the view -----------------------------------------

  /// Before/after assessment of replacing the config's policy with
  /// `new_policy`, with the before side read from maintained state (no
  /// first full scan) and the after side recomputed only for the cells the
  /// change touches when the policy shape is preserved — O(N·Δ), serial,
  /// no detector. Every after-side quantity is bitwise what a full
  /// `Analyze` of `new_policy` reports. `deadline` is polled every
  /// `internal::kDeadlineStride` providers, as the detector's shards poll
  /// it; expiry returns `kDeadlineExceeded`.
  Result<ChangeImpact> AssessPolicyChange(
      const privacy::HousePolicy& new_policy,
      const Deadline& deadline = Deadline()) const;

  /// Same question for one provider; O(Δ), never scales with N.
  Result<ProviderImpact> AssessPolicyChangeForProvider(
      ProviderId provider, const privacy::HousePolicy& new_policy) const;

  // --- drift oracle -----------------------------------------------------

  /// Runs a full `ViolationDetector::Analyze` over the config and compares
  /// every maintained quantity bitwise: per-provider severity, w_i and
  /// default_i, the population counters and the Eq. 16 total. A mismatch
  /// means the delta plumbing is wrong (or the config was mutated behind
  /// the view's back); `RebuildAll` resynchronizes.
  Result<DriftReport> CheckDrift();

  // --- introspection (stats posture, tests) -----------------------------

  /// The config the view materializes.
  const privacy::PrivacyConfig& config() const { return *config_; }

  /// Policy tuples per provider row (|HP| as materialized).
  int64_t policy_tuples() const {
    return static_cast<int64_t>(prepared_.tuples.size());
  }
  /// Materialized cells: providers × policy tuples.
  int64_t total_cells() const { return num_providers() * policy_tuples(); }
  /// Kernel cells recomputed by the most recent event.
  int64_t last_delta_cells() const { return last_delta_cells_; }
  /// Events served by the O(Δ) path since construction.
  int64_t delta_events() const { return delta_events_; }
  /// Events that degraded to a full rebuild.
  int64_t rebuild_events() const { return rebuild_events_; }
  int64_t drift_checks_clean() const { return drift_checks_clean_; }
  int64_t drift_checks_failed() const { return drift_checks_failed_; }

 private:
  /// Per-cell maintained state for one provider row, aligned with the
  /// policy tuple sequence.
  struct Row {
    /// conf(pref, Pol) per cell (Eq. 14), exactly as the kernel computed
    /// it.
    std::vector<double> conf;
    /// Dimensions (0-3) on which the cell's diff is positive: the incidents
    /// the cell contributes. Nonzero is the Def. 1 existence condition at
    /// cell granularity, and the row sum is the provider's incident count.
    std::vector<uint8_t> exceed;
  };

  ViolationView(const privacy::PrivacyConfig* config,
                ViolationDetector::Options options);

  /// Position of `provider` in the ascending provider order, or -1.
  int64_t PositionOf(ProviderId provider) const;
  /// The lowest provider id, where a walk of the stores beside the
  /// population starts (0 when the population is empty).
  ProviderId FirstProvider() const {
    return providers_.empty() ? 0 : providers_.front();
  }
  /// Same, or kNotFound for a provider outside the population.
  Result<int64_t> Locate(ProviderId provider) const;

  /// Cells whose Def. 1 preference selection can observe a stated
  /// preference for (attribute, purpose).
  std::vector<int32_t> CellsForPreference(std::string_view attribute,
                                          privacy::PurposeId purpose) const;
  /// Cells of one attribute (the data-scoping mask's blast radius).
  std::vector<int32_t> CellsForAttribute(std::string_view attribute) const;

  /// Re-resolves the cached policy's store ids when a store registered an
  /// attribute since they were resolved — an event may state, for the
  /// first time, an attribute the policy names. O(1) when nothing new.
  void SyncStoreIds();

  /// True iff the provider belongs to the analyzed population right now.
  bool ShouldExist(ProviderId provider) const;
  /// Inserts / drops / recomputes the provider's row to match
  /// `ShouldExist`, refreshing the aggregation tree. Returns the kernel
  /// cells recomputed.
  int64_t ResyncProvider(ProviderId provider);

  struct GatherScratch {
    std::vector<int32_t> pol_v, pol_g, pol_r;
    std::vector<double> attr_sens, sens_val, sens_v, sens_g, sens_r;
    std::vector<double> out_conf;
    std::vector<uint8_t> out_exceed;
  };

  /// Recomputes exactly `cells` of `provider`'s row against (`policy`,
  /// `columns`) — gathered lanes through the shared kernel, bitwise what a
  /// full row build computes for those cells (the kernel is lane-pure).
  /// `rows` is the provider's store rows. Writes conf and the
  /// exceeding-dimension count per lane; mutates only the caller's
  /// scratch, so const what-if queries can run it with local buffers under
  /// a reader lock.
  void ComputeCells(ProviderId provider, const internal::ProviderRows& rows,
                    const internal::PreparedPolicy& policy,
                    const privacy::PolicyColumns& columns,
                    const std::vector<int32_t>& cells,
                    internal::AnalysisScratch& scratch, GatherScratch& gather,
                    double* conf_out, uint8_t* exceed_out) const;

  /// Recomputes the whole row at `pos` (all cells through the kernel) and
  /// its per-provider summaries against v_i = `threshold`; patches the
  /// integer counters. Does not touch the block sums.
  void ComputeFullRow(int64_t pos, const internal::ProviderRows& rows,
                      double threshold);

  /// Recomputes exactly `cells` of the row at `pos` (gathered kernel call)
  /// and re-derives the row summaries against v_i = `threshold`; patches
  /// the integer counters. Does not touch the block sums.
  void RecomputeCellsLocal(int64_t pos, const internal::ProviderRows& rows,
                           double threshold,
                           const std::vector<int32_t>& cells);

  /// Flat tuple-order resum of row `pos` with `cells` → (conf, exceed)
  /// substituted — the severity/violated a full recompute would produce
  /// after the change, without mutating the view. `cells` must be sorted.
  void PatchedRowSummary(int64_t pos, const std::vector<int32_t>& cells,
                         const double* conf, const uint8_t* exceed,
                         double* severity_out, bool* violated_out) const;

  /// Re-derives severity (flat, tuple order), the incident count and the
  /// default bit (against v_i = `threshold`) of row `pos` from its cells;
  /// patches the integer counters.
  void RefreshRowSummaries(int64_t pos, double threshold);

  /// Recomputes the block partial containing `pos` and the root, in the
  /// canonical shape.
  void RefreshBlockAndTotal(int64_t pos);
  /// Recomputes every block partial and the root (membership changes and
  /// policy-wide deltas).
  void RebuildTree();

  /// Metric + counter bookkeeping for one applied event.
  void CountDelta(int64_t cells, double seconds);
  void CountRebuild(int64_t cells, double seconds);

  const privacy::PrivacyConfig* config_;
  ViolationDetector::Options options_;

  // Cached policy preparation, rebuilt on policy changes only — the
  // per-event cost the old per-provider refresh paid on every preference
  // edit.
  internal::PreparedPolicy prepared_;
  privacy::PolicyColumns columns_;
  privacy::SensitivityColumns unit_sens_;
  /// Copy of the prepared policy's tuple sequence, for the shape diff on
  /// `OnPolicyChanged` (the live policy object is already the new one by
  /// then).
  std::vector<privacy::PolicyTuple> cached_policy_;

  // Per-provider state, position-indexed by ascending provider id.
  std::vector<ProviderId> providers_;
  std::vector<Row> rows_;
  std::vector<double> severity_;
  /// Σ Row::exceed: the provider's incident count; w_i = (incidents > 0).
  std::vector<int32_t> incidents_;
  std::vector<uint8_t> defaulted_;

  // Aggregation tree: per-block severity partials + maintained counters.
  std::vector<double> block_severity_;
  double total_severity_ = 0.0;
  int64_t num_violated_ = 0;
  int64_t num_defaulted_ = 0;

  // Reused scratch for the event (writer) paths only; const query methods
  // allocate locally so concurrent readers never share buffers.
  internal::AnalysisScratch scratch_;
  GatherScratch gather_;

  int64_t last_delta_cells_ = 0;
  int64_t delta_events_ = 0;
  int64_t rebuild_events_ = 0;
  int64_t drift_checks_clean_ = 0;
  int64_t drift_checks_failed_ = 0;
};

}  // namespace ppdb::violation

#endif  // PPDB_VIOLATION_INCREMENTAL_H_
