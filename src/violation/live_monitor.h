#ifndef PPDB_VIOLATION_LIVE_MONITOR_H_
#define PPDB_VIOLATION_LIVE_MONITOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "privacy/config.h"
#include "violation/default_model.h"
#include "violation/detector.h"
#include "violation/incremental.h"

namespace ppdb::violation {

/// Incrementally maintained violation state for a live population.
///
/// §2 wants providers to "continuously monitor the state of their
/// privacy"; recomputing Def. 1 over everyone on every event is O(N·|HP|).
/// The monitor owns the config and a `ViolationView` over it: every event
/// mutates the config, then notifies the view, which recomputes only the
/// affected cells (O(Δ) — a preference edit touches the cells that can see
/// it, a threshold move touches none, a same-shape policy change touches
/// the moved columns) while keeping per-provider results and the
/// P(W)/P(Default) aggregates bitwise-identical to a full re-analysis.
///
/// Thread safety: thread-compatible, externally synchronized. The monitor
/// holds no mutex of its own; `DatabaseService` serializes every mutation
/// under its exclusive writer lock, and takes the shared lock for
/// read-only queries.
///
/// Usage:
///
///   LivePopulationMonitor monitor(std::move(config));
///   monitor.SetPreference(42, "weight", tuple);
///   double pw = monitor.ProbabilityOfViolation();   // O(1)
class LivePopulationMonitor {
 public:
  /// Takes ownership of the config and materializes the view for every
  /// provider in its preference store.
  static Result<LivePopulationMonitor> Create(
      privacy::PrivacyConfig config,
      ViolationDetector::Options detector_options = {});

  /// As `Create`, with the view analyzing the config as it declares
  /// itself: `detector_options` go through `WithConfigHierarchy` against
  /// the config once the monitor owns it.
  static Result<LivePopulationMonitor> CreateWithConfigHierarchy(
      privacy::PrivacyConfig config,
      ViolationDetector::Options detector_options = {});

  LivePopulationMonitor(LivePopulationMonitor&&) noexcept = default;
  LivePopulationMonitor& operator=(LivePopulationMonitor&&) noexcept =
      default;

  // --- events ---------------------------------------------------------

  /// Registers a provider (with no stated preferences yet). Errors when
  /// already present.
  Status AddProvider(ProviderId provider, double threshold);

  /// Removes a provider entirely (preferences, threshold, results).
  Status RemoveProvider(ProviderId provider);

  /// Upserts one preference tuple and delta-refreshes that provider.
  Status SetPreference(ProviderId provider, std::string_view attribute,
                       const privacy::PrivacyTuple& tuple);

  /// Removes one stated preference and delta-refreshes that provider.
  Status RemovePreference(ProviderId provider, std::string_view attribute,
                          privacy::PurposeId purpose);

  /// Updates a provider's default threshold v_i and refreshes the default
  /// bit (no cells are touched — severity cannot change).
  Status SetThreshold(ProviderId provider, double threshold);

  /// Replaces the house policy. A level-only change delta-refreshes the
  /// moved columns; a shape change rebuilds the view.
  Status SetPolicy(privacy::HousePolicy policy);

  // --- queries (O(1) unless noted) --------------------------------------

  int64_t num_providers() const { return view_->num_providers(); }
  int64_t num_violated() const { return view_->num_violated(); }
  int64_t num_defaulted() const { return view_->num_defaulted(); }

  /// Violations (Eq. 16) over the current population.
  double TotalViolations() const { return view_->TotalViolations(); }

  /// Census P(W); 0 when empty.
  double ProbabilityOfViolation() const {
    return view_->ProbabilityOfViolation();
  }

  /// Census P(Default); 0 when empty.
  double ProbabilityOfDefault() const {
    return view_->ProbabilityOfDefault();
  }

  /// Current per-provider result; kNotFound when absent. O(|HP|) — the
  /// view materializes incidents on demand.
  Result<ProviderViolation> ForProvider(ProviderId provider) const;

  /// True iff the provider currently exceeds their threshold.
  Result<bool> IsDefaulted(ProviderId provider) const;

  /// The monitored configuration (read-only; mutate via the event API so
  /// the view stays consistent).
  const privacy::PrivacyConfig& config() const { return *config_; }

  /// The maintained view, for queries answered from materialized state
  /// (expansion checks, what-if) and for the drift oracle. The non-const
  /// overload exists because `CheckDrift`/`RebuildAll` bump counters; it
  /// must only be used under the owner's writer lock.
  const ViolationView& view() const { return *view_; }
  ViolationView& view() { return *view_; }

  /// Materializes a full ViolationReport equivalent to running the batch
  /// detector now. O(N).
  ViolationReport Snapshot() const { return view_->Snapshot(); }

 private:
  LivePopulationMonitor(privacy::PrivacyConfig config,
                        ViolationDetector::Options detector_options);

  /// Builds the view over `monitor`'s config with its detector options.
  static Result<LivePopulationMonitor> Materialize(
      LivePopulationMonitor monitor);

  // Behind a unique_ptr so the view's config pointer survives moves of the
  // monitor (DatabaseService::Create moves the monitor into place).
  std::unique_ptr<privacy::PrivacyConfig> config_;
  ViolationDetector::Options detector_options_;
  // Engaged by Create before the monitor is handed out; optional only
  // because the view itself is built through a fallible factory.
  std::optional<ViolationView> view_;
};

}  // namespace ppdb::violation

#endif  // PPDB_VIOLATION_LIVE_MONITOR_H_
