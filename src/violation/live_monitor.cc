#include "violation/live_monitor.h"

#include <utility>

#include "common/macros.h"
#include "violation/metrics.h"

namespace ppdb::violation {

namespace {

/// Mirrors the view's O(1) aggregates into the violation gauges. Called
/// after every population change so a scrape between full scans still sees
/// current values.
void PublishGauges(const LivePopulationMonitor& monitor) {
  const ViolationMetrics& metrics = ViolationMetrics::Get();
  metrics.pw->Set(monitor.ProbabilityOfViolation());
  metrics.pdefault->Set(monitor.ProbabilityOfDefault());
  metrics.total_severity->Set(monitor.TotalViolations());
  metrics.providers->Set(static_cast<double>(monitor.num_providers()));
}

}  // namespace

Result<LivePopulationMonitor> LivePopulationMonitor::Create(
    privacy::PrivacyConfig config,
    ViolationDetector::Options detector_options) {
  return Materialize(
      LivePopulationMonitor(std::move(config), detector_options));
}

Result<LivePopulationMonitor> LivePopulationMonitor::CreateWithConfigHierarchy(
    privacy::PrivacyConfig config,
    ViolationDetector::Options detector_options) {
  LivePopulationMonitor monitor(std::move(config), detector_options);
  // config_ is heap-held, so the hierarchy pointer survives moves.
  monitor.detector_options_ =
      WithConfigHierarchy(*monitor.config_, detector_options);
  return Materialize(std::move(monitor));
}

Result<LivePopulationMonitor> LivePopulationMonitor::Materialize(
    LivePopulationMonitor monitor) {
  PPDB_ASSIGN_OR_RETURN(
      ViolationView view,
      ViolationView::Create(monitor.config_.get(), monitor.detector_options_));
  monitor.view_.emplace(std::move(view));
  // Registers the ppdb_violation_* families at startup and resets the
  // population gauges for this (new) monitored population.
  PublishGauges(monitor);
  return monitor;
}

LivePopulationMonitor::LivePopulationMonitor(
    privacy::PrivacyConfig config, ViolationDetector::Options detector_options)
    : config_(std::make_unique<privacy::PrivacyConfig>(std::move(config))),
      detector_options_(detector_options) {}

Status LivePopulationMonitor::AddProvider(ProviderId provider,
                                          double threshold) {
  if (config_->preferences.Contains(provider)) {
    return Status::AlreadyExists("provider " + std::to_string(provider) +
                                 " is already monitored");
  }
  config_->preferences.ForProvider(provider);  // Creates the empty entry.
  config_->thresholds[provider] = threshold;
  PPDB_RETURN_NOT_OK(view_->OnProviderAdded(provider));
  PublishGauges(*this);
  return Status::OK();
}

Status LivePopulationMonitor::RemoveProvider(ProviderId provider) {
  if (!config_->preferences.Contains(provider)) {
    return Status::NotFound("provider " + std::to_string(provider) +
                            " is not monitored");
  }
  PPDB_RETURN_NOT_OK(config_->preferences.Erase(provider));
  config_->thresholds.erase(provider);
  PPDB_RETURN_NOT_OK(view_->OnProviderRemoved(provider));
  PublishGauges(*this);
  return Status::OK();
}

Status LivePopulationMonitor::SetPreference(
    ProviderId provider, std::string_view attribute,
    const privacy::PrivacyTuple& tuple) {
  PPDB_RETURN_NOT_OK(tuple.ValidateAgainst(config_->scales));
  config_->preferences.ForProvider(provider).Set(attribute, tuple);
  PPDB_RETURN_NOT_OK(
      view_->OnPreferenceChanged(provider, attribute, tuple.purpose));
  PublishGauges(*this);
  return Status::OK();
}

Status LivePopulationMonitor::RemovePreference(ProviderId provider,
                                               std::string_view attribute,
                                               privacy::PurposeId purpose) {
  if (!config_->preferences.Contains(provider)) {
    return Status::NotFound("provider " + std::to_string(provider) +
                            " is not monitored");
  }
  PPDB_RETURN_NOT_OK(
      config_->preferences.ForProvider(provider).Remove(attribute, purpose));
  PPDB_RETURN_NOT_OK(view_->OnPreferenceChanged(provider, attribute, purpose));
  PublishGauges(*this);
  return Status::OK();
}

Status LivePopulationMonitor::SetThreshold(ProviderId provider,
                                           double threshold) {
  if (!config_->preferences.Contains(provider)) {
    return Status::NotFound("provider " + std::to_string(provider) +
                            " is not monitored");
  }
  if (threshold < 0.0) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  config_->thresholds[provider] = threshold;
  // Severity is unchanged; only the default bit can flip.
  PPDB_RETURN_NOT_OK(view_->OnThresholdChanged(provider));
  PublishGauges(*this);
  return Status::OK();
}

Status LivePopulationMonitor::SetPolicy(privacy::HousePolicy policy) {
  PPDB_RETURN_NOT_OK(policy.ValidateAgainst(config_->scales));
  config_->policy = std::move(policy);
  PPDB_RETURN_NOT_OK(view_->OnPolicyChanged());
  PublishGauges(*this);
  return Status::OK();
}

Result<ProviderViolation> LivePopulationMonitor::ForProvider(
    ProviderId provider) const {
  return view_->MaterializeProvider(provider);
}

Result<bool> LivePopulationMonitor::IsDefaulted(ProviderId provider) const {
  PPDB_ASSIGN_OR_RETURN(const ViolationView::ProviderSummary summary,
                        view_->Summarize(provider));
  return summary.defaulted;
}

}  // namespace ppdb::violation
