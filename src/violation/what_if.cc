#include "violation/what_if.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "violation/default_model.h"
#include "violation/incremental.h"

namespace ppdb::violation {

WhatIfAnalyzer::WhatIfAnalyzer(const privacy::PrivacyConfig* config,
                               Options options)
    : config_(config), options_(options) {}

std::vector<ExpansionStep> WhatIfAnalyzer::UniformSchedule(
    privacy::Dimension dimension, int count) {
  std::vector<ExpansionStep> steps;
  steps.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    steps.push_back(ExpansionStep{dimension, 1, std::nullopt});
  }
  return steps;
}

Result<std::vector<privacy::HousePolicy>> WhatIfAnalyzer::CumulativePolicies(
    const std::vector<ExpansionStep>& steps) const {
  std::vector<privacy::HousePolicy> policies;
  policies.reserve(steps.size() + 1);
  policies.push_back(config_->policy);
  for (const ExpansionStep& step : steps) {
    privacy::HousePolicy next;
    if (step.attribute.has_value()) {
      PPDB_ASSIGN_OR_RETURN(
          next, policies.back().WidenedForAttribute(
                    *step.attribute, step.dimension, step.delta,
                    config_->scales));
    } else {
      PPDB_ASSIGN_OR_RETURN(
          next, policies.back().Widened(step.dimension, step.delta,
                                        config_->scales));
    }
    policies.push_back(std::move(next));
  }
  return policies;
}

Status WhatIfAnalyzer::SweepExpired(int64_t evaluated, int64_t total) {
  return Status::DeadlineExceeded(
      "what-if: evaluated " + std::to_string(evaluated) + " of " +
      std::to_string(total) + " schedule points before the deadline expired");
}

Result<std::vector<ExpansionPoint>> WhatIfAnalyzer::RunSchedule(
    const std::vector<ExpansionStep>& steps) const {
  // The cumulative policies are built serially (each widening is cheap and
  // depends on the previous one); the expensive per-point population
  // evaluation then fans out over the pool.
  PPDB_ASSIGN_OR_RETURN(std::vector<privacy::HousePolicy> policies,
                        CumulativePolicies(steps));

  const int64_t n = static_cast<int64_t>(policies.size());
  const Deadline& deadline = options_.detector_options.deadline;
  std::vector<ExpansionPoint> points(static_cast<size_t>(n));
  std::vector<Status> statuses(static_cast<size_t>(n));
  ThreadPool::Shared().ParallelRange(
      0, n, /*grain=*/1, ThreadPool::ResolveThreadCount(options_.num_threads),
      [&](int64_t /*shard*/, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          const size_t at = static_cast<size_t>(k);
          // Deadline checkpoint between points; the detector inside
          // Evaluate polls the same token at provider granularity.
          if (deadline.Expired()) {
            statuses[at] = Status::DeadlineExceeded("schedule point skipped");
            continue;
          }
          Result<ExpansionPoint> point =
              Evaluate(static_cast<int>(k), std::move(policies[at]));
          if (point.ok()) {
            points[at] = std::move(point).value();
          } else {
            statuses[at] = point.status();
          }
        }
      });
  int64_t evaluated = 0;
  for (const Status& status : statuses) {
    if (status.ok()) ++evaluated;
  }
  for (const Status& status : statuses) {
    if (status.IsDeadlineExceeded()) return SweepExpired(evaluated, n);
    PPDB_RETURN_NOT_OK(status);
  }
  return points;
}

Result<std::vector<ExpansionPoint>> WhatIfAnalyzer::RunScheduleFromView(
    const ViolationView& view, const std::vector<ExpansionStep>& steps) const {
  if (&view.config() != config_) {
    return Status::InvalidArgument(
        "what-if: the view must materialize the analyzer's config");
  }
  PPDB_ASSIGN_OR_RETURN(std::vector<privacy::HousePolicy> policies,
                        CumulativePolicies(steps));
  const int64_t n = static_cast<int64_t>(policies.size());
  const Deadline& deadline = options_.detector_options.deadline;
  std::vector<ExpansionPoint> points;
  points.reserve(policies.size());
  for (int64_t k = 0; k < n; ++k) {
    if (deadline.Expired()) return SweepExpired(k, n);
    privacy::HousePolicy& policy = policies[static_cast<size_t>(k)];
    // The baseline is the maintained state itself.
    int64_t violated = view.num_violated();
    int64_t defaulted = view.num_defaulted();
    double total = view.TotalViolations();
    if (k > 0) {
      Result<ChangeImpact> impact = view.AssessPolicyChange(policy, deadline);
      if (!impact.ok()) {
        if (impact.status().IsDeadlineExceeded()) return SweepExpired(k, n);
        return impact.status();
      }
      violated = impact->num_violated_after;
      defaulted = impact->num_defaulted_after;
      total = impact->total_violations_after;
    }
    PPDB_ASSIGN_OR_RETURN(
        ExpansionPoint point,
        MakePoint(static_cast<int>(k), std::move(policy),
                  view.num_providers(), violated, defaulted, total));
    points.push_back(std::move(point));
  }
  return points;
}

Result<ExpansionPoint> WhatIfAnalyzer::Evaluate(
    int step_index, privacy::HousePolicy policy) const {
  // Evaluate the widened policy against the fixed population without
  // copying the (potentially large) preference store: the detector's
  // policy override reads `policy` in place of config's.
  ViolationDetector::Options detector_options = options_.detector_options;
  detector_options.policy_override = &policy;
  ViolationDetector detector(config_, detector_options);
  PPDB_ASSIGN_OR_RETURN(ViolationReport report, detector.Analyze());
  const DefaultReport defaults = ComputeDefaults(report, *config_);
  return MakePoint(step_index, std::move(policy), report.num_providers(),
                   report.num_violated, defaults.num_defaulted,
                   report.total_severity);
}

Result<ExpansionPoint> WhatIfAnalyzer::MakePoint(
    int step_index, privacy::HousePolicy policy, int64_t n_current,
    int64_t num_violated, int64_t num_defaulted,
    double total_violations) const {
  PPDB_ASSIGN_OR_RETURN(
      UtilityModel utility,
      UtilityModel::Create(options_.utility_per_provider));

  ExpansionPoint point;
  point.step_index = step_index;
  point.policy = std::move(policy);
  // Defs. 2 and 5 as census ratios, with the operation order of
  // ViolationReport / DefaultReport.
  point.p_violation = n_current == 0 ? 0.0
                                     : static_cast<double>(num_violated) /
                                           static_cast<double>(n_current);
  point.p_default = n_current == 0 ? 0.0
                                   : static_cast<double>(num_defaulted) /
                                         static_cast<double>(n_current);
  point.total_violations = total_violations;
  point.num_defaulted = num_defaulted;
  point.n_remaining = n_current - num_defaulted;  // Eq. 26
  point.utility_current = utility.CurrentUtility(n_current);
  point.extra_utility =
      options_.extra_utility_per_step * static_cast<double>(step_index);
  point.utility_future =
      utility.FutureUtility(point.n_remaining, point.extra_utility);
  Result<double> break_even =
      utility.BreakEvenExtraUtility(n_current, point.n_remaining);
  point.break_even_extra_utility =
      break_even.ok() ? break_even.value()
                      : std::numeric_limits<double>::infinity();
  point.justified = point.utility_future > point.utility_current;
  return point;
}

}  // namespace ppdb::violation
