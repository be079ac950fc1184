#ifndef PPDB_VIOLATION_WHAT_IF_H_
#define PPDB_VIOLATION_WHAT_IF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "privacy/config.h"
#include "violation/detector.h"
#include "violation/utility.h"

namespace ppdb::violation {

class ViolationView;

/// One widening move in a policy-expansion schedule (§9): increase
/// `dimension` by `delta` levels (clamped to the scale) on every policy
/// tuple, or only on the tuples for `attribute` when set.
struct ExpansionStep {
  privacy::Dimension dimension = privacy::Dimension::kVisibility;
  int delta = 1;
  std::optional<std::string> attribute;
};

/// The measured state after applying a prefix of the expansion schedule.
/// Point 0 is the baseline (unmodified) policy; point k reflects steps
/// 1..k applied cumulatively.
struct ExpansionPoint {
  int step_index = 0;
  /// The widened policy at this point.
  privacy::HousePolicy policy;
  /// Census P(W) against the full initial population.
  double p_violation = 0.0;
  /// Census P(Default) against the full initial population.
  double p_default = 0.0;
  /// Violations (Eq. 16) at this policy.
  double total_violations = 0.0;
  /// N_future = N_current − defaults (Eq. 26).
  int64_t n_remaining = 0;
  int64_t num_defaulted = 0;
  /// Utility_current = N_current × U (Eq. 25) — the baseline the expansion
  /// must beat.
  double utility_current = 0.0;
  /// Utility_future = N_future × (U + T_k) (Eq. 27), with T_k the
  /// cumulative extra utility modelled for this point.
  double utility_future = 0.0;
  /// T_k used above.
  double extra_utility = 0.0;
  /// Break-even T (Eq. 31): the minimum extra utility per provider that
  /// justifies this point. +inf when every provider defaulted.
  double break_even_extra_utility = 0.0;
  /// Eq. 28: utility_future > utility_current.
  bool justified = false;
};

/// Replays "what if the house widened its policy like this?" scenarios
/// against a fixed provider population (§9 and the 'what if' scenarios of
/// §10).
///
/// The initial population (the config's providers) is held fixed; each
/// schedule point re-runs the violation detector and default model against
/// the cumulatively widened policy (`RunSchedule`), or asks a maintained
/// view for the delta (`RunScheduleFromView`). Extra utility is modelled as
/// `extra_utility_per_step × k` at point k — each widening step unlocks the
/// same additional per-provider value, the simplest model consistent with
/// §9's "additional utility above U per data provider available to the
/// house due to the expansion of its privacy policy".
class WhatIfAnalyzer {
 public:
  struct Options {
    /// U in Eq. 25; must be positive.
    double utility_per_provider = 1.0;
    /// Extra per-provider utility unlocked by each widening step.
    double extra_utility_per_step = 0.0;
    /// Forwarded to the violation detector at every point. Its `deadline`
    /// also bounds the sweep itself: `RunSchedule` polls the token between
    /// schedule points and returns `kDeadlineExceeded` ("evaluated k of n
    /// schedule points") when it expires mid-sweep.
    ViolationDetector::Options detector_options;
    /// Threads used to evaluate schedule points concurrently (0 = hardware
    /// concurrency, 1 = serial). The cumulative policies are built
    /// serially first, so points are independent; they are reported in
    /// schedule order and every point's report is thread-count
    /// independent — results are identical at any setting. Within-point
    /// parallelism is controlled separately by
    /// `detector_options.num_threads`.
    int num_threads = 1;
  };

  /// `config` must outlive the analyzer.
  WhatIfAnalyzer(const privacy::PrivacyConfig* config, Options options);

  /// Evaluates the baseline and every cumulative prefix of `steps`;
  /// returns steps.size() + 1 points.
  Result<std::vector<ExpansionPoint>> RunSchedule(
      const std::vector<ExpansionStep>& steps) const;

  /// The same schedule answered from `view`, a maintained view over this
  /// analyzer's config: point 0 from the view's counters, every later
  /// point from `ViolationView::AssessPolicyChange`. A widening keeps the
  /// policy shape, so each point is an O(N·Δ) delta, serial, with no
  /// detector. The points are bitwise those `RunSchedule` returns when the
  /// view was built with the analysis settings of `detector_options`
  /// (hierarchy, data table, implicit zeros).
  /// `detector_options.deadline` is polled between points and inside each
  /// assessment; `num_threads` is not used.
  Result<std::vector<ExpansionPoint>> RunScheduleFromView(
      const ViolationView& view, const std::vector<ExpansionStep>& steps) const;

  /// Convenience: a schedule of `count` unit widenings of `dimension`.
  static std::vector<ExpansionStep> UniformSchedule(
      privacy::Dimension dimension, int count);

 private:
  /// The baseline policy followed by the cumulative widenings of `steps`.
  Result<std::vector<privacy::HousePolicy>> CumulativePolicies(
      const std::vector<ExpansionStep>& steps) const;

  Result<ExpansionPoint> Evaluate(int step_index,
                                  privacy::HousePolicy policy) const;

  /// Eqs. 25-31 at one point from its population counts: the one place
  /// the what-if arithmetic lives, shared by both schedule runners.
  Result<ExpansionPoint> MakePoint(int step_index, privacy::HousePolicy policy,
                                   int64_t n_current, int64_t num_violated,
                                   int64_t num_defaulted,
                                   double total_violations) const;

  /// The deadline error of a sweep stopped after `evaluated` of `total`
  /// points.
  static Status SweepExpired(int64_t evaluated, int64_t total);

  const privacy::PrivacyConfig* config_;
  Options options_;
};

}  // namespace ppdb::violation

#endif  // PPDB_VIOLATION_WHAT_IF_H_
