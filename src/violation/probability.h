#ifndef PPDB_VIOLATION_PROBABILITY_H_
#define PPDB_VIOLATION_PROBABILITY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "stats/confidence.h"
#include "violation/default_model.h"
#include "violation/report.h"

namespace ppdb::violation {

/// The outcome of a trial-based relative-frequency estimation (Def. 2 / 5):
/// τ trials of "select a provider uniformly at random (with replacement)
/// and test the event", yielding τ(A)/τ → P(A).
struct TrialEstimate {
  int64_t trials = 0;
  /// τ(A): trials in which the event occurred.
  int64_t hits = 0;
  /// τ(A)/τ.
  double estimate = 0.0;
  /// Wilson 95% confidence interval for the estimate.
  stats::ConfidenceInterval ci95;
  /// The exact census value the estimate approximates (Σ_i a_i / N);
  /// reported so convergence is measurable.
  double census = 0.0;
  /// |estimate − census|.
  double AbsoluteError() const {
    double err = estimate - census;
    return err < 0 ? -err : err;
  }
};

/// The trial core of both estimators: τ trials of "pick a provider
/// uniformly at random (with replacement) and test `event[pick]`" over
/// per-provider flags in ascending provider order; `census` is Σ event / N,
/// reported beside the estimate. Errors when `trials` <= 0 or `event` is
/// empty.
///
/// Trials are split into fixed-size shards, each driven by a sub-RNG whose
/// seed is drawn from `rng` up front in shard order. The estimate is
/// therefore a pure function of (seed, τ, event): `num_threads` (0 =
/// hardware concurrency, 1 = serial) only changes how the shards are
/// scheduled, never the result. The served `estimate` runs this over
/// `ViolationView::ViolatedFlags` / `DefaultedFlags`.
Result<TrialEstimate> EstimateFromFlags(const std::vector<bool>& event,
                                        double census, int64_t trials,
                                        Rng& rng, int num_threads = 1);

/// Estimates P(W) (Def. 2) by τ random trials over the report's providers:
/// `EstimateFromFlags` over their w_i.
Result<TrialEstimate> EstimateViolationProbability(
    const ViolationReport& report, int64_t trials, Rng& rng,
    int num_threads = 1);

/// Estimates P(Default) (Def. 5) by τ random trials:
/// `EstimateFromFlags` over the report's default_i.
Result<TrialEstimate> EstimateDefaultProbability(const DefaultReport& report,
                                                 int64_t trials, Rng& rng,
                                                 int num_threads = 1);

/// α-PPDB certification (Def. 3): whether P(W) ≤ α, with supporting data.
struct AlphaCertification {
  double alpha = 0.0;
  /// Census P(W).
  double p_violation = 0.0;
  /// Def. 3 verdict: p_violation <= alpha.
  bool certified = false;
  int64_t num_providers = 0;
  int64_t num_violated = 0;
  /// Wilson interval on P(W) at `confidence`, treating the census as a
  /// binomial sample of the provider population — the margin a future
  /// provider joining the database would face.
  stats::ConfidenceInterval interval;
  /// True when the entire interval lies at or below alpha (a conservative
  /// certification robust to population churn).
  bool certified_with_margin = false;
};

/// Certifies a population of `num_providers` with `num_violated` violated
/// against threshold `alpha` (Def. 3) — from a report's counts or the
/// view's. Errors when alpha is outside [0, 1] or the population is empty.
Result<AlphaCertification> CertifyAlphaPpdb(int64_t num_violated,
                                            int64_t num_providers,
                                            double alpha,
                                            double confidence = 0.95);

/// Certifies `report` against threshold `alpha`: the counts overload over
/// its N and Σ w_i.
Result<AlphaCertification> CertifyAlphaPpdb(const ViolationReport& report,
                                            double alpha,
                                            double confidence = 0.95);

}  // namespace ppdb::violation

#endif  // PPDB_VIOLATION_PROBABILITY_H_
