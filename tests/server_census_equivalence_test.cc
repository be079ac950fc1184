// Answer equivalence of the census requests served from the maintained view.
//
// `analyze`, `certify`, `estimate`, `whatif` and `query provider` read the
// `ViolationView` the service maintains instead of scanning. Their answers
// must stay exactly what the batch detector path gives:
// `ViolationDetector::Analyze` with `CertifyAlphaPpdb(report)`,
// `Estimate*Probability(report)`, `WhatIfAnalyzer::RunSchedule` and
// `MaterializeProvider`. Two halves check this over randomized configs and
// random event sequences, at every compiled dispatch target and analytics
// thread counts {1, 2, hw}:
//
//   - the view half calls the same library entry points the service calls
//     and compares every number bitwise. It covers options the service
//     cannot toggle: the purpose hierarchy on and off over one config, and
//     data-table scoping;
//   - the service half runs `DatabaseService` itself and compares payloads
//     and error statuses byte for byte, over configs with and without
//     purpose implications (the service honours the ones a database
//     declares). It also checks that a census rotation runs no full scan,
//     and that `whatif` honours its deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/macros.h"
#include "common/rng.h"
#include "privacy/policy_dsl.h"
#include "relational/table.h"
#include "server/request.h"
#include "server/service.h"
#include "storage/database_io.h"
#include "storage/fs.h"
#include "tests/test_util.h"
#include "violation/default_model.h"
#include "violation/detector.h"
#include "violation/incremental.h"
#include "violation/kernel/severity_kernel.h"
#include "violation/live_monitor.h"
#include "violation/metrics.h"
#include "violation/probability.h"
#include "violation/what_if.h"

namespace ppdb::server {
namespace {

using privacy::Dimension;
using privacy::PrivacyConfig;
using privacy::ProviderId;
using violation::AlphaCertification;
using violation::DefaultReport;
using violation::ExpansionPoint;
using violation::TrialEstimate;
using violation::ViolationDetector;
using violation::ViolationReport;
using violation::ViolationView;
using violation::WhatIfAnalyzer;

constexpr int kAttributes = 5;  // a0..a4; the policy may skip some
constexpr int kPurposes = 4;    // p1 implies p0, p3 implies p2
constexpr Dimension kWidened[] = {Dimension::kVisibility,
                                  Dimension::kGranularity,
                                  Dimension::kRetention};
constexpr const char* kWidenedNames[] = {"visibility", "granularity",
                                         "retention"};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::string Attr(int64_t a) { return "a" + std::to_string(a); }
std::string Purpose(int64_t p) { return "p" + std::to_string(p); }

/// Sensitivities and thresholds with short decimal forms, so the DSL round
/// trip through a saved database is exact.
std::string Weight(Rng& rng) {
  return std::to_string(rng.NextInt(0, 8) * 0.25 + 0.5);
}
std::string Threshold(Rng& rng) {
  return std::to_string(rng.NextInt(0, 16) * 0.5);
}

/// Preference levels, uniform on the 4-level scales.
std::string Levels(Rng& rng) {
  return "visibility=" + std::to_string(rng.NextInt(0, 3)) +
         ", granularity=" + std::to_string(rng.NextInt(0, 3)) +
         ", retention=" + std::to_string(rng.NextInt(0, 3));
}

/// Policy levels: each dimension above 0 with probability `reach`, so the
/// config's P(W) and P(Default) land anywhere in [0, 1] across seeds
/// instead of saturating at 1.
std::string PolicyLevels(Rng& rng, double reach) {
  auto level = [&] {
    return std::to_string(rng.NextBool(reach) ? rng.NextInt(1, 3) : 0);
  };
  const std::string v = level();
  const std::string g = level();
  return "visibility=" + v + ", granularity=" + g + ", retention=" + level();
}

/// The population shapes the equivalence must hold over.
struct Shape {
  bool empty = false;
  bool explicit_sensitivities = false;
  bool no_pref_providers = false;
  /// Declare `p1 implies p0` and `p3 implies p2`; without them the four
  /// purposes are unrelated.
  bool hierarchy_edges = true;
};

Shape ShapeFor(uint64_t seed) {
  Shape shape;
  shape.empty = seed % 5 == 4;
  shape.explicit_sensitivities = seed % 2 == 0;
  shape.no_pref_providers = seed % 3 != 1;
  return shape;
}

/// A random privacy config in the DSL: 4-level scales, a purpose hierarchy,
/// a policy over a random subset of (attribute, purpose) cells, attribute
/// sensitivities, and (unless `shape.empty`) a population with thresholds.
std::string RandomDsl(Rng& rng, const Shape& shape) {
  std::string dsl =
      "scale visibility: l0, l1, l2, l3\n"
      "scale granularity: l0, l1, l2, l3\n"
      "scale retention: l0, l1, l2, l3\n"
      "purpose p0\n"
      "purpose p1\n"
      "purpose p2\n"
      "purpose p3\n";
  if (shape.hierarchy_edges) {
    dsl += "purpose p1 implies p0\npurpose p3 implies p2\n";
  }
  const double reach = 0.05 + 0.35 * rng.NextDouble();
  int tuples = 0;
  for (int a = 0; a < kAttributes - 1; ++a) {
    for (int p = 0; p < kPurposes; ++p) {
      if (rng.NextBool(0.35) || (tuples == 0 && a == kAttributes - 2)) {
        dsl += "policy " + Attr(a) + " for " + Purpose(p) + ": " +
               PolicyLevels(rng, reach) + "\n";
        ++tuples;
      }
    }
    if (rng.NextBool(0.5)) {
      dsl += "attr_sensitivity " + Attr(a) + " = " + Weight(rng) + "\n";
    }
    if (rng.NextBool(0.3)) {
      dsl += "attr_sensitivity " + Attr(a) + " for " +
             Purpose(rng.NextInt(0, kPurposes - 1)) + " = " + Weight(rng) +
             "\n";
    }
  }
  if (!shape.empty) {
    const int64_t n = rng.NextInt(3, 36);
    for (int64_t i = 1; i <= n; ++i) {
      const ProviderId id = i * 3 + rng.NextInt(0, 2);
      if (shape.no_pref_providers && rng.NextBool(0.25)) {
        dsl += "provider " + std::to_string(id) + "\n";
      } else {
        bool stated = false;
        for (int a = 0; a < kAttributes; ++a) {
          for (int p = 0; p < kPurposes; ++p) {
            if (rng.NextBool(0.75) || (!stated && a == kAttributes - 1 &&
                                       p == kPurposes - 1)) {
              dsl += "pref " + std::to_string(id) + " " + Attr(a) + " for " +
                     Purpose(p) + ": " + Levels(rng) + "\n";
              stated = true;
            }
          }
        }
      }
      if (shape.explicit_sensitivities && rng.NextBool(0.35)) {
        const std::string target =
            std::to_string(id) + " " + Attr(rng.NextInt(0, kAttributes - 1));
        const std::string weights =
            "value=" + Weight(rng) + ", visibility=" + Weight(rng) +
            ", granularity=" + Weight(rng) + ", retention=" + Weight(rng);
        dsl += "sensitivity " + target + ": " + weights + "\n";
        if (rng.NextBool(0.5)) {
          dsl += "sensitivity " + target + " for " +
                 Purpose(rng.NextInt(0, kPurposes - 1)) +
                 ": value=" + Weight(rng) + "\n";
        }
      }
      if (rng.NextBool(0.8)) {
        dsl += "threshold " + std::to_string(id) + " = " + Threshold(rng) +
               "\n";
      }
    }
  }
  dsl += "fallback_threshold = " + Threshold(rng) + "\n";
  return dsl;
}

/// The analytics thread counts the answers must not depend on (0 = hw).
constexpr int kThreadCounts[] = {1, 2, 0};

std::vector<violation::kernel::Target> SupportedTargets() {
  std::vector<violation::kernel::Target> targets;
  for (violation::kernel::Target target :
       violation::kernel::CompiledTargets()) {
    if (violation::kernel::TargetSupported(target)) targets.push_back(target);
  }
  return targets;
}

template <typename T>
void ExpectSameStatus(const Result<T>& view, const Result<T>& detector,
                      const std::string& context) {
  EXPECT_EQ(view.status().ToString(), detector.status().ToString())
      << context;
}

int64_t FullScans() {
  const violation::ViolationMetrics& m = violation::ViolationMetrics::Get();
  return m.analyze_ok->Value() + m.analyze_deadline->Value() +
         m.analyze_error->Value();
}

// The generator must produce populations where the census answers vary:
// with P(W) or P(Default) pinned at 0 or 1, a served answer could read the
// wrong flag or counter and still match.
TEST(CensusConfigGeneratorTest, PopulationsSpanTheCensusRange) {
  int interior = 0;
  int populated = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 7919 + 1);
    ASSERT_OK_AND_ASSIGN(
        PrivacyConfig config,
        privacy::ParsePrivacyConfig(RandomDsl(rng, ShapeFor(seed))));
    ASSERT_OK_AND_ASSIGN(ViolationReport report,
                         ViolationDetector(&config).Analyze());
    if (report.providers.empty()) continue;
    ++populated;
    const DefaultReport defaults = violation::ComputeDefaults(report, config);
    const double pw = report.ProbabilityOfViolation();
    const double pdefault = defaults.ProbabilityOfDefault();
    if (pw > 0.0 && pw < 1.0 && pdefault > 0.0 && pdefault < 1.0 &&
        pw != pdefault) {
      ++interior;
    }
  }
  EXPECT_GE(populated, 6);
  EXPECT_GE(interior, populated / 2);
}

// --- view half: the service's library calls, bitwise ---------------------

/// Every census answer the service derives from `view`, against the
/// detector path over the same config and options.
void ExpectCensusMatchesDetector(const ViolationView& view,
                                 const PrivacyConfig& config,
                                 const ViolationDetector::Options& options,
                                 Rng& rng, const std::string& context) {
  ViolationDetector detector(&config, options);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  const DefaultReport defaults = violation::ComputeDefaults(report, config);

  // analyze
  ASSERT_EQ(view.num_providers(), report.num_providers()) << context;
  EXPECT_EQ(view.num_violated(), report.num_violated) << context;
  EXPECT_EQ(Bits(view.ProbabilityOfViolation()),
            Bits(report.ProbabilityOfViolation()))
      << context;
  EXPECT_EQ(Bits(view.TotalViolations()), Bits(report.total_severity))
      << context;

  // certify α
  for (double alpha : {0.0, rng.NextDouble(), 1.0}) {
    const Result<AlphaCertification> served = violation::CertifyAlphaPpdb(
        view.num_violated(), view.num_providers(), alpha);
    const Result<AlphaCertification> expected =
        violation::CertifyAlphaPpdb(report, alpha);
    const std::string ctx = context + " certify " + std::to_string(alpha);
    ExpectSameStatus(served, expected, ctx);
    if (!served.ok() || !expected.ok()) continue;
    EXPECT_EQ(Bits(served->p_violation), Bits(expected->p_violation)) << ctx;
    EXPECT_EQ(served->certified, expected->certified) << ctx;
    EXPECT_EQ(served->certified_with_margin, expected->certified_with_margin)
        << ctx;
    EXPECT_EQ(Bits(served->interval.lo), Bits(expected->interval.lo)) << ctx;
    EXPECT_EQ(Bits(served->interval.hi), Bits(expected->interval.hi)) << ctx;
  }

  // estimate pw|pdefault τ seed
  for (bool pw : {true, false}) {
    const int64_t trials = rng.NextInt(1, 20000);
    const uint64_t seed = rng.NextUint64();
    Rng served_rng(seed);
    Rng expected_rng(seed);
    const Result<TrialEstimate> served = violation::EstimateFromFlags(
        pw ? view.ViolatedFlags() : view.DefaultedFlags(),
        pw ? view.ProbabilityOfViolation() : view.ProbabilityOfDefault(),
        trials, served_rng, options.num_threads);
    const Result<TrialEstimate> expected =
        pw ? violation::EstimateViolationProbability(
                 report, trials, expected_rng, options.num_threads)
           : violation::EstimateDefaultProbability(
                 defaults, trials, expected_rng, options.num_threads);
    const std::string ctx =
        context + (pw ? " estimate pw " : " estimate pdefault ") +
        std::to_string(trials);
    ExpectSameStatus(served, expected, ctx);
    if (!served.ok() || !expected.ok()) continue;
    EXPECT_EQ(served->hits, expected->hits) << ctx;
    EXPECT_EQ(Bits(served->estimate), Bits(expected->estimate)) << ctx;
    EXPECT_EQ(Bits(served->census), Bits(expected->census)) << ctx;
    EXPECT_EQ(Bits(served->ci95.lo), Bits(expected->ci95.lo)) << ctx;
    EXPECT_EQ(Bits(served->ci95.hi), Bits(expected->ci95.hi)) << ctx;
  }

  // whatif v|g|r k [extra]
  for (int d = 0; d < 3; ++d) {
    WhatIfAnalyzer::Options what_if;
    what_if.extra_utility_per_step = rng.NextInt(0, 8) * 0.5;
    what_if.detector_options = options;
    what_if.num_threads = options.num_threads;
    WhatIfAnalyzer analyzer(&config, what_if);
    const std::vector<violation::ExpansionStep> steps =
        WhatIfAnalyzer::UniformSchedule(kWidened[d],
                                        static_cast<int>(rng.NextInt(1, 3)));
    const Result<std::vector<ExpansionPoint>> served =
        analyzer.RunScheduleFromView(view, steps);
    const Result<std::vector<ExpansionPoint>> expected =
        analyzer.RunSchedule(steps);
    const std::string ctx = context + " whatif " + kWidenedNames[d];
    ExpectSameStatus(served, expected, ctx);
    if (!served.ok() || !expected.ok()) continue;
    ASSERT_EQ(served->size(), expected->size()) << ctx;
    for (size_t k = 0; k < served->size(); ++k) {
      const ExpansionPoint& s = (*served)[k];
      const ExpansionPoint& e = (*expected)[k];
      const std::string at = ctx + " point " + std::to_string(k);
      EXPECT_EQ(s.step_index, e.step_index) << at;
      EXPECT_EQ(s.policy.tuples().size(), e.policy.tuples().size()) << at;
      EXPECT_EQ(Bits(s.p_violation), Bits(e.p_violation)) << at;
      EXPECT_EQ(Bits(s.p_default), Bits(e.p_default)) << at;
      EXPECT_EQ(Bits(s.total_violations), Bits(e.total_violations)) << at;
      EXPECT_EQ(s.n_remaining, e.n_remaining) << at;
      EXPECT_EQ(s.num_defaulted, e.num_defaulted) << at;
      EXPECT_EQ(Bits(s.utility_current), Bits(e.utility_current)) << at;
      EXPECT_EQ(Bits(s.utility_future), Bits(e.utility_future)) << at;
      EXPECT_EQ(Bits(s.extra_utility), Bits(e.extra_utility)) << at;
      EXPECT_EQ(Bits(s.break_even_extra_utility),
                Bits(e.break_even_extra_utility))
          << at;
      EXPECT_EQ(s.justified, e.justified) << at;
    }
  }

  // query provider, plus one id outside the population
  for (size_t i = 0; i < report.providers.size(); ++i) {
    const ProviderId id = report.providers[i].provider;
    const std::string ctx = context + " provider " + std::to_string(id);
    ASSERT_OK_AND_ASSIGN(ViolationView::ProviderSummary summary,
                         view.Summarize(id));
    ASSERT_OK_AND_ASSIGN(violation::ProviderViolation materialized,
                         view.MaterializeProvider(id));
    EXPECT_EQ(Bits(summary.severity), Bits(materialized.total_severity))
        << ctx;
    EXPECT_EQ(summary.violated, materialized.violated) << ctx;
    EXPECT_EQ(summary.incidents,
              static_cast<int64_t>(materialized.incidents.size()))
        << ctx;
    EXPECT_EQ(summary.incidents,
              static_cast<int64_t>(report.providers[i].incidents.size()))
        << ctx;
    EXPECT_EQ(summary.defaulted, defaults.providers[i].defaulted) << ctx;
  }
  EXPECT_EQ(view.Summarize(999999).status().ToString(),
            view.MaterializeProvider(999999).status().ToString())
      << context << " absent provider";
}

/// A data table over a0..a4 for a random subset of the store's providers
/// plus a few table-only ones, with random nulls.
rel::Table RandomTable(Rng& rng, const PrivacyConfig& config) {
  std::vector<rel::AttributeDef> columns;
  for (int a = 0; a < kAttributes; ++a) {
    columns.push_back({Attr(a), rel::DataType::kDouble, ""});
  }
  rel::Table table =
      rel::Table::Create("data", rel::Schema::Create(columns).value())
          .value();
  std::vector<ProviderId> ids = config.preferences.ProviderIds();
  for (int extra = 0; extra < 3; ++extra) ids.push_back(500 + extra);
  for (ProviderId id : ids) {
    if (!rng.NextBool(0.75)) continue;
    std::vector<rel::Value> row;
    for (int a = 0; a < kAttributes; ++a) {
      row.push_back(rng.NextBool(0.3)
                        ? rel::Value::Null()
                        : rel::Value::Double(static_cast<double>(a)));
    }
    PPDB_CHECK_OK(table.Insert(id, std::move(row)));
  }
  return table;
}

class CensusViewEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// Randomized configs × hierarchy on/off × data table on/off, a random
// event stream through the view, and every census answer compared with the
// detector path after each few events.
TEST_P(CensusViewEquivalenceTest, ServedAnswersMatchTheDetectorBitwise) {
  const uint64_t seed = GetParam();
  for (violation::kernel::Target target : SupportedTargets()) {
    ASSERT_OK(violation::kernel::ForceTarget(target));
    for (bool hierarchy : {false, true}) {
      for (bool scoped : {false, true}) {
        Rng rng(seed * 1000003 + static_cast<uint64_t>(target) * 17 +
                (hierarchy ? 2 : 0) + (scoped ? 1 : 0));
        ASSERT_OK_AND_ASSIGN(
            PrivacyConfig config,
            privacy::ParsePrivacyConfig(RandomDsl(rng, ShapeFor(seed))));
        std::optional<rel::Table> table;
        if (scoped) table.emplace(RandomTable(rng, config));

        ViolationDetector::Options options;
        options.purpose_hierarchy =
            hierarchy ? &config.purpose_hierarchy : nullptr;
        options.data_table = table.has_value() ? &*table : nullptr;
        ASSERT_OK_AND_ASSIGN(ViolationView view,
                             ViolationView::Create(&config, options));
        // Checked as loaded (the empty shape stays empty only here), then
        // after every sixth event.
        auto check = [&](int event) {
          for (int threads : kThreadCounts) {
            options.num_threads = threads;
            ExpectCensusMatchesDetector(
                view, config, options, rng,
                "seed=" + std::to_string(seed) + " target=" +
                    std::string(violation::kernel::TargetName(target)) +
                    " hierarchy=" + std::to_string(hierarchy) +
                    " table=" + std::to_string(scoped) +
                    " threads=" + std::to_string(threads) +
                    " event=" + std::to_string(event));
            if (::testing::Test::HasFailure()) return;
          }
        };
        check(-1);

        for (int event = 0; event < 24 && !::testing::Test::HasFailure();
             ++event) {
          std::vector<ProviderId> known = config.preferences.ProviderIds();
          const double roll = rng.NextDouble();
          if (roll < 0.15 || known.empty()) {
            const ProviderId id = rng.NextInt(200, 260);
            if (!config.preferences.Contains(id)) {
              config.preferences.ForProvider(id);
              config.thresholds[id] = rng.NextInt(0, 16) * 0.5;
              ASSERT_OK(view.OnProviderAdded(id));
            }
          } else if (roll < 0.5) {
            const ProviderId id = known[rng.NextBounded(known.size())];
            const privacy::PurposeId purpose =
                config.purposes
                    .Lookup(Purpose(rng.NextInt(0, kPurposes - 1)))
                    .value();
            const std::string attr = Attr(rng.NextInt(0, kAttributes - 1));
            privacy::ProviderPreferences& prefs =
                config.preferences.ForProvider(id);
            if (rng.NextBool(0.3)) {
              // Removing an unstated preference changes nothing, and the
              // view then recomputes its cells to the same values.
              (void)prefs.Remove(attr, purpose);
            } else {
              prefs.Set(attr, privacy::PrivacyTuple{
                                  purpose, static_cast<int>(rng.NextInt(0, 3)),
                                  static_cast<int>(rng.NextInt(0, 3)),
                                  static_cast<int>(rng.NextInt(0, 3))});
            }
            ASSERT_OK(view.OnPreferenceChanged(id, attr, purpose));
          } else if (roll < 0.65) {
            const ProviderId id = known[rng.NextBounded(known.size())];
            config.thresholds[id] = rng.NextInt(0, 16) * 0.5;
            ASSERT_OK(view.OnThresholdChanged(id));
          } else if (roll < 0.75) {
            const ProviderId id = known[rng.NextBounded(known.size())];
            ASSERT_OK(config.preferences.Erase(id));
            config.thresholds.erase(id);
            ASSERT_OK(view.OnProviderRemoved(id));
          } else if (table.has_value() && table->num_providers() > 0) {
            // A datum appears or disappears: the data-scoping mask moves.
            const std::vector<ProviderId> rows = table->ProviderIds();
            const ProviderId id = rows[rng.NextBounded(rows.size())];
            const int a = static_cast<int>(rng.NextInt(0, kAttributes - 1));
            ASSERT_OK(table->UpdateCell(
                id, a,
                rng.NextBool(0.5) ? rel::Value::Null()
                                  : rel::Value::Double(1.0)));
            ASSERT_OK(view.OnDatumChanged(id, Attr(a)));
          }
          if (event % 6 == 5) check(event);
        }
        if (::testing::Test::HasFailure()) break;
      }
      if (::testing::Test::HasFailure()) break;
    }
    violation::kernel::ClearForcedTarget();
    if (::testing::Test::HasFailure()) break;
  }
  violation::kernel::ClearForcedTarget();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CensusViewEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 10));

// --- service half: payloads and statuses, byte for byte -------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Response Ok(std::string payload) {
  return Response{Status::OK(), std::move(payload)};
}

std::string Flag(bool on) { return on ? "1" : "0"; }

/// The census payloads as the detector path renders them — the protocol
/// format of each command, computed from a full analysis under
/// `hierarchy` (null: purposes compare by equality only).
class DetectorAnswers {
 public:
  DetectorAnswers(const PrivacyConfig& config,
                  const privacy::PurposeHierarchy* hierarchy, int threads)
      : config_(config), hierarchy_(hierarchy), threads_(threads) {
    ViolationDetector::Options options;
    options.purpose_hierarchy = hierarchy;
    options.num_threads = threads;
    report_ = ViolationDetector(&config, options).Analyze();
    PPDB_CHECK_OK(report_.status());
    defaults_ = violation::ComputeDefaults(report_.value(), config);
  }

  Response Analyze() const {
    const ViolationReport& r = report_.value();
    return Ok("providers=" + std::to_string(r.num_providers()) +
              " violated=" + std::to_string(r.num_violated) +
              " pw=" + Num(r.ProbabilityOfViolation()) +
              " total_severity=" + Num(r.total_severity));
  }

  Response Certify(double alpha) const {
    Result<AlphaCertification> cert =
        violation::CertifyAlphaPpdb(report_.value(), alpha);
    if (!cert.ok()) return Response{cert.status(), {}};
    const AlphaCertification& c = cert.value();
    return Ok("alpha=" + Num(c.alpha) + " pw=" + Num(c.p_violation) +
              " certified=" + Flag(c.certified) +
              " certified_with_margin=" + Flag(c.certified_with_margin) +
              " ci95=[" + Num(c.interval.lo) + "," + Num(c.interval.hi) + "]");
  }

  Response Estimate(bool pw, int64_t trials, uint64_t seed) const {
    Rng rng(seed);
    Result<TrialEstimate> estimate =
        pw ? violation::EstimateViolationProbability(report_.value(), trials,
                                                     rng, threads_)
           : violation::EstimateDefaultProbability(defaults_, trials, rng,
                                                   threads_);
    if (!estimate.ok()) return Response{estimate.status(), {}};
    const TrialEstimate& e = estimate.value();
    return Ok("estimate=" + Num(e.estimate) + " census=" + Num(e.census) +
              " trials=" + std::to_string(e.trials) +
              " hits=" + std::to_string(e.hits) + " ci95=[" +
              Num(e.ci95.lo) + "," + Num(e.ci95.hi) + "]");
  }

  Response WhatIf(Dimension dimension, int steps, double extra) const {
    WhatIfAnalyzer::Options options;
    options.extra_utility_per_step = extra;
    options.detector_options.purpose_hierarchy = hierarchy_;
    options.detector_options.num_threads = threads_;
    options.num_threads = threads_;
    Result<std::vector<ExpansionPoint>> points =
        WhatIfAnalyzer(&config_, options)
            .RunSchedule(WhatIfAnalyzer::UniformSchedule(dimension, steps));
    if (!points.ok()) return Response{points.status(), {}};
    const ExpansionPoint& last = points.value().back();
    int justified = 0;
    for (const ExpansionPoint& point : points.value()) {
      if (point.justified) ++justified;
    }
    return Ok("points=" + std::to_string(points.value().size()) +
              " justified=" + std::to_string(justified) +
              " final_pw=" + Num(last.p_violation) +
              " final_pdefault=" + Num(last.p_default) +
              " final_n_remaining=" + std::to_string(last.n_remaining) +
              " break_even_extra_utility=" +
              Num(last.break_even_extra_utility));
  }

  /// `query provider`: the materialized row (incidents recomputed) and the
  /// full analysis's default bit.
  Response Provider(const ViolationView& view, ProviderId id) const {
    Result<violation::ProviderViolation> v = view.MaterializeProvider(id);
    if (!v.ok()) return Response{v.status(), {}};
    const ViolationReport& r = report_.value();
    bool defaulted = false;
    for (size_t i = 0; i < r.providers.size(); ++i) {
      if (r.providers[i].provider == id) {
        defaulted = defaults_.providers[i].defaulted;
      }
    }
    return Ok("provider=" + std::to_string(v->provider) +
              " violated=" + Flag(v->violated) +
              " severity=" + Num(v->total_severity) +
              " incidents=" + std::to_string(v->incidents.size()) +
              " defaulted=" + Flag(defaulted));
  }

 private:
  const PrivacyConfig& config_;
  const privacy::PurposeHierarchy* const hierarchy_;
  const int threads_;
  Result<ViolationReport> report_ = Status::Internal("not analyzed");
  DefaultReport defaults_;
};

Response RunLine(DatabaseService& service, const std::string& line,
                 const Deadline& deadline = Deadline()) {
  Result<Request> request = ParseRequest(line);
  EXPECT_OK(request.status()) << line;
  return service.Execute(request.value(), deadline);
}

class CensusServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() /
           ("ppdb_census_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A fresh service over the saved database with no periodic
  /// checkpoints, so the run touches the disk only to load and to journal
  /// events.
  std::unique_ptr<DatabaseService> MakeService(int threads) {
    DatabaseService::Options options;
    options.checkpoint_every_events = 0;
    options.num_threads = threads;
    Result<std::unique_ptr<DatabaseService>> service = DatabaseService::Create(
        dir_.string(), &storage::GetRealFileSystem(), options);
    EXPECT_OK(service.status());
    return std::move(service).value();
  }

  std::filesystem::path dir_;
};

class CensusServiceEquivalenceTest
    : public CensusServiceTest,
      public ::testing::WithParamInterface<uint64_t> {};

void ExpectSameResponse(const Response& served, const Response& expected,
                        const std::string& context) {
  EXPECT_EQ(served.status.ToString(), expected.status.ToString()) << context;
  EXPECT_EQ(served.payload, expected.payload) << context;
}

/// One valid random event, as a request line, against the mirror's state.
std::string RandomEvent(Rng& rng, const PrivacyConfig& config) {
  const std::vector<ProviderId> known = config.preferences.ProviderIds();
  const double roll = rng.NextDouble();
  if (roll < 0.15 || known.empty()) {
    ProviderId id = rng.NextInt(300, 400);
    while (config.preferences.Contains(id)) ++id;
    return "event add " + std::to_string(id) + " " + Threshold(rng);
  }
  const ProviderId id = known[rng.NextBounded(known.size())];
  const std::string who = std::to_string(id);
  if (roll < 0.55) {
    return "event pref " + who + " " + Attr(rng.NextInt(0, kAttributes - 1)) +
           " " + Purpose(rng.NextInt(0, kPurposes - 1)) + " " +
           std::to_string(rng.NextInt(0, 3)) + " " +
           std::to_string(rng.NextInt(0, 3)) + " " +
           std::to_string(rng.NextInt(0, 3));
  }
  if (roll < 0.7) {
    const std::vector<privacy::PreferenceTuple>& stated =
        config.preferences.Find(id).value()->tuples();
    if (!stated.empty()) {
      const privacy::PreferenceTuple& pt =
          stated[rng.NextBounded(stated.size())];
      return "event unpref " + who + " " + pt.attribute + " " +
             config.purposes.NameOf(pt.tuple.purpose).value();
    }
  }
  if (roll < 0.9) {
    return "event threshold " + who + " " + Threshold(rng);
  }
  return "event remove " + who;
}

/// Applies a served event to the mirror monitor, the way the service does.
Status ApplyToMirror(violation::LivePopulationMonitor& mirror,
                     const Request& event) {
  const PrivacyConfig& config = mirror.config();
  switch (event.kind) {
    case RequestKind::kEventAdd:
      return mirror.AddProvider(event.provider, event.threshold);
    case RequestKind::kEventRemove:
      return mirror.RemoveProvider(event.provider);
    case RequestKind::kEventSetPref:
      return mirror.SetPreference(
          event.provider, event.attribute,
          privacy::PrivacyTuple{config.purposes.Lookup(event.purpose).value(),
                                event.visibility, event.granularity,
                                event.retention});
    case RequestKind::kEventRemovePref:
      return mirror.RemovePreference(
          event.provider, event.attribute,
          config.purposes.Lookup(event.purpose).value());
    case RequestKind::kEventSetThreshold:
      return mirror.SetThreshold(event.provider, event.threshold);
    default:
      return Status::InvalidArgument("not an event");
  }
}

/// One census rotation against `service`: every payload and error status
/// must equal the detector path's over `mirror`'s config under
/// `hierarchy`, the rotation must not run a single full scan, and the
/// service's view must be drift-clean.
void ExpectServedRotationMatches(DatabaseService& service,
                                 const violation::LivePopulationMonitor& mirror,
                                 const privacy::PurposeHierarchy* hierarchy,
                                 int threads, Rng& rng,
                                 const std::string& context) {
  const DetectorAnswers detector(mirror.config(), hierarchy, threads);
  std::vector<std::pair<std::string, Response>> rotation;
  rotation.emplace_back("analyze", detector.Analyze());
  for (double alpha : {0.0, 0.25, 0.5, 1.0}) {
    rotation.emplace_back("certify " + Num(alpha), detector.Certify(alpha));
  }
  for (bool pw : {true, false}) {
    const int64_t trials = rng.NextInt(1, 30000);
    const uint64_t trial_seed = rng.NextUint64() >> 1;
    rotation.emplace_back(std::string("estimate ") +
                              (pw ? "pw " : "pdefault ") +
                              std::to_string(trials) + " " +
                              std::to_string(trial_seed),
                          detector.Estimate(pw, trials, trial_seed));
  }
  for (int d = 0; d < 3; ++d) {
    const int steps = static_cast<int>(rng.NextInt(1, 3));
    const double extra = rng.NextInt(0, 6) * 0.5;
    rotation.emplace_back(std::string("whatif ") + kWidenedNames[d] + " " +
                              std::to_string(steps) + " " + Num(extra),
                          detector.WhatIf(kWidened[d], steps, extra));
  }
  std::vector<ProviderId> ids = mirror.config().preferences.ProviderIds();
  ids.push_back(999999);  // outside the population: kNotFound
  for (ProviderId id : ids) {
    rotation.emplace_back("query provider " + std::to_string(id),
                          detector.Provider(mirror.view(), id));
  }

  const int64_t scans_before = FullScans();
  for (const auto& [line, expected] : rotation) {
    ExpectSameResponse(RunLine(service, line), expected,
                       context + " `" + line + "`");
  }
  EXPECT_EQ(FullScans(), scans_before)
      << context << ": a served census rotation ran a full scan";

  Response drift = RunLine(service, "driftcheck");
  EXPECT_NE(drift.payload.find("clean=1"), std::string::npos)
      << context << " " << drift.payload;
}

// A random config saved as a database, then a census rotation as loaded
// and again after a random event stream through the served event path.
// The service honours the purpose implications a database declares, so
// the detector path runs with the hierarchy exactly when the config has
// edges, which six seeds of ten do.
TEST_P(CensusServiceEquivalenceTest, ServedPayloadsMatchTheDetectorPath) {
  const uint64_t seed = GetParam();
  Rng config_rng(seed * 7919 + 1);
  Shape shape = ShapeFor(seed);
  shape.hierarchy_edges = seed % 4 < 2;
  storage::Database database;
  ASSERT_OK_AND_ASSIGN(
      database.config,
      privacy::ParsePrivacyConfig(RandomDsl(config_rng, shape)));

  for (violation::kernel::Target target : SupportedTargets()) {
    ASSERT_OK(violation::kernel::ForceTarget(target));
    for (int threads : kThreadCounts) {
      const std::string context =
          "seed=" + std::to_string(seed) + " target=" +
          std::string(violation::kernel::TargetName(target)) +
          " threads=" + std::to_string(threads);
      // A fresh directory each time: the previous service's journal would
      // otherwise replay its events into this one.
      std::filesystem::remove_all(dir_);
      ASSERT_OK(storage::SaveDatabase(dir_.string(), database));
      std::unique_ptr<DatabaseService> service = MakeService(threads);
      ASSERT_OK_AND_ASSIGN(storage::Database loaded,
                           storage::LoadDatabase(dir_.string()));
      // No event changes the hierarchy, so the mirror and the detector
      // path read this copy of it.
      const privacy::PurposeHierarchy hierarchy =
          loaded.config.purpose_hierarchy;
      ASSERT_EQ(hierarchy.num_edges(), shape.hierarchy_edges ? 2 : 0);
      ViolationDetector::Options mirror_options;
      mirror_options.purpose_hierarchy =
          shape.hierarchy_edges ? &hierarchy : nullptr;
      ASSERT_OK_AND_ASSIGN(violation::LivePopulationMonitor mirror,
                           violation::LivePopulationMonitor::Create(
                               std::move(loaded.config), mirror_options));

      Rng rng(seed * 104729 + 3);  // the same stream at every target
      // As loaded (the empty shape stays empty only here), then after a
      // random event stream.
      ExpectServedRotationMatches(*service, mirror,
                                  mirror_options.purpose_hierarchy, threads,
                                  rng, context + " as loaded");
      for (int event = 0; event < 30; ++event) {
        const std::string line = RandomEvent(rng, mirror.config());
        ASSERT_OK_AND_ASSIGN(Request request, ParseRequest(line));
        const Response served = RunLine(*service, line);
        const Status applied = ApplyToMirror(mirror, request);
        ASSERT_EQ(served.status.ToString(), applied.ToString())
            << context << " " << line;
      }
      ExpectServedRotationMatches(*service, mirror,
                                  mirror_options.purpose_hierarchy, threads,
                                  rng, context + " after events");
      if (::testing::Test::HasFailure()) break;
    }
    violation::kernel::ClearForcedTarget();
    if (::testing::Test::HasFailure()) break;
  }
  violation::kernel::ClearForcedTarget();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CensusServiceEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 10));

// `whatif` polls its deadline between points and every few hundred
// providers inside each one. A budget far below one point's cost (about
// 2 ms here) ends in kDeadlineExceeded, whether it runs out before the
// request reaches the view or inside the provider loop.
TEST_F(CensusServiceTest, WhatIfUnderAnExpiringDeadlineIsExceeded) {
  storage::Database database;
  std::string dsl =
      "scale visibility: l0, l1, l2, l3, l4, l5, l6, l7\n"
      "purpose p0\n";
  for (int a = 0; a < 8; ++a) {
    dsl += "policy " + Attr(a) + " for p0: visibility=0, granularity=0, "
           "retention=0\n";
  }
  for (int id = 1; id <= 3000; ++id) {
    dsl += "pref " + std::to_string(id) + " a0 for p0: visibility=" +
           std::to_string(id % 4) + ", granularity=0, retention=0\n";
  }
  ASSERT_OK_AND_ASSIGN(database.config, privacy::ParsePrivacyConfig(dsl));
  ASSERT_OK(storage::SaveDatabase(dir_.string(), database));
  std::unique_ptr<DatabaseService> service = MakeService(1);

  const int64_t scans_before = FullScans();
  EXPECT_TRUE(RunLine(*service, "whatif visibility 6",
                      Deadline::After(std::chrono::milliseconds(0)))
                  .status.IsDeadlineExceeded());
  // One widening step: after point 1 no between-point check remains, so
  // only the poll inside the provider loop can stop it.
  EXPECT_TRUE(RunLine(*service, "whatif visibility 1",
                      Deadline::After(std::chrono::microseconds(200)))
                  .status.IsDeadlineExceeded());
  EXPECT_EQ(FullScans(), scans_before);

  // Without a deadline the same sweep completes.
  Response full = RunLine(*service, "whatif visibility 6");
  ASSERT_OK(full.status);
  EXPECT_NE(full.payload.find("points=7"), std::string::npos) << full.payload;
}

}  // namespace
}  // namespace ppdb::server
