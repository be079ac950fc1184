// Incremental-view delta benchmark: the ISSUE's cost-model numbers. For a
// grid of population sizes N and policy sizes |HP| it applies single-cell
// preference events two ways — through the maintained ViolationView (the
// O(Δ) serve path) and as a full from-scratch re-analysis (the pre-view
// O(N·|HP|) cost) — and reports events/s for both plus the speedup, as
// JSON. The view's bitwise contract means both paths produce identical
// state, so the ratio is a pure cost comparison, not a quality trade.
//
// EXPERIMENTS.md ("Delta path") reads the crossover out of this sweep;
// the acceptance bar is delta ≥ 10× full at |HP| ≥ 64.
//
// A second section ("whatif") times the served `whatif` point at the
// end-to-end benchmark's population shape: the view build, one point that
// moves every policy tuple and one that moves a single attribute's tuples,
// each through `WhatIfAnalyzer::RunScheduleFromView`. Unlike the sweep's
// synthetic config, the sim population gives every provider explicit σ, so
// the per-provider σ and preference resolution a point pays shows up.
//
// Usage: bench_incremental [output.json] [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "privacy/config.h"
#include "sim/population.h"
#include "violation/default_model.h"
#include "violation/detector.h"
#include "violation/incremental.h"
#include "violation/what_if.h"

#ifndef PPDB_BENCH_BUILD_TYPE
#define PPDB_BENCH_BUILD_TYPE "unknown"
#endif

namespace ppdb {
namespace {

using std::chrono::steady_clock;

struct CellResult {
  int64_t providers = 0;
  int64_t policy_tuples = 0;
  int64_t delta_cells = 0;  // kernel cells one delta event recomputed
  double delta_events_per_s = 0.0;
  double full_events_per_s = 0.0;
  double speedup = 0.0;
};

/// A population of `n` providers against `hp` policy tuples (one purpose,
/// `hp` attributes). Every provider states a preference for a third of the
/// attributes; the rest fall to implicit zeros — a mix of stated and
/// implicit cells like a real house.
privacy::PrivacyConfig BuildConfig(int64_t n, int64_t hp) {
  privacy::PrivacyConfig config;
  privacy::PurposeId purpose = config.purposes.Register("pr").value();
  for (int64_t j = 0; j < hp; ++j) {
    PPDB_CHECK_OK(config.policy.Add(
        "attr_" + std::to_string(j),
        privacy::PrivacyTuple{purpose, static_cast<int>(j % 3),
                              static_cast<int>((j + 1) % 3),
                              static_cast<int>((j + 2) % 3)}));
  }
  for (int64_t i = 1; i <= n; ++i) {
    privacy::ProviderPreferences& prefs = config.preferences.ForProvider(i);
    for (int64_t j = 0; j < hp; j += 3) {
      prefs.Set("attr_" + std::to_string(j),
                privacy::PrivacyTuple{purpose, static_cast<int>((i + j) % 4),
                                      static_cast<int>(i % 4),
                                      static_cast<int>(j % 4)});
    }
    config.thresholds[i] = 2.0;
  }
  return config;
}

CellResult RunCell(int64_t n, int64_t hp, int delta_reps, int full_reps) {
  privacy::PrivacyConfig config = BuildConfig(n, hp);
  privacy::PurposeId purpose = config.purposes.Lookup("pr").value();
  auto view = violation::ViolationView::Create(&config);
  PPDB_CHECK_OK(view.status());

  // One event = move one provider's stated preference for one attribute.
  // Exactly one policy cell matches (one purpose), so this is the
  // single-cell event of the acceptance criterion.
  auto apply = [&](int rep) {
    privacy::ProviderId who = 1 + (rep % n);
    privacy::PrivacyTuple tuple{purpose, rep % 4, (rep + 1) % 4,
                                (rep + 2) % 4};
    config.preferences.ForProvider(who).Set("attr_0", tuple);
    return who;
  };

  CellResult result;
  result.providers = n;
  result.policy_tuples = hp;

  const auto delta_start = steady_clock::now();
  for (int rep = 0; rep < delta_reps; ++rep) {
    privacy::ProviderId who = apply(rep);
    PPDB_CHECK_OK(view->OnPreferenceChanged(who, "attr_0", purpose));
  }
  const double delta_s =
      std::chrono::duration<double>(steady_clock::now() - delta_start)
          .count();
  result.delta_cells = view->last_delta_cells();
  result.delta_events_per_s = static_cast<double>(delta_reps) / delta_s;

  // The pre-view cost of the same event: full re-analysis + defaults.
  double total_severity = 0.0;  // defeat dead-code elimination
  const auto full_start = steady_clock::now();
  for (int rep = 0; rep < full_reps; ++rep) {
    apply(rep);
    violation::ViolationDetector detector(&config);
    auto report = detector.Analyze();
    PPDB_CHECK_OK(report.status());
    violation::DefaultReport defaults =
        violation::ComputeDefaults(report.value(), config);
    total_severity += report->total_severity +
                      static_cast<double>(defaults.num_defaulted);
  }
  const double full_s =
      std::chrono::duration<double>(steady_clock::now() - full_start).count();
  result.full_events_per_s = static_cast<double>(full_reps) / full_s;
  result.speedup = result.delta_events_per_s / result.full_events_per_s;
  if (total_severity < 0) std::fprintf(stderr, "unreachable\n");
  return result;
}

/// One timed stage of the what-if section: `reps` runs, in milliseconds.
struct WhatIfRow {
  std::string stage;
  int64_t providers = 0;
  int64_t policy_tuples = 0;
  /// Cells the stage computes: N·|HP| for the build, N·Δ for a point.
  int64_t cells = 0;
  int reps = 0;
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

/// Times `reps` calls of `run` and summarizes them.
template <typename Run>
WhatIfRow TimeStage(std::string stage, int64_t providers,
                    int64_t policy_tuples, int64_t cells, int reps, Run&& run) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = steady_clock::now();
    run();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     steady_clock::now() - start)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return WhatIfRow{std::move(stage), providers, policy_tuples, cells, reps,
                   ms[ms.size() / 2], ms.front(), ms.back()};
}

/// The what-if section over a sim population of `n` providers × 8
/// attributes × 2 purposes under the end-to-end benchmark's policy
/// (visibility and granularity at the bottom, retention a quarter up).
std::vector<WhatIfRow> RunWhatIf(int64_t n, int reps) {
  constexpr int kAttributes = 8;
  sim::PopulationConfig population_config;
  population_config.num_providers = n;
  for (int a = 0; a < kAttributes; ++a) {
    population_config.attributes.push_back(
        {"attr" + std::to_string(a), 1.0 + 0.5 * a, 50.0 + 5.0 * a, 10.0});
  }
  population_config.purposes = {"purpose0", "purpose1"};
  population_config.seed = 1;
  Result<sim::Population> population =
      sim::PopulationGenerator(population_config).Generate();
  PPDB_CHECK_OK(population.status());
  privacy::PrivacyConfig config = std::move(population->config);
  Result<privacy::HousePolicy> policy = sim::MakeUniformPolicy(
      population_config.attributes, population_config.purposes, 0.0, 0.0,
      0.25, &config);
  PPDB_CHECK_OK(policy.status());
  config.policy = std::move(policy).value();
  const int64_t hp = static_cast<int64_t>(config.policy.tuples().size());
  const int64_t moved_cells = hp / kAttributes;

  std::vector<WhatIfRow> rows;
  std::optional<violation::ViolationView> view;
  rows.push_back(TimeStage("view_build", n, hp, n * hp, reps, [&] {
    view.reset();
    Result<violation::ViolationView> built =
        violation::ViolationView::Create(&config);
    PPDB_CHECK_OK(built.status());
    view.emplace(std::move(built).value());
  }));

  const violation::WhatIfAnalyzer analyzer(&config, {});
  double total = 0.0;  // defeat dead-code elimination
  auto point = [&](const std::vector<violation::ExpansionStep>& steps) {
    Result<std::vector<violation::ExpansionPoint>> points =
        analyzer.RunScheduleFromView(*view, steps);
    PPDB_CHECK_OK(points.status());
    total += points->back().total_violations;
  };
  const std::vector<violation::ExpansionStep> all_tuples =
      violation::WhatIfAnalyzer::UniformSchedule(
          privacy::Dimension::kVisibility, 1);
  const std::vector<violation::ExpansionStep> one_attribute = {
      {privacy::Dimension::kVisibility, 1, std::string("attr3")}};
  rows.push_back(TimeStage("all_tuples_point", n, hp, n * hp, reps,
                           [&] { point(all_tuples); }));
  rows.push_back(TimeStage("single_attribute_point", n, hp, n * moved_cells,
                           reps, [&] { point(one_attribute); }));
  if (total < 0) std::fprintf(stderr, "unreachable\n");
  return rows;
}

int Run(const std::string& output_path, bool smoke) {
  const int delta_reps = smoke ? 200 : 20000;
  const int full_reps = smoke ? 3 : 30;
  const std::vector<int64_t> populations =
      smoke ? std::vector<int64_t>{64, 256}
            : std::vector<int64_t>{64, 256, 1024, 4096};
  const std::vector<int64_t> policy_sizes =
      smoke ? std::vector<int64_t>{16, 64} : std::vector<int64_t>{16, 64, 256};

  std::vector<CellResult> results;
  for (int64_t hp : policy_sizes) {
    for (int64_t n : populations) {
      results.push_back(RunCell(n, hp, delta_reps, full_reps));
      const CellResult& r = results.back();
      std::fprintf(stderr,
                   "N=%lld |HP|=%lld: delta %.0f events/s (%lld cells) vs "
                   "full %.1f events/s -> %.0fx\n",
                   static_cast<long long>(r.providers),
                   static_cast<long long>(r.policy_tuples),
                   r.delta_events_per_s,
                   static_cast<long long>(r.delta_cells),
                   r.full_events_per_s, r.speedup);
    }
  }

  const std::vector<WhatIfRow> whatif =
      RunWhatIf(smoke ? 2000 : 20000, smoke ? 1 : 9);
  for (const WhatIfRow& r : whatif) {
    std::fprintf(stderr,
                 "whatif N=%lld |HP|=%lld %s: median %.2f ms (min %.2f, "
                 "max %.2f, %d reps)\n",
                 static_cast<long long>(r.providers),
                 static_cast<long long>(r.policy_tuples), r.stage.c_str(),
                 r.median_ms, r.min_ms, r.max_ms, r.reps);
  }

  std::ofstream out(output_path);
  out << "{\n  \"benchmark\": \"incremental_view_delta\",\n"
      // The build type of the code under test; tools/run_bench.sh refuses
      // to record baselines unless this is "release".
      << "  \"library_build_type\": \"" << PPDB_BENCH_BUILD_TYPE << "\",\n"
      << "  \"event\": \"single-cell preference change\",\n"
      << "  \"delta_reps\": " << delta_reps << ",\n"
      << "  \"full_reps\": " << full_reps << ",\n"
      << "  \"sweep\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "    {\"providers\": %lld, \"policy_tuples\": %lld, "
        "\"delta_cells\": %lld, \"delta_events_per_s\": %.0f, "
        "\"full_events_per_s\": %.2f, \"speedup\": %.1f}%s\n",
        static_cast<long long>(r.providers),
        static_cast<long long>(r.policy_tuples),
        static_cast<long long>(r.delta_cells), r.delta_events_per_s,
        r.full_events_per_s, r.speedup, i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "  ],\n  \"whatif\": [\n";
  for (size_t i = 0; i < whatif.size(); ++i) {
    const WhatIfRow& r = whatif[i];
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "    {\"stage\": \"%s\", \"providers\": %lld, "
        "\"policy_tuples\": %lld, \"cells\": %lld, \"reps\": %d, "
        "\"median_ms\": %.3f, \"min_ms\": %.3f, \"max_ms\": %.3f}%s\n",
        r.stage.c_str(), static_cast<long long>(r.providers),
        static_cast<long long>(r.policy_tuples),
        static_cast<long long>(r.cells), r.reps, r.median_ms, r.min_ms,
        r.max_ms, i + 1 < whatif.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "error: failed to write %s\n", output_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", output_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ppdb

int main(int argc, char** argv) {
  std::string output = "BENCH_incremental.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      output = argv[i];
    }
  }
  return ppdb::Run(output, smoke);
}
