// E4 — Definitions 2 & 3: the relative-frequency estimator of P(W) and
// alpha-PPDB certification.
//
// Def. 2 defines P(W) as the limit of tau(W)/tau over random provider
// trials; this bench measures how fast the estimate converges to the
// census value as tau grows, and then sweeps the certification threshold
// alpha (Def. 3) over policies of increasing width to trace the
// compliance frontier.
#include <cstdio>
#include <iostream>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "sim/population.h"
#include "stats/running_stats.h"
#include "stats/table_printer.h"
#include "violation/detector.h"
#include "violation/probability.h"

namespace {

using namespace ppdb;  // NOLINT(build/namespaces)

sim::Population MakePopulation() {
  sim::PopulationConfig config;
  config.num_providers = 20000;
  config.attributes = {{"income", 5.0, 65000, 20000},
                       {"health", 4.0, 70, 15}};
  config.purposes = {"service", "analytics"};
  config.seed = 777;
  for (sim::SegmentProfile& profile : config.profiles) {
    profile.statement_probability = 1.0;
  }
  auto population = sim::PopulationGenerator(config).Generate();
  PPDB_CHECK_OK(population.status());
  return std::move(population).value();
}

}  // namespace

int main() {
  std::printf("=== E4: Def. 2 estimator convergence and Def. 3 alpha-PPDB "
              "certification ===\n\n");
  sim::Population population = MakePopulation();
  auto policy = sim::MakeUniformPolicy(
      {{"income", 5.0, 0, 1}, {"health", 4.0, 0, 1}},
      {"service", "analytics"}, 0.33, 0.4, 0.4, &population.config);
  PPDB_CHECK_OK(policy.status());
  population.config.policy = std::move(policy).value();

  violation::ViolationDetector detector(&population.config);
  auto report = detector.Analyze();
  PPDB_CHECK_OK(report.status());
  double census = report->ProbabilityOfViolation();
  std::printf("Census P(W) over %lld providers: %.4f\n\n",
              static_cast<long long>(report->num_providers()), census);

  // --- Convergence of tau(W)/tau -> P(W). ------------------------------
  std::printf("Relative-frequency estimation (mean over 20 seeds):\n");
  stats::TablePrinter conv({"tau (trials)", "mean |estimate - P(W)|",
                            "mean Wilson 95% width", "CI coverage"});
  for (int64_t tau : {10, 100, 1000, 10000, 100000}) {
    stats::RunningStats error, width;
    int covered = 0;
    const int kSeeds = 20;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      Rng rng(seed * 7919 + 13);
      auto estimate =
          violation::EstimateViolationProbability(report.value(), tau, rng);
      PPDB_CHECK_OK(estimate.status());
      error.Add(estimate->AbsoluteError());
      width.Add(estimate->ci95.Width());
      if (estimate->ci95.Contains(census)) ++covered;
    }
    conv.AddRow({stats::TablePrinter::FormatInt(tau),
                 stats::TablePrinter::FormatDouble(error.mean(), 5),
                 stats::TablePrinter::FormatDouble(width.mean(), 5),
                 stats::TablePrinter::FormatInt(covered) + "/20"});
  }
  conv.Print(std::cout);
  std::printf("(Expected shape: error and width shrink ~1/sqrt(tau); "
              "coverage stays near 95%%.)\n\n");

  // --- Alpha frontier across policy widths. ----------------------------
  std::printf("alpha-PPDB frontier (Def. 3) as the policy widens:\n");
  stats::TablePrinter frontier({"granularity widening", "P(W)",
                                "alpha=0.10", "alpha=0.25", "alpha=0.50",
                                "alpha=0.75"});
  for (int widen = 0; widen <= 3; ++widen) {
    privacy::PrivacyConfig scenario = population.config;
    auto widened_policy = population.config.policy.Widened(
        privacy::Dimension::kGranularity, widen, scenario.scales);
    PPDB_CHECK_OK(widened_policy.status());
    scenario.policy = std::move(widened_policy).value();
    violation::ViolationDetector widened(&scenario);
    auto widened_report = widened.Analyze();
    PPDB_CHECK_OK(widened_report.status());
    std::vector<std::string> row = {
        StrCat({"+", std::to_string(widen)}),
        stats::TablePrinter::FormatDouble(
            widened_report->ProbabilityOfViolation(), 4)};
    for (double alpha : {0.10, 0.25, 0.50, 0.75}) {
      auto cert = violation::CertifyAlphaPpdb(widened_report.value(), alpha);
      PPDB_CHECK_OK(cert.status());
      row.push_back(cert->certified_with_margin ? "certified"
                    : cert->certified           ? "certified*"
                                                : "no");
    }
    frontier.AddRow(std::move(row));
  }
  frontier.Print(std::cout);
  std::printf("(* = point estimate within alpha but Wilson margin crosses "
              "it.)\nE4 complete: widening monotonically erodes "
              "certifiability.\n");
  return 0;
}
