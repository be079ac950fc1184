// E1 — Reproduces Table 1 and Eqs. 19-24 (§8) and checks every number
// against the paper: conf = {0, 60, 80}, w = {0, 1, 1}, defaults =
// {0, 1, 0}, P(Default) = 1/3.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/macros.h"
#include "common/string_util.h"
#include "privacy/config.h"
#include "stats/table_printer.h"
#include "violation/default_model.h"
#include "violation/detector.h"

namespace {

using namespace ppdb;  // NOLINT(build/namespaces)
using privacy::DimensionSensitivity;
using privacy::PrivacyTuple;

constexpr int kV = 1, kG = 2, kR = 2;  // The paper's symbolic (v, g, r).

int failures = 0;

void Check(const char* what, double expected, double actual) {
  bool ok = std::fabs(expected - actual) < 1e-9;
  if (!ok) ++failures;
  std::printf("  %-34s paper=%-8g measured=%-8g %s\n", what, expected,
              actual, ok ? "MATCH" : "MISMATCH");
}

privacy::PrivacyConfig BuildSection8Config() {
  privacy::PrivacyConfig config;
  std::vector<std::string> levels;
  for (int i = 0; i < 8; ++i) {
    levels.push_back(StrCat({"l", std::to_string(i)}));
  }
  for (privacy::Dimension dim : privacy::kOrderedDimensions) {
    *config.scales.MutableForDimension(dim).value() =
        privacy::OrderedScale::Create(dim, levels).value();
  }
  privacy::PurposeId pr = config.purposes.Register("pr").value();
  PPDB_CHECK_OK(config.policy.Add("Age", PrivacyTuple::ZeroFor(pr)));
  PPDB_CHECK_OK(config.policy.Add("Weight", PrivacyTuple{pr, kV, kG, kR}));
  PPDB_CHECK_OK(config.sensitivities.SetAttributeSensitivity("Weight", 4.0));

  struct Row {
    privacy::ProviderId id;
    PrivacyTuple pref;
    DimensionSensitivity sens;
    double threshold;
  };
  const Row rows[] = {
      {1, PrivacyTuple{pr, kV + 2, kG + 1, kR + 3}, {1, 1, 2, 1}, 10},
      {2, PrivacyTuple{pr, kV + 2, kG - 1, kR + 2}, {3, 1, 5, 2}, 50},
      {3, PrivacyTuple{pr, kV, kG - 1, kR - 1}, {4, 1, 3, 2}, 100},
  };
  for (const Row& row : rows) {
    PPDB_CHECK_OK(config.preferences.ForProvider(row.id).Add("Weight",
                                                             row.pref));
    PPDB_CHECK_OK(config.sensitivities.SetProviderSensitivity(
        row.id, "Weight", row.sens));
    config.thresholds[row.id] = row.threshold;
  }
  return config;
}

}  // namespace

int main() {
  std::printf("=== E1: Table 1 / Eqs. 19-24 (Quantifying Privacy "
              "Violations, SDM'11 Section 8) ===\n\n");
  privacy::PrivacyConfig config = BuildSection8Config();
  violation::ViolationDetector detector(&config);
  auto report = detector.Analyze();
  PPDB_CHECK_OK(report.status());
  violation::DefaultReport defaults =
      violation::ComputeDefaults(report.value(), config);

  stats::TablePrinter table({"data provider", "ProviderPref (v,g,r)",
                             "sigma (s, sV, sG, sR)", "v_i", "w_i",
                             "Violation_i", "default_i"});
  const char* names[] = {"Alice", "Ted", "Bob"};
  const char* prefs[] = {"(v+2, g+1, r+3)", "(v+2, g-1, r+2)",
                         "(v, g-1, r-1)"};
  const char* sens[] = {"<1,1,2,1>", "<3,1,5,2>", "<4,1,3,2>"};
  for (int i = 0; i < 3; ++i) {
    const auto& pv = report->providers[static_cast<size_t>(i)];
    const auto& pd = defaults.providers[static_cast<size_t>(i)];
    table.AddRow({names[i], prefs[i], sens[i],
                  stats::TablePrinter::FormatDouble(pd.threshold, 0),
                  pv.violated ? "1" : "0",
                  stats::TablePrinter::FormatDouble(pv.total_severity, 0),
                  pd.defaulted ? "1" : "0"});
  }
  table.Print(std::cout);

  std::printf("\nPaper-vs-measured:\n");
  Check("conf(Alice) [Eq. 20]", 0.0, report->Find(1)->total_severity);
  Check("conf(Ted)   [Eq. 20]", 60.0, report->Find(2)->total_severity);
  Check("conf(Bob)   [Eq. 20]", 80.0, report->Find(3)->total_severity);
  Check("w_Alice [Table 1]", 0, report->Find(1)->violated ? 1 : 0);
  Check("w_Ted   [Table 1]", 1, report->Find(2)->violated ? 1 : 0);
  Check("w_Bob   [Table 1]", 1, report->Find(3)->violated ? 1 : 0);
  Check("default_Alice [Eq. 21]", 0, defaults.providers[0].defaulted);
  Check("default_Ted   [Eq. 22]", 1, defaults.providers[1].defaulted);
  Check("default_Bob   [Eq. 23]", 0, defaults.providers[2].defaulted);
  Check("P(Default) [Eq. 24]", 1.0 / 3.0, defaults.ProbabilityOfDefault());

  std::printf("\n%s\n", failures == 0
                            ? "E1 REPRODUCED: all 10 quantities match the "
                              "paper exactly."
                            : "E1 FAILED: mismatches above.");
  return failures == 0 ? 0 : 1;
}
