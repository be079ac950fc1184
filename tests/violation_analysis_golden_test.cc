// Pins the analysis itself, not only the agreement of its two engines.
//
// tests/data/analysis_golden.txt holds, for three configurations, every
// provider's Violation_i (as the bits of the double), w_i, incident count
// and default_i, the Eq. 16 total, and the after side of two what-if
// points. The batch detector and the incremental view each recompute the
// file, and each must reproduce it byte for byte. A slip in the Def. 1
// preference rule or in the σ rule (purpose override, then default, then
// ones) moves both engines at once, so a test that only compares them
// cannot see it; this one can.
//
// The file was written by RenderFigures(DetectorFigures(...)) over the
// cases below. Regenerate it only for a deliberate change of the model's
// arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "privacy/policy_dsl.h"
#include "sim/population.h"
#include "tests/test_util.h"
#include "violation/default_model.h"
#include "violation/detector.h"
#include "violation/incremental.h"

namespace ppdb::violation {
namespace {

using privacy::Dimension;
using privacy::HousePolicy;
using privacy::PrivacyConfig;

std::string ReadData(const std::string& name) {
  std::ifstream in(std::string(PPDB_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Empty when `got == want`, else the first line where they differ.
std::string FirstDifference(const std::string& got, const std::string& want) {
  if (got == want) return "";
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const size_t newline =
      at == 0 ? std::string::npos : want.rfind('\n', at - 1);
  const size_t from = newline == std::string::npos ? 0 : newline + 1;
  auto line_at = [from](const std::string& text) {
    return text.substr(from, text.find('\n', from) - from);
  };
  return StrCat({"got '", line_at(got), "', want '", line_at(want), "'"});
}

struct ProviderFigures {
  ProviderId provider = 0;
  double severity = 0.0;
  bool violated = false;
  int64_t incidents = 0;
  bool defaulted = false;
};

/// The after side of one what-if point.
struct AfterFigures {
  int64_t violated = 0;
  int64_t defaulted = 0;
  double total = 0.0;
};

struct Figures {
  std::vector<ProviderFigures> providers;
  double total = 0.0;
  AfterFigures widen_all;
  AfterFigures widen_one;
};

/// One configuration and the two what-if points asked of it: visibility
/// +1 on every tuple, and visibility +1 on the tuples of one attribute.
/// Both engines analyze the config as it declares itself, `implies` edges
/// included.
struct Case {
  std::string name;
  PrivacyConfig config;
  std::string moved_attribute;

  ViolationDetector::Options Options() const {
    return WithConfigHierarchy(config, {});
  }
};

Result<HousePolicy> WidenAll(const Case& c) {
  return c.config.policy.Widened(Dimension::kVisibility, 1, c.config.scales);
}

Result<HousePolicy> WidenOne(const Case& c) {
  return c.config.policy.WidenedForAttribute(
      c.moved_attribute, Dimension::kVisibility, 1, c.config.scales);
}

Result<AfterFigures> DetectorAfter(const Case& c, const HousePolicy& policy) {
  ViolationDetector::Options options = c.Options();
  options.policy_override = &policy;
  PPDB_ASSIGN_OR_RETURN(ViolationReport report,
                        ViolationDetector(&c.config, options).Analyze());
  return AfterFigures{report.num_violated,
                      ComputeDefaults(report, c.config).num_defaulted,
                      report.total_severity};
}

Result<Figures> DetectorFigures(const Case& c) {
  PPDB_ASSIGN_OR_RETURN(ViolationReport report,
                        ViolationDetector(&c.config, c.Options()).Analyze());
  const DefaultReport defaults = ComputeDefaults(report, c.config);
  Figures out;
  for (size_t i = 0; i < report.providers.size(); ++i) {
    const ProviderViolation& pv = report.providers[i];
    out.providers.push_back(
        {pv.provider, pv.total_severity, pv.violated,
         static_cast<int64_t>(pv.incidents.size()),
         defaults.providers[i].defaulted});
  }
  out.total = report.total_severity;
  PPDB_ASSIGN_OR_RETURN(HousePolicy all, WidenAll(c));
  PPDB_ASSIGN_OR_RETURN(out.widen_all, DetectorAfter(c, all));
  PPDB_ASSIGN_OR_RETURN(HousePolicy one, WidenOne(c));
  PPDB_ASSIGN_OR_RETURN(out.widen_one, DetectorAfter(c, one));
  return out;
}

Result<AfterFigures> ViewAfter(const ViolationView& view,
                               const HousePolicy& policy) {
  PPDB_ASSIGN_OR_RETURN(ChangeImpact impact, view.AssessPolicyChange(policy));
  return AfterFigures{impact.num_violated_after, impact.num_defaulted_after,
                      impact.total_violations_after};
}

Result<Figures> ViewFigures(const Case& c) {
  PPDB_ASSIGN_OR_RETURN(ViolationView view,
                        ViolationView::Create(&c.config, c.Options()));
  Figures out;
  for (ProviderId id : c.config.preferences.ProviderIds()) {
    PPDB_ASSIGN_OR_RETURN(ViolationView::ProviderSummary s,
                          view.Summarize(id));
    out.providers.push_back(
        {s.provider, s.severity, s.violated, s.incidents, s.defaulted});
  }
  out.total = view.TotalViolations();
  PPDB_ASSIGN_OR_RETURN(HousePolicy all, WidenAll(c));
  PPDB_ASSIGN_OR_RETURN(out.widen_all, ViewAfter(view, all));
  PPDB_ASSIGN_OR_RETURN(HousePolicy one, WidenOne(c));
  PPDB_ASSIGN_OR_RETURN(out.widen_one, ViewAfter(view, one));
  return out;
}

std::string Bits(double value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                std::bit_cast<uint64_t>(value));
  return buf;
}

std::string RenderAfter(const std::string& label, const AfterFigures& a) {
  return StrCat({"after ", label, " violated=", std::to_string(a.violated),
                 " defaulted=", std::to_string(a.defaulted),
                 " total=", Bits(a.total), "\n"});
}

std::string RenderFigures(const Case& c, const Figures& f) {
  std::string out = StrCat({"== ", c.name, "\n"});
  for (const ProviderFigures& p : f.providers) {
    out += StrCat({"provider ", std::to_string(p.provider), " ",
                   Bits(p.severity), " w=", p.violated ? "1" : "0",
                   " incidents=", std::to_string(p.incidents),
                   " default=", p.defaulted ? "1" : "0", "\n"});
  }
  out += StrCat({"total ", Bits(f.total), "\n"});
  out += RenderAfter("visibility+1", f.widen_all);
  out += RenderAfter(StrCat({c.moved_attribute, " visibility+1"}),
                     f.widen_one);
  return out;
}

/// The committed DSL golden file, plus one policy tuple for
/// email_marketing, so that the file's `implies` edge (ancestor
/// preferences) and provider 3's email_marketing σ override both reach a
/// cell.
std::string GoldenText(bool with_edge) {
  std::string text = ReadData("privacy_golden.ppdb");
  if (!with_edge) {
    const std::string edge = "purpose email_marketing implies marketing\n";
    const size_t at = text.find(edge);
    PPDB_CHECK(at != std::string::npos);
    text.erase(at, edge.size());
  }
  text +=
      "policy age for email_marketing: visibility=house, "
      "granularity=partial, retention=none\n";
  return text;
}

Result<Case> GoldenCase(bool with_edge) {
  Case c;
  c.name = with_edge ? "privacy_golden.ppdb with its implies edge"
                     : "privacy_golden.ppdb without its implies edge";
  PPDB_ASSIGN_OR_RETURN(c.config,
                        privacy::ParsePrivacyConfig(GoldenText(with_edge)));
  c.moved_attribute = "weight";
  return c;
}

/// A seeded sim population whose providers each carry explicit σ, a
/// third of them with purpose-specific overrides on top.
Result<Case> SimCase() {
  sim::PopulationConfig population_config;
  population_config.num_providers = 240;
  population_config.attributes = {{"weight", 4.0, 70.0, 12.0},
                                  {"age", 1.5, 40.0, 15.0},
                                  {"zip", 2.0, 50.0, 10.0}};
  population_config.purposes = {"marketing", "research", "billing"};
  population_config.seed = 31;
  PPDB_ASSIGN_OR_RETURN(sim::Population population,
                        sim::PopulationGenerator(population_config).Generate());
  Case c;
  c.name = "sim seed 31 with purpose overrides";
  c.config = std::move(population.config);
  PPDB_ASSIGN_OR_RETURN(
      c.config.policy,
      sim::MakeUniformPolicy(population_config.attributes,
                             population_config.purposes, 0.0, 0.0, 0.25,
                             &c.config));
  Rng rng(23);
  for (ProviderId id : c.config.preferences.ProviderIds()) {
    if (rng.NextBounded(3) != 0) continue;
    const sim::AttributeSpec& attr =
        population_config.attributes[rng.NextBounded(3)];
    const privacy::PurposeId purpose =
        static_cast<privacy::PurposeId>(rng.NextBounded(3));
    privacy::DimensionSensitivity sens;
    sens.value = 0.25 + 2.0 * rng.NextDouble();
    sens.visibility = 0.25 + 2.0 * rng.NextDouble();
    sens.granularity = 0.25 + 2.0 * rng.NextDouble();
    sens.retention = 0.25 + 2.0 * rng.NextDouble();
    PPDB_RETURN_NOT_OK(c.config.sensitivities.SetProviderSensitivityForPurpose(
        id, attr.name, purpose, sens));
  }
  c.moved_attribute = "age";
  return c;
}

Result<std::vector<Case>> AllCases() {
  std::vector<Case> cases;
  PPDB_ASSIGN_OR_RETURN(Case with_edge, GoldenCase(true));
  cases.push_back(std::move(with_edge));
  PPDB_ASSIGN_OR_RETURN(Case without_edge, GoldenCase(false));
  cases.push_back(std::move(without_edge));
  PPDB_ASSIGN_OR_RETURN(Case sim, SimCase());
  cases.push_back(std::move(sim));
  return cases;
}

TEST(AnalysisGoldenTest, CasesExerciseTheRulesTheyPin) {
  ASSERT_OK_AND_ASSIGN(std::vector<Case> cases, AllCases());
  // The edge must change some answer, or "with and without" pins nothing.
  ASSERT_OK_AND_ASSIGN(Figures with_edge, DetectorFigures(cases[0]));
  ASSERT_OK_AND_ASSIGN(Figures without_edge, DetectorFigures(cases[1]));
  EXPECT_NE(RenderFigures(cases[0], with_edge),
            RenderFigures(cases[0], without_edge));
  // Both what-if points must move the after side.
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(Figures f, DetectorFigures(c));
    EXPECT_NE(f.widen_all.total, f.total) << c.name;
    EXPECT_NE(f.widen_one.total, f.total) << c.name;
    EXPECT_NE(f.widen_one.total, f.widen_all.total) << c.name;
  }
}

TEST(AnalysisGoldenTest, DetectorReproducesTheGoldenFile) {
  const std::string golden = ReadData("analysis_golden.txt");
  ASSERT_FALSE(golden.empty()) << "missing analysis_golden.txt";
  ASSERT_OK_AND_ASSIGN(std::vector<Case> cases, AllCases());
  std::string rendered;
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(Figures f, DetectorFigures(c));
    rendered += RenderFigures(c, f);
  }
  EXPECT_EQ(FirstDifference(rendered, golden), "");
}

TEST(AnalysisGoldenTest, ViewReproducesTheGoldenFile) {
  const std::string golden = ReadData("analysis_golden.txt");
  ASSERT_FALSE(golden.empty()) << "missing analysis_golden.txt";
  ASSERT_OK_AND_ASSIGN(std::vector<Case> cases, AllCases());
  std::string rendered;
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(Figures f, ViewFigures(c));
    rendered += RenderFigures(c, f);
  }
  EXPECT_EQ(FirstDifference(rendered, golden), "");
}

}  // namespace
}  // namespace ppdb::violation
