// Pins the privacy DSL codec: a committed golden file written by the
// serializer, and the continuation-line property of the parser.
//
// tests/data/privacy_golden.ppdb is SerializePrivacyConfig(GoldenConfig()).
// Regenerate it only for a deliberate change of the serialized format, by
// writing that string to the file.
#include <gtest/gtest.h>

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

namespace ppdb::privacy {
namespace {

std::string GoldenPath() {
  return std::string(PPDB_TEST_DATA_DIR) + "/privacy_golden.ppdb";
}

std::string ReadGolden() {
  std::ifstream in(GoldenPath(), std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Empty when `got == want`, else the first line where they differ: the
/// golden file is too large to print whole in a failure.
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

/// A seeded 200-provider sim population under a uniform policy, plus one
/// of each statement and number form the population does not produce.
Result<PrivacyConfig> GoldenConfig() {
  sim::PopulationConfig population_config;
  population_config.num_providers = 200;
  population_config.attributes = {{"weight", 4.0, 70.0, 12.0},
                                  {"age", 1.5, 40.0, 15.0}};
  population_config.purposes = {"marketing", "research"};
  population_config.seed = 19;
  PPDB_ASSIGN_OR_RETURN(sim::Population population,
                        sim::PopulationGenerator(population_config).Generate());
  PrivacyConfig config = std::move(population.config);
  PPDB_ASSIGN_OR_RETURN(
      config.policy,
      sim::MakeUniformPolicy(population_config.attributes,
                             population_config.purposes, 0.5, 0.5, 0.25,
                             &config));

  PPDB_ASSIGN_OR_RETURN(PurposeId marketing,
                        config.purposes.Lookup("marketing"));
  PPDB_ASSIGN_OR_RETURN(PurposeId email,
                        config.purposes.Register("email_marketing"));
  PPDB_RETURN_NOT_OK(
      config.purpose_hierarchy.AddEdge(email, marketing, config.purposes));
  PPDB_RETURN_NOT_OK(config.sensitivities.SetAttributeSensitivityForPurpose(
      "weight", marketing, 2.5));
  DimensionSensitivity odd;
  odd.value = 1.0 / 3.0;       // needs %.17g
  odd.visibility = 1e-7;       // exponent form under %g
  odd.granularity = 0.1;       // %g round-trips
  odd.retention = 1.5e300;
  PPDB_RETURN_NOT_OK(config.sensitivities.SetProviderSensitivityForPurpose(
      3, "age", email, odd));
  config.numeric_generalizers["weight"] = {0, 0.5, 10};
  config.numeric_generalizers["age"] = {0, 5};
  config.preferences.ForProvider(201);  // a provider with no preferences
  config.thresholds[1] = -0.0;
  config.thresholds[2] = 2.5e-5;
  config.fallback_threshold = 12.5;
  return config;
}

TEST(PolicyDslGoldenTest, SerializerWritesTheGoldenFile) {
  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing " << GoldenPath();
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config, GoldenConfig());
  EXPECT_EQ(FirstDifference(SerializePrivacyConfig(config), golden), "");
}

TEST(PolicyDslGoldenTest, ParseThenSerializeReproducesTheGoldenFile) {
  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing " << GoldenPath();
  ASSERT_OK_AND_ASSIGN(PrivacyConfig parsed, ParsePrivacyConfig(golden));
  EXPECT_EQ(FirstDifference(SerializePrivacyConfig(parsed), golden), "");
}

TEST(PolicyDslGoldenTest, GoldenFileHoldsEveryRareForm) {
  const std::string golden = ReadGolden();
  for (const char* needle : {
           "\npurpose email_marketing implies marketing\n",
           "\nattr_sensitivity weight for marketing = 2.5\n",
           "\nsensitivity 3 age for email_marketing: "
           "value=0.33333333333333331, visibility=1e-07, granularity=0.1, "
           "retention=1.5e+300\n",
           "\ngeneralizer weight: 0, 0.5, 10\n",
           "\nprovider 201\n",
           "\nthreshold 1 = -0\n",
           "\nthreshold 2 = 2.5e-05\n",
           "\nfallback_threshold = 12.5\n",
       }) {
    EXPECT_NE(golden.find(needle), std::string::npos) << needle;
  }
}

/// Inserts `pairs` backslash-newline continuations at random offsets of
/// `text`. An offset right after a backslash is skipped: there the pair
/// would turn an existing `\` + newline into a literal backslash line.
std::string InsertContinuations(const std::string& text, int pairs,
                                Rng& rng) {
  std::string out = text;
  for (int inserted = 0; inserted < pairs;) {
    const size_t at = rng.NextBounded(out.size() + 1);
    if (at > 0 && out[at - 1] == '\\') continue;
    out.insert(at, "\\\n");
    ++inserted;
  }
  return out;
}

TEST(PolicyDslContinuationTest, GoldenFileParsesTheSameWithContinuations) {
  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing " << GoldenPath();
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    const std::string continued = InsertContinuations(golden, 200, rng);
    ASSERT_OK_AND_ASSIGN(PrivacyConfig parsed, ParsePrivacyConfig(continued));
    ASSERT_EQ(FirstDifference(SerializePrivacyConfig(parsed), golden), "")
        << "trial " << trial;
  }
}

// The inputs of every PolicyDslTest error case, plus errors on later
// lines, in number fields and after continuations.
const std::vector<std::string>& ErrorCases() {
  static const std::vector<std::string> cases = {
      "purpose ok\nbogus statement here\n",
      "policy w for p: visibility=everyone\n",
      "policy w for p: visibility=9\n",
      "policy w for p: visibility=1\nscale visibility: a, b\n",
      "magnitudes retention: 1, 2\n",
      "policy w for p: visibility=1\npolicy w for p: visibility=2\n",
      "threshold 1 = -5\n",
      "policy w for p: visibility\n",
      "policy w for p: =1\n",
      "purpose a implies b\npurpose b implies a\n",
      "scale visibility: lo, hi\npolicy w for p: visibility=5\n",
      "generalizer weight:\n",
      "generalizer weight: ten\n",
      "generalizer 9bad: 1\n",
      "purpose a\n\n# note\npolicy w for p: visibility=1, \\\n"
      "  granularity=2\npref 1 w for p: visibility=1,, retention=1\n",
      "pref x w for p: visibility=1\n",
      "pref 1 w for p:\n",
      "pref 1 w for 9p: visibility=1\n",
      "pref 1 w for p: purpose=1\n",
      "pref 1 w for p: Visibility=world, g=partial, R=9\n",
      "sensitivity 1 w: value=1e999\n",
      "sensitivity 1 w: value=4.9406564584124654e-324\n",
      "sensitivity 1 w: purpose=1\n",
      "sensitivity 1 w: value=-1\n",
      "sensitivity 1 w for p q: value=1\n",
      "attr_sensitivity w for = 2\n",
      "attr_sensitivity w = 2x\n",
      "threshold 1 = 1.5x\n",
      "threshold 1 2 = 1\n",
      "fallback_threshold 3 = 1\n",
      "provider 1 2\n",
      "provider 99999999999999999999\n",
      "scale purpose: a, b\n",
      "scale visibility: a, a\n",
      "magnitudes visibility: 0, 1, 2, x\n",
      "purpose 9bad\n",
      "purpose a b c d\n",
      "purpose a: b\n",
      "policy w for p: visibility=1\npolicy w for p: visibility=2\n"
      "bogus\n",
  };
  return cases;
}

TEST(PolicyDslContinuationTest, ErrorsKeepTextAndLineWithContinuations) {
  Rng rng(11);
  for (const std::string& input : ErrorCases()) {
    const Status expected = ParsePrivacyConfig(input).status();
    ASSERT_FALSE(expected.ok()) << input;
    for (int trial = 0; trial < 20; ++trial) {
      const std::string continued =
          InsertContinuations(input, 1 + trial % 4, rng);
      EXPECT_EQ(ParsePrivacyConfig(continued).status().ToString(),
                expected.ToString())
          << continued;
    }
  }
}

}  // namespace
}  // namespace ppdb::privacy
