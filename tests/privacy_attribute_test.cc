// The attribute registry and the id-keyed population store: interning,
// the orders the serializer keeps whatever order ids were issued in, and
// value semantics of a copied config.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "privacy/attribute.h"
#include "privacy/config.h"
#include "privacy/policy_dsl.h"
#include "tests/test_util.h"

namespace ppdb::privacy {
namespace {

TEST(AttributeRegistryTest, RegisterIsIdempotent) {
  AttributeRegistry registry;
  const AttributeId weight = registry.Register("weight");
  EXPECT_EQ(registry.Register("age"), weight + 1);
  EXPECT_EQ(registry.Register("weight"), weight);
  EXPECT_EQ(registry.num_attributes(), 2);
  EXPECT_EQ(registry.NameOf(weight), "weight");
}

TEST(AttributeRegistryTest, LookupMissRegistersNothing) {
  AttributeRegistry registry;
  registry.Register("weight");
  EXPECT_EQ(registry.Lookup("weight"), std::optional<AttributeId>(0));
  EXPECT_FALSE(registry.Lookup("height").has_value());
  EXPECT_EQ(registry.num_attributes(), 1);
}

TEST(AttributeRegistryTest, NamesListedInIdOrder) {
  AttributeRegistry registry;
  for (const char* name : {"zip", "age", "weight", "age"}) {
    registry.Register(name);
  }
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"zip", "age", "weight"}));
}

TEST(ProviderPreferencesTest, RefusedAddRegistersNothing) {
  PreferenceStore store;
  ProviderPreferences& prefs = store.ForProvider(1);
  ASSERT_OK(prefs.Add("weight", PrivacyTuple{0, 1, 1, 1}));
  EXPECT_TRUE(prefs.Add("weight", PrivacyTuple{0, 2, 2, 2}).IsAlreadyExists());
  EXPECT_TRUE(prefs.Remove("height", 0).IsNotFound());
  EXPECT_TRUE(prefs.Find("height", 0).status().IsNotFound());
  EXPECT_EQ(store.attributes().names(), std::vector<std::string>{"weight"});
}

TEST(ProviderPreferencesTest, EntriesShareTheStoreRegistry) {
  PreferenceStore store;
  store.ForProvider(2).Set("age", PrivacyTuple{0, 1, 1, 1});
  store.ForProvider(1).Set("weight", PrivacyTuple{0, 1, 1, 1});
  store.ForProvider(1).Set("age", PrivacyTuple{0, 2, 2, 2});
  const ProviderPreferences& one = *store.Find(1).value();
  ASSERT_EQ(one.rows().size(), 2u);
  EXPECT_EQ(one.rows()[0].attribute, store.attributes().Lookup("weight"));
  EXPECT_EQ(one.rows()[1].attribute, store.attributes().Lookup("age"));
  EXPECT_EQ(one.Stated(*store.attributes().Lookup("age"), 0)->visibility, 2);
  EXPECT_EQ(one.Stated(*store.attributes().Lookup("age"), 1), nullptr);
}

/// Scales, a purpose and a policy naming only `weight`.
constexpr char kBase[] =
    "purpose marketing\n"
    "policy weight for marketing: visibility=house, granularity=partial, "
    "retention=week\n";

TEST(AttributeOrderTest, SigmaIsWrittenInNameOrderWhateverTheIdOrder) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config, ParsePrivacyConfig(kBase));
  // σ ids: weight 0, zip 1, age 2 — neither name order nor set order per
  // provider.
  ASSERT_OK(config.sensitivities.SetProviderSensitivity(
      2, "weight", DimensionSensitivity{2, 1, 1, 1}));
  ASSERT_OK(config.sensitivities.SetProviderSensitivity(
      1, "zip", DimensionSensitivity{3, 1, 1, 1}));
  ASSERT_OK(config.sensitivities.SetProviderSensitivityForPurpose(
      1, "weight", 0, DimensionSensitivity{4, 1, 1, 1}));
  ASSERT_OK(config.sensitivities.SetProviderSensitivity(
      1, "age", DimensionSensitivity{5, 1, 1, 1}));
  ASSERT_OK(config.sensitivities.SetProviderSensitivity(
      1, "weight", DimensionSensitivity{6, 1, 1, 1}));
  const std::string text = SerializePrivacyConfig(config);
  const std::vector<std::string> expected = {
      "sensitivity 1 age: value=5,",
      "sensitivity 1 weight: value=6,",
      "sensitivity 1 zip: value=3,",
      "sensitivity 2 weight: value=2,",
      "sensitivity 1 weight for marketing: value=4,",
  };
  size_t at = 0;
  for (const std::string& line : expected) {
    const size_t found = text.find("\n" + line, at);
    ASSERT_NE(found, std::string::npos) << line << "\n" << text;
    at = found + 1;
  }
  ASSERT_OK_AND_ASSIGN(PrivacyConfig reparsed, ParsePrivacyConfig(text));
  EXPECT_EQ(SerializePrivacyConfig(reparsed), text);
}

TEST(AttributeOrderTest, PreferencesKeepEachProvidersStatedOrder) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config, ParsePrivacyConfig(kBase));
  // Ids: age 0, weight 1, zip 2. Provider 2 states them out of id order,
  // then a later Set appends and another replaces in place.
  config.preferences.ForProvider(1).Set("age", PrivacyTuple{0, 1, 1, 1});
  config.preferences.ForProvider(1).Set("weight", PrivacyTuple{0, 1, 1, 1});
  ProviderPreferences& two = config.preferences.ForProvider(2);
  two.Set("weight", PrivacyTuple{0, 2, 2, 2});
  two.Set("zip", PrivacyTuple{0, 2, 2, 2});
  two.Set("age", PrivacyTuple{0, 2, 2, 2});
  two.Set("zip", PrivacyTuple{0, 3, 3, 3});
  const std::string text = SerializePrivacyConfig(config);
  const size_t weight = text.find("\npref 2 weight ");
  const size_t zip = text.find("\npref 2 zip for marketing: visibility=world");
  const size_t age = text.find("\npref 2 age ");
  ASSERT_NE(weight, std::string::npos) << text;
  EXPECT_LT(weight, zip) << text;
  EXPECT_LT(zip, age) << text;
  ASSERT_OK_AND_ASSIGN(PrivacyConfig reparsed, ParsePrivacyConfig(text));
  EXPECT_EQ(SerializePrivacyConfig(reparsed), text);
}

TEST(AttributeOrderTest, AttributesOutsideThePolicyRoundTrip) {
  // `shoe` is named only by a preference, `hat` only by σ.
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig(std::string(kBase) +
                         "pref 1 shoe for marketing: visibility=world\n"
                         "sensitivity 1 hat: value=7\n"));
  EXPECT_TRUE(config.preferences.attributes().Lookup("shoe").has_value());
  EXPECT_FALSE(config.preferences.attributes().Lookup("hat").has_value());
  EXPECT_TRUE(config.sensitivities.attributes().Lookup("hat").has_value());
  EXPECT_DOUBLE_EQ(config.sensitivities.ProviderSensitivity(1, "hat", 0).value,
                   7.0);
  const std::string text = SerializePrivacyConfig(config);
  ASSERT_OK_AND_ASSIGN(PrivacyConfig reparsed, ParsePrivacyConfig(text));
  EXPECT_EQ(SerializePrivacyConfig(reparsed), text);
}

TEST(PrivacyConfigCopyTest, CopyAnswersAfterTheOriginalIsMutatedOrDestroyed) {
  auto original = std::make_unique<PrivacyConfig>();
  ASSERT_OK_AND_ASSIGN(*original, ParsePrivacyConfig(kBase));
  original->preferences.ForProvider(1).Set("weight", PrivacyTuple{0, 1, 2, 3});
  ASSERT_OK(original->sensitivities.SetProviderSensitivity(
      1, "weight", DimensionSensitivity{2, 1, 1, 1}));
  const PrivacyConfig copy = *original;
  const std::string before = SerializePrivacyConfig(copy);

  // New names registered in the original must not reach the copy, and
  // edits to shared names must not either.
  original->preferences.ForProvider(1).Set("height", PrivacyTuple{0, 3, 3, 3});
  original->preferences.ForProvider(1).Set("weight", PrivacyTuple{0, 0, 0, 0});
  original->preferences.ForProvider(5).Set("zip", PrivacyTuple{0, 1, 1, 1});
  ASSERT_OK(original->sensitivities.SetProviderSensitivity(
      1, "weight", DimensionSensitivity{9, 9, 9, 9}));
  original.reset();

  EXPECT_EQ(SerializePrivacyConfig(copy), before);
  EXPECT_FALSE(copy.preferences.attributes().Lookup("height").has_value());
  EXPECT_EQ(copy.preferences.Find(1).value()->Find("weight", 0)->granularity,
            2);
  EXPECT_DOUBLE_EQ(copy.sensitivities.ProviderSensitivity(1, "weight", 0).value,
                   2.0);

  // A copy keeps working as a store of its own.
  PrivacyConfig grown = copy;
  grown.preferences.ForProvider(1).Set("height", PrivacyTuple{0, 1, 1, 1});
  EXPECT_EQ(grown.preferences.Find(1).value()->size(), 2);
  EXPECT_EQ(copy.preferences.Find(1).value()->size(), 1);
}

TEST(PrivacyConfigCopyTest, MovedFromStoreStaysUsable) {
  PreferenceStore store;
  store.ForProvider(1).Set("weight", PrivacyTuple{0, 1, 1, 1});
  PreferenceStore moved = std::move(store);
  EXPECT_EQ(moved.Find(1).value()->Find("weight", 0)->visibility, 1);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is pinned.
  EXPECT_EQ(store.num_providers(), 0);
  store.ForProvider(2).Set("age", PrivacyTuple{0, 1, 1, 1});
  EXPECT_EQ(store.attributes().names(), std::vector<std::string>{"age"});
}

}  // namespace
}  // namespace ppdb::privacy
