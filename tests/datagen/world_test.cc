#include "datagen/world.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "dataframe/csv.h"

namespace culinary::datagen {
namespace {

using recipe::Region;

/// Shared small world (generation is the expensive step).
const SyntheticWorld& World() {
  static const SyntheticWorld& world = *[] {
    auto result = GenerateSmallWorld();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new SyntheticWorld(std::move(result).value());
  }();
  return world;
}

TEST(WorldTest, RecipeCountsMatchSpecExactly) {
  WorldSpec spec = WorldSpec::Small();
  for (const RegionSpec& rs : spec.regions) {
    EXPECT_EQ(World().db().CountForRegion(rs.region), rs.num_recipes)
        << recipe::RegionCode(rs.region);
  }
}

TEST(WorldTest, IngredientCountsNearSpec) {
  WorldSpec spec = WorldSpec::Small();
  for (const RegionSpec& rs : spec.regions) {
    recipe::Cuisine cuisine = World().db().CuisineFor(rs.region);
    size_t realized = cuisine.unique_ingredients().size();
    // The Zipf tail may starve a few ingredients; realized counts must be
    // within 10% of the target and never exceed it.
    EXPECT_LE(realized, rs.num_ingredients);
    EXPECT_GE(realized, rs.num_ingredients * 9 / 10)
        << recipe::RegionCode(rs.region);
  }
}

TEST(WorldTest, RecipeSizesWithinSpecBounds) {
  WorldSpec spec = WorldSpec::Small();
  for (const recipe::Recipe& r : World().db().recipes()) {
    EXPECT_GE(r.size(), 2u);  // duplicates may shrink below min? see below
    EXPECT_LE(r.size(), spec.recipe_size_max);
  }
}

TEST(WorldTest, WorldMeanRecipeSizeNearNine) {
  recipe::Cuisine world_cuisine = World().db().WorldCuisine();
  EXPECT_NEAR(world_cuisine.MeanRecipeSize(), 9.0, 0.8);
}

TEST(WorldTest, PopularityIsHeavyTailed) {
  recipe::Cuisine italy = World().db().CuisineFor(Region::kItaly);
  auto ranked = italy.ByPopularity();
  ASSERT_GE(ranked.size(), 20u);
  // Top ingredient used much more than the median one.
  EXPECT_GT(ranked[0].second, 4 * ranked[ranked.size() / 2].second);
}

TEST(WorldTest, DeterministicGeneration) {
  auto a = GenerateSmallWorld();
  auto b = GenerateSmallWorld();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->db().num_recipes(), b->db().num_recipes());
  for (size_t i = 0; i < a->db().num_recipes(); i += 97) {
    EXPECT_EQ(a->db().recipes()[i].ingredients,
              b->db().recipes()[i].ingredients);
  }
}

/// FNV-1a over everything generation decides: every registry slot (name,
/// synonyms, category, kind, profile, constituents, tombstone) and every
/// recipe (name, region, ingredient ids), in id order.
uint64_t WorldContentDigest(const SyntheticWorld& world) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  auto mix_int = [&mix](int64_t v) { mix(&v, sizeof(v)); };
  auto mix_str = [&](const std::string& s) {
    mix_int(static_cast<int64_t>(s.size()));
    mix(s.data(), s.size());
  };
  const flavor::FlavorRegistry& reg = world.registry();
  for (size_t i = 0; i < reg.num_ingredient_slots(); ++i) {
    auto ing = reg.GetIngredient(static_cast<flavor::IngredientId>(i),
                                 /*include_removed=*/true);
    EXPECT_TRUE(ing.ok()) << ing.status().ToString();
    if (!ing.ok()) continue;
    mix_str(ing->name);
    for (const std::string& syn : ing->synonyms) mix_str(syn);
    mix_int(static_cast<int64_t>(ing->category));
    mix_int(static_cast<int64_t>(ing->kind));
    mix_int(ing->removed ? 1 : 0);
    for (flavor::MoleculeId m : ing->profile.ids()) mix_int(m);
    for (flavor::IngredientId c : ing->constituents) mix_int(c);
  }
  for (const recipe::Recipe& r : world.db().recipes()) {
    mix_str(r.name);
    mix_int(static_cast<int64_t>(r.region));
    for (flavor::IngredientId id : r.ingredients) mix_int(id);
  }
  return h;
}

TEST(WorldTest, ContentPinnedForSeedsThatGenerate) {
  // Redrawing a synthetic name only when it collides with a registered one
  // must leave every world that generated before byte-for-byte unchanged.
  struct Pin {
    bool small;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {false, WorldSpec::Default().seed, 0x139a2c1cd12dae05ULL},
      {true, WorldSpec::Small().seed, 0x27f2099dcf73efd6ULL},
      {false, 400, 0x774330158e74ca7aULL},
      {false, 405, 0x9b77f497af57fa56ULL},
      {false, 459, 0xbe0477818e66fb52ULL},
  };
  for (const Pin& pin : pins) {
    WorldSpec spec = pin.small ? WorldSpec::Small() : WorldSpec::Default();
    spec.seed = pin.seed;
    auto world = GenerateWorld(spec);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    EXPECT_EQ(WorldContentDigest(world.value()), pin.digest)
        << (pin.small ? "small" : "default") << " seed " << pin.seed;
  }
}

TEST(WorldTest, EveryDefaultSpecSeedFrom400To459Generates) {
  // Synthetic names are drawn from a syllable generator that knows nothing
  // of the curated list; seeds 404, 433 and 453 used to draw "pita", "sage"
  // and "lime" and fail with AlreadyExists.
  WorldSpec spec = WorldSpec::Default();
  size_t expected_recipes = 0;
  for (const RegionSpec& rs : spec.regions) expected_recipes += rs.num_recipes;
  for (uint64_t seed = 400; seed <= 459; ++seed) {
    spec.seed = seed;
    auto world = GenerateWorld(spec);
    ASSERT_TRUE(world.ok()) << "seed " << seed << ": "
                            << world.status().ToString();
    EXPECT_EQ(world->db().num_recipes(), expected_recipes) << "seed " << seed;
  }
}

TEST(WorldTest, ExportWritesBothCsvs) {
  std::string prefix = ::testing::TempDir() + "/culinary_world_test";
  ASSERT_TRUE(ExportWorldCsv(World(), prefix).ok());

  auto recipes = df::ReadCsvFile(prefix + "_recipes.csv");
  ASSERT_TRUE(recipes.ok());
  EXPECT_EQ(recipes->num_rows(), World().db().num_recipes());
  EXPECT_TRUE(recipes->schema().HasField("region"));
  EXPECT_TRUE(recipes->schema().HasField("ingredients"));

  auto ingredients = df::ReadCsvFile(prefix + "_ingredients.csv");
  ASSERT_TRUE(ingredients.ok());
  EXPECT_EQ(ingredients->num_rows(),
            World().registry().num_live_ingredients());
  EXPECT_TRUE(ingredients->schema().HasField("category"));

  std::remove((prefix + "_recipes.csv").c_str());
  std::remove((prefix + "_ingredients.csv").c_str());
}

TEST(WorldTest, CsvRoundTripThroughRecipeDatabase) {
  std::string prefix = ::testing::TempDir() + "/culinary_world_rt";
  ASSERT_TRUE(ExportWorldCsv(World(), prefix).ok());
  size_t skipped = 0;
  auto loaded = recipe::RecipeDatabase::LoadCsv(
      prefix + "_recipes.csv", World().universe.registry.get(), &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(loaded->num_recipes(), World().db().num_recipes());
  // Spot-check a recipe's ingredient set round-trips.
  EXPECT_EQ(loaded->recipes()[5].ingredients,
            World().db().recipes()[5].ingredients);
  std::remove((prefix + "_recipes.csv").c_str());
  std::remove((prefix + "_ingredients.csv").c_str());
}

}  // namespace
}  // namespace culinary::datagen
