#include "datagen/registry_gen.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "datagen/names.h"

namespace culinary::datagen {

namespace {

using flavor::Category;
using flavor::FlavorProfile;
using flavor::FlavorRegistry;
using flavor::IngredientId;
using flavor::MoleculeId;

/// Distribution of synthetic ingredients over categories, roughly matching
/// the breadth of FlavorDB (vegetables/fruits/spices/herbs dominate the
/// entity list even if usage differs).
Category SampleCategory(culinary::Rng& rng) {
  static constexpr struct {
    Category category;
    double weight;
  } kWeights[] = {
      {Category::kVegetable, 14}, {Category::kFruit, 13},
      {Category::kSpice, 9},      {Category::kHerb, 8},
      {Category::kPlant, 8},      {Category::kMeat, 7},
      {Category::kDairy, 6},      {Category::kCereal, 5},
      {Category::kFish, 5},       {Category::kSeafood, 4},
      {Category::kNutsAndSeeds, 4}, {Category::kLegume, 4},
      {Category::kBeverage, 3},   {Category::kBeverageAlcoholic, 3},
      {Category::kBakery, 2},     {Category::kFungus, 2},
      {Category::kFlower, 1.5},   {Category::kEssentialOil, 1.5},
      {Category::kMaize, 1},      {Category::kAdditive, 1},
      {Category::kDish, 1},
  };
  double total = 0;
  for (const auto& w : kWeights) total += w.weight;
  double x = rng.NextDouble() * total;
  for (const auto& w : kWeights) {
    x -= w.weight;
    if (x <= 0) return w.category;
  }
  return Category::kVegetable;
}

/// Samples a profile for an ingredient with home pool `home`: a mix of its
/// home pool, one secondary pool and the common molecule block.
FlavorProfile SampleProfile(const WorldSpec& spec,
                            const std::vector<std::vector<MoleculeId>>& pools,
                            const std::vector<MoleculeId>& common, int home,
                            size_t target_size, culinary::Rng& rng) {
  std::vector<MoleculeId> ids;
  ids.reserve(target_size);
  const size_t n_home = static_cast<size_t>(
      std::round(spec.profile_home_pool_fraction * target_size));
  const size_t n_secondary = static_cast<size_t>(
      std::round(spec.profile_secondary_pool_fraction * target_size));
  const size_t n_common =
      target_size > n_home + n_secondary ? target_size - n_home - n_secondary : 0;

  auto draw_from = [&](const std::vector<MoleculeId>& block, size_t count) {
    if (block.empty() || count == 0) return;
    size_t k = std::min(count, block.size());
    for (size_t idx : rng.SampleWithoutReplacement(block.size(), k)) {
      ids.push_back(block[idx]);
    }
  };

  draw_from(pools[static_cast<size_t>(home)], n_home);
  size_t secondary =
      (static_cast<size_t>(home) + 1 + rng.NextBounded(pools.size() - 1)) %
      pools.size();
  draw_from(pools[secondary], n_secondary);
  draw_from(common, n_common);
  return FlavorProfile(std::move(ids));
}

size_t SampleProfileSize(const WorldSpec& spec, culinary::Rng& rng) {
  double v = rng.NextLogNormal(spec.profile_size_log_mean,
                               spec.profile_size_log_sigma);
  auto size = static_cast<size_t>(std::llround(v));
  return std::clamp(size, spec.profile_size_min, spec.profile_size_max);
}

}  // namespace

const IngredientMeta* FlavorUniverse::MetaFor(IngredientId id) const {
  for (const IngredientMeta& m : meta) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

culinary::Result<FlavorUniverse> GenerateFlavorUniverse(const WorldSpec& spec) {
  if (spec.num_flavor_pools < 2) {
    return culinary::Status::InvalidArgument("need at least two flavor pools");
  }
  FlavorUniverse universe;
  universe.registry = std::make_unique<FlavorRegistry>();
  universe.num_pools = spec.num_flavor_pools;
  FlavorRegistry& reg = *universe.registry;

  culinary::Rng rng(spec.seed);
  NameGenerator names(rng.NextUint64());

  // --- Molecule universe: pool blocks + common block ----------------------
  std::vector<std::vector<MoleculeId>> pools(spec.num_flavor_pools);
  for (size_t p = 0; p < spec.num_flavor_pools; ++p) {
    pools[p].reserve(spec.molecules_per_pool);
    for (size_t m = 0; m < spec.molecules_per_pool; ++m) {
      CULINARY_ASSIGN_OR_RETURN(MoleculeId id,
                                reg.AddMolecule(names.NextMolecule()));
      pools[p].push_back(id);
    }
  }
  std::vector<MoleculeId> common;
  common.reserve(spec.num_common_molecules);
  for (size_t m = 0; m < spec.num_common_molecules; ++m) {
    CULINARY_ASSIGN_OR_RETURN(MoleculeId id,
                              reg.AddMolecule(names.NextMolecule()));
    common.push_back(id);
  }

  auto add_basic = [&](std::string_view name,
                       Category category) -> culinary::Result<IngredientId> {
    int home = static_cast<int>(rng.NextBounded(pools.size()));
    size_t size = SampleProfileSize(spec, rng);
    FlavorProfile profile =
        SampleProfile(spec, pools, common, home, size, rng);
    CULINARY_ASSIGN_OR_RETURN(IngredientId id,
                              reg.AddIngredient(name, category, profile));
    universe.meta.push_back({id, home, profile.size(), category});
    return id;
  };

  // Synthetic names come from a syllable generator that knows nothing of
  // the registry, so one can equal a curated name or synonym ("pita" at
  // seed 404). Redraw only on such a collision: a seed that never collides
  // draws exactly the names it always drew.
  auto fresh_name = [&](std::string_view suffix) {
    std::string name;
    do {
      name = names.Next() + std::string(suffix);
    } while (reg.FindByName(name) != flavor::kInvalidIngredient);
    return name;
  };

  // --- Step 1: raw FlavorDB-like entity list ------------------------------
  // Curated real names first (with their synonyms), then synthetic fill.
  std::vector<IngredientId> raw;
  for (const CuratedName& c : CuratedNames()) {
    if (raw.size() >= spec.num_raw_flavordb_ingredients) break;
    CULINARY_ASSIGN_OR_RETURN(IngredientId id, add_basic(c.name, c.category));
    for (const char* const* syn = c.synonyms; *syn != nullptr; ++syn) {
      CULINARY_RETURN_IF_ERROR(reg.AddSynonym(id, *syn));
    }
    raw.push_back(id);
  }
  while (raw.size() < spec.num_raw_flavordb_ingredients) {
    CULINARY_ASSIGN_OR_RETURN(IngredientId id,
                              add_basic(fresh_name(""), SampleCategory(rng)));
    raw.push_back(id);
  }

  // --- Step 2: remove generic/noisy entities ------------------------------
  // Remove from the synthetic tail so the curated seed stays available.
  size_t curated_count = std::min(CuratedNames().size(), raw.size());
  size_t removable = raw.size() - curated_count;
  size_t to_remove = std::min(spec.num_noisy_removed, removable);
  {
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(removable, to_remove);
    for (size_t p : picks) {
      IngredientId victim = raw[curated_count + p];
      CULINARY_RETURN_IF_ERROR(reg.RemoveIngredient(victim));
      // Drop the tombstoned ingredient from generation metadata.
      universe.meta.erase(
          std::remove_if(universe.meta.begin(), universe.meta.end(),
                         [victim](const IngredientMeta& m) {
                           return m.id == victim;
                         }),
          universe.meta.end());
    }
  }

  // --- Step 3: post-curation additions ------------------------------------
  for (size_t i = 0; i < spec.num_specific_added; ++i) {
    CULINARY_RETURN_IF_ERROR(
        add_basic(fresh_name(" extract"), SampleCategory(rng)).status());
  }
  for (size_t i = 0; i < spec.num_ahn_added; ++i) {
    CULINARY_RETURN_IF_ERROR(
        add_basic(fresh_name(""), SampleCategory(rng)).status());
  }
  for (size_t i = 0; i < spec.num_additives_added; ++i) {
    bool with_profile = i + spec.num_additives_without_profile <
                        spec.num_additives_added;
    if (with_profile) {
      CULINARY_RETURN_IF_ERROR(
          add_basic(fresh_name(" powder"), Category::kAdditive).status());
    } else {
      // "For the last four additives, no flavor profile was added."
      CULINARY_ASSIGN_OR_RETURN(
          IngredientId id,
          reg.AddIngredient(fresh_name(" powder"), Category::kAdditive,
                            FlavorProfile()));
      universe.meta.push_back({id, -1, 0, Category::kAdditive});
    }
  }

  // --- Step 4: compound ingredients ---------------------------------------
  std::vector<IngredientId> live = reg.LiveIngredients();
  for (size_t i = 0; i < spec.num_compound_ingredients; ++i) {
    size_t k = spec.compound_constituents_min +
               rng.NextBounded(spec.compound_constituents_max -
                               spec.compound_constituents_min + 1);
    k = std::min(k, live.size());
    std::vector<IngredientId> constituents;
    for (size_t idx : rng.SampleWithoutReplacement(live.size(), k)) {
      constituents.push_back(live[idx]);
    }
    CULINARY_ASSIGN_OR_RETURN(
        IngredientId id,
        reg.AddCompoundIngredient(fresh_name(" blend"), Category::kDish,
                                  constituents));
    const flavor::Ingredient* ing = reg.Find(id);
    // Compounds inherit the home pool of their first constituent for
    // generation purposes.
    const IngredientMeta* first_meta = universe.MetaFor(constituents[0]);
    universe.meta.push_back({id, first_meta != nullptr ? first_meta->home_pool : -1,
                             ing->profile.size(), Category::kDish});
  }

  return universe;
}

}  // namespace culinary::datagen
