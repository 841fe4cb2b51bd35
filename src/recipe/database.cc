#include "recipe/database.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "dataframe/csv.h"
#include "dataframe/table.h"
#include "obs/obs.h"

namespace culinary::recipe {

std::string IngestReport::Summary() const {
  std::ostringstream os;
  os << rows_loaded << "/" << records.records_total << " recipes loaded"
     << " (coverage " << culinary::FormatDouble(coverage(), 3) << ", csv "
     << records.records_quarantined << " quarantined, rows "
     << rows_quarantined << " quarantined, " << ingredient_names_dropped
     << " unknown ingredient names dropped)";
  return os.str();
}

culinary::Result<RecipeId> RecipeDatabase::AddRecipe(
    std::string name, Region region, std::vector<flavor::IngredientId> ids) {
  if (region == Region::kWorld) {
    return culinary::Status::InvalidArgument(
        "recipes must be attributed to a proper region, not WORLD");
  }
  CanonicalizeIngredients(ids);
  for (flavor::IngredientId id : ids) {
    if (registry_->Find(id) == nullptr) {
      return culinary::Status::InvalidArgument(
          "ingredient id " + std::to_string(id) + " unknown to registry");
    }
  }
  if (ids.empty()) {
    return culinary::Status::InvalidArgument(
        "recipe has no ingredients after canonicalization");
  }
  Recipe r;
  r.id = static_cast<RecipeId>(recipes_.size());
  r.name = std::move(name);
  r.region = region;
  r.ingredients = std::move(ids);
  recipes_.push_back(std::move(r));
  CULINARY_OBS_COUNT("ingest.recipes_added", 1);
  return recipes_.back().id;
}

culinary::Result<RecipeId> RecipeDatabase::AddRecipeFromPhrases(
    std::string name, Region region, const std::vector<std::string>& phrases,
    const IngredientPhraseParser& parser,
    std::vector<std::string>* partial_or_unrecognized) {
  std::vector<flavor::IngredientId> ids =
      parser.ParsePhrases(phrases, partial_or_unrecognized);
  if (ids.empty()) {
    return culinary::Status::FailedPrecondition(
        "no ingredient phrase resolved for recipe '" + name + "'");
  }
  return AddRecipe(std::move(name), region, std::move(ids));
}

size_t RecipeDatabase::CountForRegion(Region region) const {
  size_t n = 0;
  for (const Recipe& r : recipes_) {
    if (r.region == region) ++n;
  }
  return n;
}

Cuisine RecipeDatabase::CuisineFor(Region region) const {
  std::vector<Recipe> selected;
  for (const Recipe& r : recipes_) {
    if (r.region == region) selected.push_back(r);
  }
  return Cuisine(region, std::move(selected));
}

Cuisine RecipeDatabase::WorldCuisine() const {
  return Cuisine(Region::kWorld, recipes_);
}

std::vector<Cuisine> RecipeDatabase::AllCuisines() const {
  std::vector<Cuisine> out;
  out.reserve(kNumRegions);
  for (int i = 0; i < kNumRegions; ++i) {
    out.push_back(CuisineFor(AllRegions()[i]));
  }
  return out;
}

culinary::Status RecipeDatabase::SaveCsv(const std::string& path) const {
  df::Schema schema({{"id", df::DataType::kInt64},
                     {"name", df::DataType::kString},
                     {"region", df::DataType::kString},
                     {"ingredients", df::DataType::kString}});
  CULINARY_ASSIGN_OR_RETURN(df::Table table, df::Table::Make(schema));
  for (const Recipe& r : recipes_) {
    std::vector<std::string> names;
    names.reserve(r.ingredients.size());
    for (flavor::IngredientId id : r.ingredients) {
      const flavor::Ingredient* ing = registry_->Find(id);
      if (ing != nullptr) names.push_back(ing->name);
    }
    CULINARY_RETURN_IF_ERROR(table.AppendRow(
        {df::Value::Int(r.id), df::Value::Str(r.name),
         df::Value::Str(std::string(RegionCode(r.region))),
         df::Value::Str(culinary::Join(names, ";"))}));
  }
  df::CsvWriteOptions write_options;
  write_options.atomic_write = true;
  return df::WriteCsvFile(table, path, write_options)
      .WithContext("saving recipe database to " + path);
}

namespace {

/// Column positions of the fields a recipe row is read from.
struct RecipeColumns {
  size_t name = 0;
  size_t region = 0;
  size_t ingredients = 0;
};

/// Binds the header. Duplicate names are the CSV layer's error, hence the
/// load context; a missing column is the loader's own.
culinary::Result<RecipeColumns> BindHeader(
    const std::vector<df::CsvField>& header, const std::string& path) {
  std::unordered_set<std::string_view> seen;
  for (const df::CsvField& f : header) {
    if (!seen.insert(f.text).second) {
      return culinary::Status::InvalidArgument("duplicate field name: " +
                                               std::string(f.text))
          .WithContext("loading recipe database from " + path);
    }
  }
  RecipeColumns columns;
  for (auto [name, index] : {std::pair{"name", &columns.name},
                             std::pair{"region", &columns.region},
                             std::pair{"ingredients", &columns.ingredients}}) {
    auto it = std::find_if(header.begin(), header.end(),
                           [&](const df::CsvField& f) { return f.text == name; });
    if (it == header.end()) {
      return culinary::Status::ParseError(std::string("missing column '") +
                                          name + "' in " + path);
    }
    *index = static_cast<size_t>(it - header.begin());
  }
  return columns;
}

/// Reads the file once and resolves each CSV record into a recipe as the
/// scanner hands it over. `csv_policy` governs the CSV layer, `row_policy`
/// the resolution layer — the legacy LoadCsv entry point is strict about
/// CSV damage but always skipped unresolvable rows.
culinary::Result<RecipeDatabase> LoadCsvImpl(
    const std::string& path, const flavor::FlavorRegistry* registry,
    robustness::ErrorPolicy csv_policy, robustness::ErrorPolicy row_policy,
    robustness::ErrorSink* sink, const robustness::RetryPolicy& retry,
    IngestReport* report) {
  if (registry == nullptr) {
    return culinary::Status::InvalidArgument("registry must not be null");
  }
  CULINARY_OBS_SPAN(ingest_span, "ingest.load_recipes", "ingest");
  const std::string context = "loading recipe database from " + path;
  auto bytes = robustness::RetryResult(
      retry, [&]() { return df::ReadCsvBytes(path); });
  if (!bytes.ok()) return bytes.status().WithContext(context);

  IngestReport local;
  df::CsvReadOptions read_options;
  read_options.error_policy = csv_policy;
  read_options.error_sink = sink;
  read_options.stats = &local.records;

  const bool strict_rows = row_policy == robustness::ErrorPolicy::kStrict;
  // The first error of the resolution layer. It only decides the result
  // when the CSV layer has none, so the scan runs on past it.
  culinary::Status row_error;
  // Row diagnostics go to the sink after the scan's own.
  std::vector<robustness::Diagnostic> row_diagnostics;
  auto quarantine = [&](size_t row, std::string message, std::string_view snippet) {
    if (strict_rows) {
      row_error = culinary::Status::ParseError("row " + std::to_string(row) +
                                               " of " + path + ": " + message);
      return;
    }
    if (sink != nullptr) {
      robustness::Diagnostic d;
      d.message = "row " + std::to_string(row) + ": " + std::move(message);
      d.snippet = std::string(snippet);
      row_diagnostics.push_back(std::move(d));
    }
    ++local.rows_quarantined;
  };
  // The registry is const for the whole load, so one lookup per distinct
  // spelling is exact. Keys view the scanned text, which outlives the scan.
  std::unordered_map<std::string_view, flavor::IngredientId> id_by_name;
  auto resolve = [&](std::string_view name) {
    auto [it, inserted] = id_by_name.try_emplace(name);
    if (inserted) it->second = registry->FindByName(name);
    return it->second;
  };
  auto is_null = [](const df::CsvField& f) {
    return !f.quoted && f.text.empty();
  };

  RecipeDatabase db(registry);
  std::optional<RecipeColumns> columns;
  size_t row = 0;  // index among the records the CSV layer kept
  auto on_record = [&](const std::vector<df::CsvField>& fields, size_t) {
    if (!columns.has_value() && row_error.ok()) {
      auto bound = BindHeader(fields, path);
      if (bound.ok()) {
        columns = *bound;
      } else {
        row_error = bound.status();
      }
      return;
    }
    if (!row_error.ok()) return;
    const size_t r = row++;
    const df::CsvField& region_f = fields[columns->region];
    const df::CsvField& ingredients_f = fields[columns->ingredients];
    if (is_null(region_f) || is_null(ingredients_f)) {
      quarantine(r, "null region or ingredients", {});
      return;
    }
    auto region = RegionFromCode(region_f.text);
    if (!region.has_value() || *region == Region::kWorld) {
      quarantine(r, "unknown region '" + std::string(region_f.text) + "'",
                 region_f.text);
      return;
    }
    std::vector<flavor::IngredientId> ids;
    size_t dropped_names = 0;
    std::string_view list = ingredients_f.text;
    for (size_t begin = 0; begin <= list.size();) {
      size_t end = std::min(list.find(';', begin), list.size());
      std::string_view trimmed =
          culinary::Trim(list.substr(begin, end - begin));
      begin = end + 1;
      if (trimmed.empty()) continue;
      flavor::IngredientId id = resolve(trimmed);
      if (id != flavor::kInvalidIngredient) {
        ids.push_back(id);
      } else if (strict_rows) {
        row_error = culinary::Status::ParseError(
            "row " + std::to_string(r) + " of " + path +
            ": unknown ingredient '" + std::string(trimmed) + "'");
        return;
      } else {
        ++dropped_names;
      }
    }
    local.ingredient_names_dropped += dropped_names;
    if (ids.empty()) {
      quarantine(r, "no resolvable ingredient", list);
      return;
    }
    const df::CsvField& name_f = fields[columns->name];
    auto added = db.AddRecipe(std::string(name_f.text), *region, std::move(ids));
    if (!added.ok()) {
      quarantine(r, std::string(added.status().message()), {});
      return;
    }
    ++local.rows_loaded;
  };
  culinary::Status scanned = df::ScanCsv(*bytes, read_options, on_record);
  if (!scanned.ok()) return scanned.WithContext(context);
  CULINARY_RETURN_IF_ERROR(row_error);
  if (sink != nullptr) {
    for (robustness::Diagnostic& d : row_diagnostics) sink->Report(std::move(d));
  }
  // Ingestion accounting mirrors IngestReport, so --metrics-out shows how
  // much of a degraded corpus actually survived.
  CULINARY_OBS_COUNT("ingest.csv.records_read", local.records.records_total);
  CULINARY_OBS_COUNT("ingest.csv.records_quarantined",
                     local.records.records_quarantined);
  CULINARY_OBS_COUNT("ingest.recipes.rows_loaded", local.rows_loaded);
  CULINARY_OBS_COUNT("ingest.recipes.rows_quarantined",
                     local.rows_quarantined);
  CULINARY_OBS_COUNT("ingest.recipes.ingredient_names_dropped",
                     local.ingredient_names_dropped);
  if (report != nullptr) *report = local;
  return db;
}

}  // namespace

culinary::Result<RecipeDatabase> RecipeDatabase::LoadCsv(
    const std::string& path, const flavor::FlavorRegistry* registry,
    size_t* skipped_rows) {
  IngestReport report;
  CULINARY_ASSIGN_OR_RETURN(
      RecipeDatabase db,
      LoadCsvImpl(path, registry,
                  /*csv_policy=*/robustness::ErrorPolicy::kStrict,
                  /*row_policy=*/robustness::ErrorPolicy::kSkipAndReport,
                  /*sink=*/nullptr, robustness::RetryPolicy::None(),
                  &report));
  if (skipped_rows != nullptr) *skipped_rows = report.rows_quarantined;
  return db;
}

culinary::Result<RecipeDatabase> RecipeDatabase::LoadCsv(
    const std::string& path, const flavor::FlavorRegistry* registry,
    const IngestOptions& options, IngestReport* report) {
  return LoadCsvImpl(path, registry, options.error_policy,
                     options.error_policy, options.error_sink, options.retry,
                     report);
}

}  // namespace culinary::recipe
