#include "recipe/database.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/world.h"
#include "robustness/chaos.h"
#include "snapshot/format.h"

namespace culinary::recipe {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    using flavor::Category;
    using flavor::FlavorProfile;
    tomato_ = reg_.AddIngredient("tomato", Category::kVegetable,
                                 FlavorProfile({1, 2}))
                  .value();
    basil_ =
        reg_.AddIngredient("basil", Category::kHerb, FlavorProfile({2, 3}))
            .value();
    rice_ =
        reg_.AddIngredient("rice", Category::kCereal, FlavorProfile({4}))
            .value();
  }

  flavor::FlavorRegistry reg_;
  flavor::IngredientId tomato_, basil_, rice_;
};

TEST_F(DatabaseTest, AddRecipeAssignsSequentialIds) {
  RecipeDatabase db(&reg_);
  auto a = db.AddRecipe("caprese", Region::kItaly, {tomato_, basil_});
  auto b = db.AddRecipe("onigiri", Region::kJapan, {rice_});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  EXPECT_EQ(db.num_recipes(), 2u);
}

TEST_F(DatabaseTest, AddRecipeValidation) {
  RecipeDatabase db(&reg_);
  EXPECT_TRUE(db.AddRecipe("x", Region::kWorld, {tomato_})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      db.AddRecipe("x", Region::kItaly, {99}).status().IsInvalidArgument());
  EXPECT_TRUE(
      db.AddRecipe("x", Region::kItaly, {}).status().IsInvalidArgument());
  EXPECT_TRUE(db.AddRecipe("x", Region::kItaly, {-1, -2})
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(db.num_recipes(), 0u);
}

TEST_F(DatabaseTest, AddRecipeCanonicalizesIngredients) {
  RecipeDatabase db(&reg_);
  ASSERT_TRUE(
      db.AddRecipe("x", Region::kItaly, {basil_, tomato_, basil_}).ok());
  EXPECT_EQ(db.recipes()[0].ingredients,
            (std::vector<flavor::IngredientId>{tomato_, basil_}));
}

TEST_F(DatabaseTest, CountAndCuisineForRegion) {
  RecipeDatabase db(&reg_);
  db.AddRecipe("a", Region::kItaly, {tomato_, basil_}).status();
  db.AddRecipe("b", Region::kItaly, {tomato_}).status();
  db.AddRecipe("c", Region::kJapan, {rice_}).status();
  EXPECT_EQ(db.CountForRegion(Region::kItaly), 2u);
  EXPECT_EQ(db.CountForRegion(Region::kJapan), 1u);
  EXPECT_EQ(db.CountForRegion(Region::kKorea), 0u);

  Cuisine italy = db.CuisineFor(Region::kItaly);
  EXPECT_EQ(italy.num_recipes(), 2u);
  EXPECT_EQ(italy.FrequencyOf(tomato_), 2);

  Cuisine world = db.WorldCuisine();
  EXPECT_EQ(world.region(), Region::kWorld);
  EXPECT_EQ(world.num_recipes(), 3u);
  EXPECT_EQ(world.unique_ingredients().size(), 3u);
}

TEST_F(DatabaseTest, AllCuisinesCoversEveryRegion) {
  RecipeDatabase db(&reg_);
  db.AddRecipe("a", Region::kItaly, {tomato_}).status();
  auto cuisines = db.AllCuisines();
  EXPECT_EQ(cuisines.size(), static_cast<size_t>(kNumRegions));
}

TEST_F(DatabaseTest, AddRecipeFromPhrases) {
  RecipeDatabase db(&reg_);
  IngredientPhraseParser parser(&reg_);
  std::vector<std::string> failures;
  auto id = db.AddRecipeFromPhrases(
      "caprese", Region::kItaly,
      {"2 ripe tomatoes, chopped", "a handful of basil",
       "1 cup unobtainium shavings"},
      parser, &failures);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(db.recipes()[0].ingredients,
            (std::vector<flavor::IngredientId>{tomato_, basil_}));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], "1 cup unobtainium shavings");
}

TEST_F(DatabaseTest, AddRecipeFromPhrasesAllUnrecognized) {
  RecipeDatabase db(&reg_);
  IngredientPhraseParser parser(&reg_);
  auto id = db.AddRecipeFromPhrases("mystery", Region::kItaly,
                                    {"pure unobtainium"}, parser);
  EXPECT_TRUE(id.status().IsFailedPrecondition());
  EXPECT_EQ(db.num_recipes(), 0u);
}

TEST_F(DatabaseTest, CsvRoundTrip) {
  RecipeDatabase db(&reg_);
  db.AddRecipe("caprese", Region::kItaly, {tomato_, basil_}).status();
  db.AddRecipe("onigiri", Region::kJapan, {rice_}).status();

  std::string path = ::testing::TempDir() + "/culinary_db_test.csv";
  ASSERT_TRUE(db.SaveCsv(path).ok());

  size_t skipped = 0;
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(loaded->num_recipes(), 2u);
  EXPECT_EQ(loaded->recipes()[0].name, "caprese");
  EXPECT_EQ(loaded->recipes()[0].region, Region::kItaly);
  EXPECT_EQ(loaded->recipes()[0].ingredients,
            (std::vector<flavor::IngredientId>{tomato_, basil_}));
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvSkipsBadRows) {
  std::string path = ::testing::TempDir() + "/culinary_db_bad.csv";
  {
    std::ofstream out(path);
    out << "id,name,region,ingredients\n"
        << "0,good,ITA,tomato;basil\n"
        << "1,unknown region,XXX,tomato\n"
        << "2,world not allowed,WORLD,tomato\n"
        << "3,unknown ingredients,ITA,unobtainium\n"
        << "4,partial ingredients,ITA,tomato;unobtainium\n"
        << "5,empty ingredients,ITA,\n";
  }
  size_t skipped = 0;
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_recipes(), 2u);  // rows 0 and 4
  EXPECT_EQ(skipped, 4u);
  // Row 4 kept with the resolvable subset.
  EXPECT_EQ(loaded->recipes()[1].ingredients,
            (std::vector<flavor::IngredientId>{tomato_}));
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvRequiresColumns) {
  std::string path = ::testing::TempDir() + "/culinary_db_cols.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n";
  }
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError());
  std::remove(path.c_str());
}

// All-numeric name / region / ingredients columns used to be typed as
// numbers by the table reader and abort the load; fields are text now.
TEST_F(DatabaseTest, LoadCsvReadsNumericColumnsAsText) {
  std::string path = ::testing::TempDir() + "/culinary_db_numeric.csv";
  auto load = [&](const char* text, robustness::ErrorSink* sink,
                  IngestReport* report) {
    {
      std::ofstream out(path);
      out << "id,name,region,ingredients\n" << text;
    }
    IngestOptions options;
    options.error_sink = sink;
    return RecipeDatabase::LoadCsv(path, &reg_, options, report);
  };

  IngestReport report;
  auto names = load("0,1,ITA,tomato;basil\n1,2,JPN,rice\n", nullptr, &report);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_EQ(names->num_recipes(), 2u);
  EXPECT_EQ(names->recipes()[0].name, "1");
  EXPECT_EQ(names->recipes()[1].name, "2");

  robustness::ErrorSink sink;
  auto regions = load("0,a,1,tomato\n1,b,1,rice\n", &sink, &report);
  ASSERT_TRUE(regions.ok()) << regions.status().ToString();
  EXPECT_EQ(regions->num_recipes(), 0u);
  EXPECT_EQ(report.rows_quarantined, 2u);
  ASSERT_EQ(sink.diagnostics().size(), 2u);
  EXPECT_EQ(sink.diagnostics()[0].message, "row 0: unknown region '1'");

  sink.Clear();
  auto lists = load("0,a,ITA,1\n1,b,ITA,2\n", &sink, &report);
  ASSERT_TRUE(lists.ok()) << lists.status().ToString();
  EXPECT_EQ(lists->num_recipes(), 0u);
  EXPECT_EQ(report.rows_quarantined, 2u);
  ASSERT_EQ(sink.diagnostics().size(), 2u);
  EXPECT_EQ(sink.diagnostics()[1].message, "row 1: no resolvable ingredient");

  // The legacy entry point skips the same rows instead of aborting.
  size_t skipped = 0;
  {
    std::ofstream out(path);
    out << "id,name,region,ingredients\n0,1,1,1\n";
  }
  auto legacy = RecipeDatabase::LoadCsv(path, &reg_, &skipped);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(skipped, 1u);
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvNullRegistry) {
  EXPECT_TRUE(RecipeDatabase::LoadCsv("x.csv", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DatabaseTest, LoadCsvMissingFile) {
  EXPECT_TRUE(RecipeDatabase::LoadCsv("/no/such/file.csv", &reg_)
                  .status()
                  .IsIOError());
}

// --- Ingest golden pin --------------------------------------------------------
//
// What LoadCsv produces for clean, hand-damaged and chaos-corrupted corpora
// under every error policy: the Status, every IngestReport field, an FNV-1a
// digest of the loaded recipes (id, name, region, ingredient ids) and one of
// the ErrorSink entries in report order (line, column, message, snippet).
// Any rewrite of the reader must reproduce these lines exactly.

enum class LoadMode { kLegacy, kStrict, kSkipAndReport, kBestEffort };

constexpr LoadMode kLoadModes[] = {LoadMode::kLegacy, LoadMode::kStrict,
                                   LoadMode::kSkipAndReport,
                                   LoadMode::kBestEffort};

const char* LoadModeName(LoadMode mode) {
  switch (mode) {
    case LoadMode::kLegacy:
      return "legacy";
    case LoadMode::kStrict:
      return "strict";
    case LoadMode::kSkipAndReport:
      return "skip";
    case LoadMode::kBestEffort:
      return "best";
  }
  return "?";
}

uint64_t HashBytes(uint64_t h, std::string_view bytes) {
  const uint64_t size = bytes.size();
  h = snapshot::Fnv64Continue(h, &size, sizeof(size));
  return snapshot::Fnv64Continue(h, bytes.data(), bytes.size());
}

uint64_t HashInt(uint64_t h, uint64_t v) {
  return snapshot::Fnv64Continue(h, &v, sizeof(v));
}

uint64_t DigestRecipes(const RecipeDatabase& db) {
  uint64_t h = snapshot::kFnvOffsetBasis;
  for (const Recipe& r : db.recipes()) {
    h = HashInt(h, static_cast<uint64_t>(r.id));
    h = HashBytes(h, r.name);
    h = HashBytes(h, RegionCode(r.region));
    h = HashInt(h, r.ingredients.size());
    for (flavor::IngredientId id : r.ingredients) {
      h = HashInt(h, static_cast<uint64_t>(id));
    }
  }
  return h;
}

uint64_t DigestSink(const robustness::ErrorSink& sink) {
  uint64_t h = HashInt(snapshot::kFnvOffsetBasis, sink.total());
  for (const robustness::Diagnostic& d : sink.diagnostics()) {
    h = HashInt(h, d.line);
    h = HashInt(h, d.column);
    h = HashBytes(h, d.message);
    h = HashBytes(h, d.snippet);
  }
  return h;
}

/// One line summarising a load of `path`; the path itself is shown as
/// <csv> so the line does not depend on the temp directory.
std::string IngestOutcome(const std::string& path,
                          const flavor::FlavorRegistry& reg, LoadMode mode) {
  robustness::ErrorSink sink(/*capacity=*/1 << 20);
  IngestReport report;
  size_t skipped = 0;
  Result<RecipeDatabase> db = Status::Internal("unset");
  if (mode == LoadMode::kLegacy) {
    db = RecipeDatabase::LoadCsv(path, &reg, &skipped);
  } else {
    IngestOptions options;
    options.error_policy =
        mode == LoadMode::kStrict ? robustness::ErrorPolicy::kStrict
        : mode == LoadMode::kSkipAndReport
            ? robustness::ErrorPolicy::kSkipAndReport
            : robustness::ErrorPolicy::kBestEffort;
    options.error_sink = &sink;
    db = RecipeDatabase::LoadCsv(path, &reg, options, &report);
  }
  std::string status = db.status().ToString();
  for (size_t at = status.find(path); at != std::string::npos;
       at = status.find(path)) {
    status.replace(at, path.size(), "<csv>");
  }
  std::ostringstream os;
  os << LoadModeName(mode) << " " << status << " | total "
     << report.records.records_total << " ok " << report.records.records_ok
     << " csvq " << report.records.records_quarantined << " loaded "
     << report.rows_loaded << " rowq " << report.rows_quarantined
     << " names " << report.ingredient_names_dropped << " skipped "
     << skipped << std::hex << " | db "
     << (db.ok() ? DigestRecipes(*db) : 0) << " sink " << DigestSink(sink);
  return os.str();
}

/// Hand-made corpora for the fixture registry (tomato, basil, rice), each
/// aimed at one tokenizer, width or resolution path.
const std::pair<const char*, const char*> kHandCorpora[] = {
    {"clean", "id,name,region,ingredients\n0,caprese,ITA,tomato;basil\n"
              "1,onigiri,JPN,rice\n"},
    {"crlf_and_escapes",
     "id,name,region,ingredients\r\n0,\"say \"\"hi\"\"\",ITA,\"tomato; "
     "basil\"\r\n1,\"a,b\",JPN,rice\r\n"},
    {"blank_line_and_no_final_newline",
     "id,name,region,ingredients\n0,a,ITA,tomato\n\n1,b,ITA,basil"},
    {"cr_at_field_start_and_end",
     "id,name,region,ingredients\n0,\ra,ITA,tomato\r\r\n1,b,\rITA,\"rice\"\r\n"},
    {"garbage_after_quote",
     "id,name,region,ingredients\n0,\"a\"x,ITA,tomato\n1,b,ITA,basil\n"},
    {"unterminated_quote",
     "id,name,region,ingredients\n0,a,ITA,tomato\n1,\"b,ITA,basil\n"},
    {"ragged_rows",
     "id,name,region,ingredients\n0,short,ITA\n1,long,ITA,tomato,extra\n"
     "2,ok,JPN,rice\n3\n"},
    {"null_and_unknown_fields",
     "id,name,region,ingredients\n0,,ITA,tomato\n1,b,,tomato\n2,c,ITA,\n"
     "3,d,\"\",tomato\n4,e,WORLD,tomato\n5,f,ITA,\"\"\n6,g,ITA, ;;\n"},
    {"ingredient_spelling",
     "id,name,region,ingredients\n0,a,ITA, Tomato ; ;basil ;\n"
     "1,b,ITA,tomato;unobtainium;rice\n2,c,ITA,tomatoes\n"},
    {"row_error_before_csv_error",
     "id,name,region,ingredients\n0,a,XXX,tomato\n1,b,ITA,tomato\n"
     "2,\"c\"z,ITA,tomato\n"},
    {"row_error_before_width_error",
     "id,name,region,ingredients\n0,a,ITA,unobtainium\n1,b,ITA\n"},
    {"duplicate_header", "name,name,region,ingredients\na,b,ITA,tomato\n"},
    {"missing_column", "id,name,ingredients\n0,a,tomato\n"},
    {"damaged_header", "id,\"name\"!,region,ingredients\n0,a,ITA,tomato\n"},
    {"header_only", "id,name,region,ingredients\n"},
    {"empty", ""},
    {"long_snippets",
     "id,name,region,ingredients\n"
     "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa,a,ITA\n"
     "1,b,RRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRR,tomato\n"
     "2,c,ITA,\"unterminated cccccccccccccccccccccccccccccccccccccccccc\n"},
};

TEST_F(DatabaseTest, IngestGoldenHandCorpora) {
  const std::string path = ::testing::TempDir() + "/culinary_db_golden.csv";
  std::vector<std::string> got;
  for (const auto& [label, text] : kHandCorpora) {
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    for (LoadMode mode : kLoadModes) {
      got.push_back(std::string(label) + " " + IngestOutcome(path, reg_, mode));
    }
  }
  std::remove(path.c_str());
  const std::vector<std::string> expected = {
      "clean legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db f76c4568e2f5ab00 sink a8c7f832281a39c5",
      "clean strict OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db f76c4568e2f5ab00 sink a8c7f832281a39c5",
      "clean skip OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db f76c4568e2f5ab00 sink a8c7f832281a39c5",
      "clean best OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db f76c4568e2f5ab00 sink a8c7f832281a39c5",
      "crlf_and_escapes legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db e301f39fa5c804f2 sink a8c7f832281a39c5",
      "crlf_and_escapes strict OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db e301f39fa5c804f2 sink a8c7f832281a39c5",
      "crlf_and_escapes skip OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db e301f39fa5c804f2 sink a8c7f832281a39c5",
      "crlf_and_escapes best OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db e301f39fa5c804f2 sink a8c7f832281a39c5",
      "blank_line_and_no_final_newline legacy ParseError: loading recipe database from "
      "<csv>: record at line 3 has 1 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "blank_line_and_no_final_newline strict ParseError: loading recipe database from "
      "<csv>: record at line 3 has 1 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "blank_line_and_no_final_newline skip OK | "
      "total 3 ok 2 csvq 1 loaded 2 rowq 0 names 0 skipped 0 | "
      "db 9baf13131a6a9512 sink 7b5bdeb4c856695",
      "blank_line_and_no_final_newline best OK | "
      "total 3 ok 3 csvq 0 loaded 2 rowq 1 names 0 skipped 0 | "
      "db 9baf13131a6a9512 sink fe8641eb1b13001e",
      "cr_at_field_start_and_end legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 7cb44c0a0f7b4af1 sink a8c7f832281a39c5",
      "cr_at_field_start_and_end strict OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db 7cb44c0a0f7b4af1 sink a8c7f832281a39c5",
      "cr_at_field_start_and_end skip OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db 7cb44c0a0f7b4af1 sink a8c7f832281a39c5",
      "cr_at_field_start_and_end best OK | "
      "total 2 ok 2 csvq 0 loaded 2 rowq 0 names 0 skipped 0 | "
      "db 7cb44c0a0f7b4af1 sink a8c7f832281a39c5",
      "garbage_after_quote legacy ParseError: loading recipe database from <csv>: "
      "unexpected character after closing quote at line 2, column 6 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "garbage_after_quote strict ParseError: loading recipe database from <csv>: "
      "unexpected character after closing quote at line 2, column 6 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "garbage_after_quote skip OK | "
      "total 2 ok 1 csvq 1 loaded 1 rowq 0 names 0 skipped 0 | "
      "db 8f2f0028480a4b2f sink e63d52104fcce11",
      "garbage_after_quote best OK | "
      "total 2 ok 1 csvq 1 loaded 1 rowq 0 names 0 skipped 0 | "
      "db 8f2f0028480a4b2f sink e63d52104fcce11",
      "unterminated_quote legacy ParseError: loading recipe database from <csv>: "
      "unterminated quoted field starting at line 3, column 3 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "unterminated_quote strict ParseError: loading recipe database from <csv>: "
      "unterminated quoted field starting at line 3, column 3 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "unterminated_quote skip OK | "
      "total 2 ok 1 csvq 1 loaded 1 rowq 0 names 0 skipped 0 | "
      "db 366c16f7a7508781 sink 460e6277b03b030a",
      "unterminated_quote best OK | "
      "total 2 ok 1 csvq 1 loaded 1 rowq 0 names 0 skipped 0 | "
      "db 366c16f7a7508781 sink 460e6277b03b030a",
      "ragged_rows legacy ParseError: loading recipe database from <csv>: record at "
      "line 2 has 3 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "ragged_rows strict ParseError: loading recipe database from <csv>: record at "
      "line 2 has 3 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "ragged_rows skip OK | "
      "total 4 ok 1 csvq 3 loaded 1 rowq 0 names 0 skipped 0 | "
      "db 5d4c384c476682b9 sink a146ecf37797284c",
      "ragged_rows best OK | "
      "total 4 ok 4 csvq 0 loaded 2 rowq 2 names 0 skipped 0 | "
      "db fa4d8ab71a2493d2 sink 5d9573c99e27151",
      "null_and_unknown_fields legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 6 | "
      "db 83fb126e2fb3e8ff sink a8c7f832281a39c5",
      "null_and_unknown_fields strict ParseError: row 1 of <csv>: null region or "
      "ingredients | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "null_and_unknown_fields skip OK | "
      "total 7 ok 7 csvq 0 loaded 1 rowq 6 names 0 skipped 0 | "
      "db 83fb126e2fb3e8ff sink b19e722f9037080d",
      "null_and_unknown_fields best OK | "
      "total 7 ok 7 csvq 0 loaded 1 rowq 6 names 0 skipped 0 | "
      "db 83fb126e2fb3e8ff sink b19e722f9037080d",
      "ingredient_spelling legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 1 | "
      "db 754b69f28ce94f54 sink a8c7f832281a39c5",
      "ingredient_spelling strict ParseError: row 1 of <csv>: unknown ingredient "
      "'unobtainium' | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "ingredient_spelling skip OK | "
      "total 3 ok 3 csvq 0 loaded 2 rowq 1 names 2 skipped 0 | "
      "db 754b69f28ce94f54 sink 26943ea3c42c7e14",
      "ingredient_spelling best OK | "
      "total 3 ok 3 csvq 0 loaded 2 rowq 1 names 2 skipped 0 | "
      "db 754b69f28ce94f54 sink 26943ea3c42c7e14",
      "row_error_before_csv_error legacy ParseError: loading recipe database from "
      "<csv>: unexpected character after closing quote at line 4, column 6 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "row_error_before_csv_error strict ParseError: loading recipe database from "
      "<csv>: unexpected character after closing quote at line 4, column 6 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "row_error_before_csv_error skip OK | "
      "total 3 ok 2 csvq 1 loaded 1 rowq 1 names 0 skipped 0 | "
      "db 7034391f3d1b010e sink cc2ad66357fa6458",
      "row_error_before_csv_error best OK | "
      "total 3 ok 2 csvq 1 loaded 1 rowq 1 names 0 skipped 0 | "
      "db 7034391f3d1b010e sink cc2ad66357fa6458",
      "row_error_before_width_error legacy ParseError: loading recipe database from "
      "<csv>: record at line 3 has 3 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "row_error_before_width_error strict ParseError: loading recipe database from "
      "<csv>: record at line 3 has 3 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "row_error_before_width_error skip OK | "
      "total 2 ok 1 csvq 1 loaded 0 rowq 1 names 1 skipped 0 | "
      "db cbf29ce484222325 sink b5fbc2ef37a9dea0",
      "row_error_before_width_error best OK | "
      "total 2 ok 2 csvq 0 loaded 0 rowq 2 names 1 skipped 0 | "
      "db cbf29ce484222325 sink af8c5f7f0ae681e1",
      "duplicate_header legacy InvalidArgument: loading recipe database from <csv>: "
      "duplicate field name: name | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "duplicate_header strict InvalidArgument: loading recipe database from <csv>: "
      "duplicate field name: name | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "duplicate_header skip InvalidArgument: loading recipe database from <csv>: "
      "duplicate field name: name | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "duplicate_header best InvalidArgument: loading recipe database from <csv>: "
      "duplicate field name: name | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "missing_column legacy ParseError: missing column 'region' in <csv> | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "missing_column strict ParseError: missing column 'region' in <csv> | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "missing_column skip ParseError: missing column 'region' in <csv> | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "missing_column best ParseError: missing column 'region' in <csv> | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "damaged_header legacy ParseError: loading recipe database from <csv>: "
      "unexpected character after closing quote at line 1, column 10 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "damaged_header strict ParseError: loading recipe database from <csv>: "
      "unexpected character after closing quote at line 1, column 10 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "damaged_header skip ParseError: missing column 'name' in <csv> | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink 711366897dbf2bb0",
      "damaged_header best ParseError: missing column 'name' in <csv> | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink 711366897dbf2bb0",
      "header_only legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db cbf29ce484222325 sink a8c7f832281a39c5",
      "header_only strict OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db cbf29ce484222325 sink a8c7f832281a39c5",
      "header_only skip OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db cbf29ce484222325 sink a8c7f832281a39c5",
      "header_only best OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db cbf29ce484222325 sink a8c7f832281a39c5",
      "empty legacy ParseError: loading recipe database from <csv>: empty CSV input | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "empty strict ParseError: loading recipe database from <csv>: empty CSV input | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "empty skip ParseError: loading recipe database from <csv>: empty CSV input | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "empty best ParseError: loading recipe database from <csv>: empty CSV input | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "long_snippets legacy ParseError: loading recipe database from <csv>: "
      "unterminated quoted field starting at line 4, column 9 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "long_snippets strict ParseError: loading recipe database from <csv>: "
      "unterminated quoted field starting at line 4, column 9 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "long_snippets skip OK | "
      "total 3 ok 1 csvq 2 loaded 0 rowq 1 names 0 skipped 0 | "
      "db cbf29ce484222325 sink df9776675417cc69",
      "long_snippets best OK | "
      "total 3 ok 2 csvq 1 loaded 0 rowq 2 names 0 skipped 0 | "
      "db cbf29ce484222325 sink 1b83f0ed009617fe",
  };
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

TEST(IngestGoldenTest, SmallWorldExportUnderChaos) {
  auto world = datagen::GenerateWorld(datagen::WorldSpec::Small());
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  const std::string clean = ::testing::TempDir() + "/culinary_golden_clean.csv";
  const std::string damaged =
      ::testing::TempDir() + "/culinary_golden_damaged.csv";
  ASSERT_TRUE(world->db().SaveCsv(clean).ok());

  struct Corpus {
    const char* label;
    uint64_t seed;
    double rate;
    bool preserve_header;
    bool bit_flips_only;
  };
  const Corpus corpora[] = {{"seed1", 1, 0.05, true, false},
                            {"seed2", 2, 0.05, true, false},
                            {"seed3", 3, 0.05, true, false},
                            {"seed4_heavy", 4, 0.3, true, false},
                            {"seed5_header", 5, 0.2, false, false},
                            {"seed6_header", 6, 0.2, false, false},
                            {"seed7_bit_flips", 7, 0.02, true, true}};
  std::vector<std::string> got;
  for (LoadMode mode : kLoadModes) {
    got.push_back("clean " + IngestOutcome(clean, world->registry(), mode));
  }
  for (const Corpus& c : corpora) {
    robustness::ChaosOptions options;
    options.seed = c.seed;
    options.corruption_rate = c.rate;
    options.preserve_header = c.preserve_header;
    options.oversized_field_bytes = 256;
    if (c.bit_flips_only) {
      options.enable_truncation = false;
      options.enable_unterminated_quote = false;
      options.enable_duplicate_lines = false;
      options.enable_oversized_fields = false;
      options.enable_ragged_rows = false;
    }
    ASSERT_TRUE(robustness::CorruptCsvFile(clean, damaged, options).ok());
    for (LoadMode mode : kLoadModes) {
      got.push_back(std::string(c.label) + " " +
                    IngestOutcome(damaged, world->registry(), mode));
    }
  }
  std::remove(clean.c_str());
  std::remove(damaged.c_str());
  const std::vector<std::string> expected = {
      "clean legacy OK | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 1c677ea6702e0f92 sink a8c7f832281a39c5",
      "clean strict OK | "
      "total 2030 ok 2030 csvq 0 loaded 2030 rowq 0 names 0 skipped 0 | "
      "db 1c677ea6702e0f92 sink a8c7f832281a39c5",
      "clean skip OK | "
      "total 2030 ok 2030 csvq 0 loaded 2030 rowq 0 names 0 skipped 0 | "
      "db 1c677ea6702e0f92 sink a8c7f832281a39c5",
      "clean best OK | "
      "total 2030 ok 2030 csvq 0 loaded 2030 rowq 0 names 0 skipped 0 | "
      "db 1c677ea6702e0f92 sink a8c7f832281a39c5",
      "seed1 legacy ParseError: loading recipe database from <csv>: record at line 30 "
      "has 5 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed1 strict ParseError: loading recipe database from <csv>: record at line 30 "
      "has 5 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed1 skip OK | "
      "total 2036 ok 2000 csvq 36 loaded 1996 rowq 4 names 40 skipped 0 | "
      "db 6af68d5d3b47e52b sink 5dadee578cd25776",
      "seed1 best OK | "
      "total 2036 ok 2036 csvq 0 loaded 2021 rowq 15 names 40 skipped 0 | "
      "db 894ce01b9c499636 sink 6985b2a05b27a1f1",
      "seed2 legacy ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 1519, column 53 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed2 strict ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 1519, column 53 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed2 skip OK | "
      "total 1989 ok 1950 csvq 39 loaded 1947 rowq 3 names 34 skipped 0 | "
      "db 3dc5bda4e5080ab7 sink 9756c4e0499c7598",
      "seed2 best OK | "
      "total 1989 ok 1988 csvq 1 loaded 1974 rowq 14 names 34 skipped 0 | "
      "db 219b1170ddca5f1b sink 3fa70187e3a647ee",
      "seed3 legacy ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 582, column 30 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed3 strict ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 582, column 30 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed3 skip OK | "
      "total 1585 ok 1547 csvq 38 loaded 1547 rowq 0 names 23 skipped 0 | "
      "db b4f11e19b4187c62 sink 4c701bb0c049f489",
      "seed3 best OK | "
      "total 1585 ok 1582 csvq 3 loaded 1571 rowq 11 names 23 skipped 0 | "
      "db 7cb0c52ae16a6fdf sink 6b0373c1404018cc",
      "seed4_heavy legacy ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 804, column 53 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed4_heavy strict ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 804, column 53 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed4_heavy skip OK | "
      "total 2113 ok 1844 csvq 269 loaded 1829 rowq 15 names 226 skipped 0 | "
      "db 71d1cf357f32c43b sink 10a1f67424b7d7f2",
      "seed4_heavy best OK | "
      "total 2113 ok 2111 csvq 2 loaded 2014 rowq 97 names 239 skipped 0 | "
      "db 4c6d7a1818e55a91 sink 27fcf09e9f4afe15",
      "seed5_header legacy ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 121, column 14 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed5_header strict ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 121, column 14 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed5_header skip OK | "
      "total 2016 ok 1869 csvq 147 loaded 1866 rowq 3 names 132 skipped 0 | "
      "db ad5ac6044d3c1dd9 sink 9c620522a091cc39",
      "seed5_header best OK | "
      "total 2016 ok 2014 csvq 2 loaded 1970 rowq 44 names 134 skipped 0 | "
      "db 3ef4f843fba69936 sink d28bff25d2cde31d",
      "seed6_header legacy ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 259, column 78 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed6_header strict ParseError: loading recipe database from <csv>: unexpected "
      "character after closing quote at line 259, column 78 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed6_header skip OK | "
      "total 2029 ok 1888 csvq 141 loaded 1877 rowq 11 names 141 skipped 0 | "
      "db 93f0a64d90fe827b sink 3498522affaa45b8",
      "seed6_header best OK | "
      "total 2029 ok 2026 csvq 3 loaded 1964 rowq 62 names 141 skipped 0 | "
      "db 1afb4903e0c83d8a sink 75c21f97b0a0c1ca",
      "seed7_bit_flips legacy ParseError: loading recipe database from <csv>: record "
      "at line 799 has 3 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed7_bit_flips strict ParseError: loading recipe database from <csv>: record "
      "at line 799 has 3 fields, expected 4 | "
      "total 0 ok 0 csvq 0 loaded 0 rowq 0 names 0 skipped 0 | "
      "db 0 sink a8c7f832281a39c5",
      "seed7_bit_flips skip OK | "
      "total 2030 ok 2028 csvq 2 loaded 2028 rowq 0 names 35 skipped 0 | "
      "db 28cd27567a19d0b0 sink 44194faf89e980ef",
      "seed7_bit_flips best OK | "
      "total 2030 ok 2030 csvq 0 loaded 2028 rowq 2 names 35 skipped 0 | "
      "db 28cd27567a19d0b0 sink 10a416dc1140d9a4",
  };
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

}  // namespace
}  // namespace culinary::recipe
