// `paper`: the library calls behind `culinary analyze --registry=PREFIX
// --recipes=FILE --null-recipes=N`, run in-process with a span around each
// layer:
//
//   job                       one full Fig-4 computation
//     flavor.registry_load    flavor::LoadRegistryCsv
//     recipe.csv_load         RecipeDatabase::LoadCsv (dataframe CSV reader)
//     recipe.cuisine          RecipeDatabase::CuisineFor, per region (counted
//                             in the closure check only)
//     analysis.cache_build    PairingCache construction, per region
//     analysis.null_sweep     CompareAgainstAllModels, per region
//
// The first job's text (formatted exactly as the CLI prints it) is the
// answer oracle for the timed `culinary analyze` runs; `--expect-out`
// writes it to a file.

#include <cstdio>
#include <string>

#include "analysis/null_models.h"
#include "analysis/pairing.h"
#include "bench.h"
#include "flavor/registry_io.h"
#include "recipe/database.h"
#include "recipe/region.h"

namespace perfbench {
namespace {

namespace analysis = culinary::analysis;

struct JobTimes {
  double job_ms = 0;
  double registry_ms = 0;
  double csv_ms = 0;
  double cuisine_ms = 0;
  std::vector<double> cache_ms;
  std::vector<double> sweep_ms;
  double null_samples = 0;
};

double MsSince(int64_t start) { return static_cast<double>(NowNs() - start) / 1e6; }

culinary::Result<std::string> RunJob(const std::string& prefix,
                                     const std::string& recipes,
                                     size_t null_recipes, JobTimes* times) {
  const int64_t job_start = NowNs();
  int64_t start = NowNs();
  auto registry = culinary::flavor::LoadRegistryCsv(prefix);
  times->registry_ms = MsSince(start);
  if (!registry.ok()) return registry.status();
  auto registry_ptr = std::make_unique<culinary::flavor::FlavorRegistry>(
      std::move(registry).value());
  start = NowNs();
  size_t skipped = 0;
  auto db = culinary::recipe::RecipeDatabase::LoadCsv(recipes, registry_ptr.get(),
                                                      &skipped);
  times->csv_ms = MsSince(start);
  if (!db.ok()) return db.status();

  std::string text;
  char buf[256];
  for (int i = 0; i < culinary::recipe::kNumRegions; ++i) {
    start = NowNs();
    const culinary::recipe::Cuisine cuisine =
        db.value().CuisineFor(culinary::recipe::AllRegions()[i]);
    times->cuisine_ms += MsSince(start);
    if (cuisine.num_recipes() < 10) continue;  // as the CLI skips them
    start = NowNs();
    analysis::PairingCache cache(*registry_ptr, cuisine.unique_ingredients());
    times->cache_ms.push_back(MsSince(start));
    analysis::NullModelOptions options;
    options.num_recipes = null_recipes;
    start = NowNs();
    auto results =
        analysis::CompareAgainstAllModels(cache, cuisine, *registry_ptr, options);
    times->sweep_ms.push_back(MsSince(start));
    if (!results.ok()) return results.status();
    times->null_samples += static_cast<double>(results.value().size() * null_recipes);
    std::snprintf(buf, sizeof(buf), "%-22s N_s(real)=%.3f\n",
                  std::string(culinary::recipe::RegionName(cuisine.region())).c_str(),
                  results.value()[0].real_mean);
    text += buf;
    for (const auto& r : results.value()) {
      std::snprintf(buf, sizeof(buf), "  vs %-20s null mean %.3f  Z = %+.1f\n",
                    std::string(analysis::NullModelKindToString(r.kind)).c_str(),
                    r.null_mean, r.z_score);
      text += buf;
    }
  }
  times->job_ms = MsSince(job_start);
  return text;
}

}  // namespace

int RunPaper(const std::map<std::string, std::string>& flags) {
  const std::string prefix = FlagStr(flags, "registry", "");
  const std::string recipes = FlagStr(flags, "recipes", "");
  const size_t null_recipes = static_cast<size_t>(FlagNum(flags, "null-recipes", 20000));
  const double seconds = FlagNum(flags, "seconds", 0);
  const std::string expect_out = FlagStr(flags, "expect-out", "");

  std::vector<double> registry_ms, csv_ms, cache_ms, sweep_ms, rate;
  std::string first;
  uint64_t jobs = 0;
  uint64_t mismatches = 0;
  double child_ms = 0.0;
  double root_ms = 0.0;
  const int64_t until = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    JobTimes t;
    auto text = RunJob(prefix, recipes, null_recipes, &t);
    if (!text.ok()) {
      std::fprintf(stderr, "paper: %s\n", text.status().ToString().c_str());
      return 1;
    }
    if (jobs == 0) first = text.value();
    if (text.value() != first) ++mismatches;
    ++jobs;
    registry_ms.push_back(t.registry_ms);
    csv_ms.push_back(t.csv_ms);
    cache_ms.insert(cache_ms.end(), t.cache_ms.begin(), t.cache_ms.end());
    sweep_ms.insert(sweep_ms.end(), t.sweep_ms.begin(), t.sweep_ms.end());
    double sweep_total = 0.0;
    double children = t.registry_ms + t.csv_ms + t.cuisine_ms;
    for (double v : t.sweep_ms) sweep_total += v;
    for (double v : t.cache_ms) children += v;
    children += sweep_total;
    child_ms += children;
    root_ms += t.job_ms;
    if (sweep_total > 0.0) rate.push_back(t.null_samples / (sweep_total / 1e3));
  } while (NowNs() < until);

  if (!expect_out.empty()) {
    FILE* f = std::fopen(expect_out.c_str(), "wb");
    if (f == nullptr || std::fwrite(first.data(), 1, first.size(), f) != first.size()) {
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
  }

  const double closure = root_ms > 0.0 ? child_ms / root_ms : 0.0;
  JsonObject out;
  out.Num("jobs", static_cast<double>(jobs));
  out.Num("failed", static_cast<double>(mismatches));
  out.Num("closure_ok", closure >= kClosureMinShare ? 1 : 0);
  out.Num("trace.closure_share", closure);
  out.Dist("flavor.registry_load_ms", registry_ms);
  out.Dist("recipe.csv_load_ms", csv_ms);
  out.Dist("analysis.cache_build_ms", cache_ms);
  out.Dist("analysis.null_sweep_ms", sweep_ms);
  out.Num("analysis.null_samples_per_s", Median(rate));
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace perfbench
