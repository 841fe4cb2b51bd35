#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "datagen/world.h"
#include "recipe/region.h"
#include "serving/protocol.h"
#include "serving/queries.h"
#include "snapshot/snapshot.h"

namespace perfbench {

using culinary::Result;
using culinary::Status;
namespace serving = culinary::serving;

namespace {

constexpr char kIdMark[] = "@ID@";
// A generation no run reaches; its digits mark the generation holes.
constexpr uint64_t kGenerationMark = 9876543210123ULL;
// Stream length before the position sequence repeats.
constexpr size_t kOrderLength = size_t{1} << 20;
constexpr size_t kSuggestK = 5;

Template MakeTemplate(const std::string& expected) {
  const std::string gen = std::to_string(kGenerationMark);
  Template t;
  std::string piece;
  for (size_t i = 0; i < expected.size();) {
    if (expected.compare(i, 4, kIdMark) == 0) {
      t.pieces.push_back(piece);
      t.slots.push_back('I');
      piece.clear();
      i += 4;
    } else if (expected.compare(i, gen.size(), gen) == 0) {
      t.pieces.push_back(piece);
      t.slots.push_back('G');
      piece.clear();
      i += gen.size();
    } else {
      piece += expected[i++];
    }
  }
  t.pieces.push_back(piece);
  return t;
}

void AppendIngredients(const culinary::snapshot::LoadedWorld& world,
                       culinary::Rng& rng, std::string* line) {
  const auto& recipes = world.db().recipes();
  const auto& recipe = recipes[rng.NextBounded(recipes.size())];
  *line += "\"ingredients\":[";
  for (size_t j = 0; j < recipe.ingredients.size(); ++j) {
    if (j > 0) *line += ',';
    const auto* ing = world.registry().Find(recipe.ingredients[j]);
    *line += '"';
    *line += serving::EscapeJson(ing != nullptr ? ing->name : "unknown");
    *line += '"';
  }
  *line += ']';
}

/// One query of the loadgen mix (40% score, 30% suggest, 15% fingerprint,
/// 10% similar, 5% ping), as the text after `"op":"`.
std::string MixQuery(const culinary::snapshot::LoadedWorld& world,
                     culinary::Rng& rng) {
  const uint64_t dice = rng.NextBounded(100);
  std::string body;
  if (dice < 70) {
    body = dice < 40 ? "score\"," : "suggest\",";
    AppendIngredients(world, rng, &body);
    if (dice >= 40) body += ",\"k\":" + std::to_string(kSuggestK);
  } else if (dice < 95) {
    const auto region = culinary::recipe::AllRegions()[rng.NextBounded(
        culinary::recipe::kNumRegions)];
    body = dice < 85 ? "fingerprint\"," : "similar\",";
    body += "\"region\":\"";
    body += culinary::recipe::RegionCode(region);
    body += "\",\"k\":" + std::to_string(kSuggestK);
  } else {
    body = "ping\"";
  }
  return body + "}";
}

std::string SuggestBatch(const culinary::snapshot::LoadedWorld& world,
                         culinary::Rng& rng, size_t batch) {
  std::string body = "batch\",\"requests\":[";
  for (size_t j = 0; j < batch; ++j) {
    if (j > 0) body += ',';
    body += "{\"id\":\"s" + std::to_string(j) + "\",\"op\":\"suggest\",";
    AppendIngredients(world, rng, &body);
    body += ",\"k\":" + std::to_string(kSuggestK) + "}";
  }
  return body + "]}";
}

std::string Expected(const serving::ServingSnapshot& snapshot,
                     const std::string& line) {
  auto parsed = serving::ParseRequestLine(line);
  if (!parsed.ok()) return serving::SerializeError(kIdMark, parsed.status());
  const serving::WireRequest& wire = parsed.value();
  auto answer = [&](const serving::Request& request) {
    serving::Response r =
        serving::EvaluateQuery(snapshot, request, serving::MakeContext(request));
    r.generation = kGenerationMark;
    return r;
  };
  if (!wire.is_batch) return serving::SerializeResponse(wire.id, answer(wire.request));
  std::vector<std::string> ids;
  std::vector<serving::Response> responses;
  for (const serving::WireRequest& sub : wire.batch) {
    ids.push_back(sub.id);
    responses.push_back(answer(sub.request));
  }
  return serving::SerializeBatchResponse(wire.id, ids, responses);
}

bool ReadUint(std::string_view text, size_t* pos, uint64_t* value) {
  const size_t start = *pos;
  uint64_t v = 0;
  while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9' &&
         *pos - start < 19) {
    v = v * 10 + static_cast<uint64_t>(text[*pos] - '0');
    ++*pos;
  }
  *value = v;
  return *pos > start;
}

}  // namespace

culinary::datagen::WorldSpec WorldSpecOf(const WorldArgs& world) {
  culinary::datagen::WorldSpec spec = world.small
                                          ? culinary::datagen::WorldSpec::Small()
                                          : culinary::datagen::WorldSpec::Default();
  if (world.seed != 0) spec.seed = world.seed;
  return spec;
}

serving::SnapshotSource MakeServeSource(const WorldArgs& world) {
  serving::SnapshotSource source;
  const culinary::datagen::WorldSpec spec = WorldSpecOf(world);
  source.rebuild = [spec]() -> Result<culinary::snapshot::LoadedWorld> {
    auto generated = culinary::datagen::GenerateWorld(spec);
    if (!generated.ok()) return generated.status();
    culinary::snapshot::LoadedWorld loaded;
    loaded.registry_ptr = std::move(generated.value().universe.registry);
    loaded.database = std::move(generated.value().database);
    return loaded;
  };
  source.snapshot_path = world.snapshot_path;
  source.expected_digest =
      culinary::snapshot::DigestGeneratedWorld(spec.seed, world.small);
  source.policy = culinary::robustness::ErrorPolicy::kBestEffort;
  source.rewrite_snapshot = false;
  return source;
}

Result<StreamSpec> StreamSpecFor(const std::string& name) {
  StreamSpec spec;
  if (name == "mix") return spec;
  if (name == "suggest_batch") {
    spec.batch = 16;
    return spec;
  }
  return Status::InvalidArgument("unknown serving workload '" + name + "'");
}

Result<std::unique_ptr<Stream>> Stream::Build(const StreamSpec& spec,
                                              const WorldArgs& world,
                                              uint64_t traffic_seed,
                                              size_t pool_size) {
  culinary::snapshot::SnapshotLoadOptions load_options;
  load_options.expected_digest =
      culinary::snapshot::DigestGeneratedWorld(WorldSpecOf(world).seed, world.small);
  auto loaded = culinary::snapshot::LoadWorldSnapshot(world.snapshot_path,
                                                      load_options);
  if (!loaded.ok()) return loaded.status();
  if (loaded.value().db().recipes().empty()) {
    return Status::FailedPrecondition("world has no recipes");
  }

  std::unique_ptr<Stream> stream(new Stream());
  culinary::Rng rng(culinary::DeriveStreamSeed(traffic_seed, 1));
  for (size_t i = 0; i < pool_size; ++i) {
    const std::string body = spec.batch > 0
                                 ? SuggestBatch(loaded.value(), rng, spec.batch)
                                 : MixQuery(loaded.value(), rng);
    stream->rest_.push_back("\",\"op\":\"" + body);
    stream->ops_.push_back(spec.batch > 0 ? static_cast<uint32_t>(spec.batch) : 1);
  }
  if (spec.batch > 0) {
    culinary::Rng ref_rng(culinary::DeriveStreamSeed(traffic_seed, 3));
    for (size_t i = 0; i < 1000; ++i) {
      stream->reference_lines_.push_back(
          "{\"id\":\"ref" + std::to_string(i) + "\",\"op\":\"" +
          MixQuery(loaded.value(), ref_rng));
    }
  }

  auto snapshot = serving::ServingSnapshot::FromLoadedWorld(
      std::move(loaded).value());
  if (!snapshot.ok()) return snapshot.status();
  stream->snapshot_ = std::move(snapshot).value();

  // The oracle: every pool entry evaluated once, split over a few threads
  // (the evaluators are pure functions of the immutable snapshot).
  stream->expect_.resize(stream->rest_.size());
  const size_t n_threads = 4;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < n_threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < pool_size; i += n_threads) {
        const std::string line = std::string("{\"id\":\"") + kIdMark +
                                 stream->rest_[i];
        stream->expect_[i] = MakeTemplate(Expected(*stream->snapshot_, line));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  culinary::Rng order_rng(culinary::DeriveStreamSeed(traffic_seed, 2));
  stream->order_.resize(kOrderLength);
  for (size_t p = 0; p < kOrderLength; ++p) {
    stream->order_[p] = static_cast<uint32_t>(order_rng.NextBounded(pool_size));
  }
  return stream;
}

void Stream::AppendLine(uint64_t seq, std::string* out) const {
  *out += "{\"id\":\"";
  *out += std::to_string(seq);
  *out += rest_[Entry(seq)];
  *out += '\n';
}

bool Stream::Check(std::string_view line, uint64_t* seq,
                   uint64_t* generation) const {
  *seq = UINT64_MAX;
  *generation = 0;
  constexpr std::string_view kHead = "{\"id\":\"";
  if (line.substr(0, kHead.size()) != kHead) return false;
  size_t pos = kHead.size();
  uint64_t id = 0;
  if (!ReadUint(line, &pos, &id)) return false;
  *seq = id;
  const Template& t = expect_[Entry(id)];
  pos = 0;
  for (size_t i = 0; i < t.slots.size() + 1; ++i) {
    const std::string& piece = t.pieces[i];
    if (line.substr(pos, piece.size()) != piece) return false;
    pos += piece.size();
    if (i == t.slots.size()) break;
    uint64_t value = 0;
    if (!ReadUint(line, &pos, &value)) return false;
    if (t.slots[i] == 'I' && value != id) return false;
    if (t.slots[i] == 'G') {
      if (value == 0) return false;
      *generation = std::max(*generation, value);
    }
  }
  return pos == line.size();
}

// --- helpers ----------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // The epsilon keeps e.g. 0.2 * 15 at rank 3 despite rounding.
  const double rank = std::ceil(q * static_cast<double>(values.size()) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

void JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "null");
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  fields_.emplace_back(key, buf);
}

void JsonObject::Dist(const std::string& key,
                      const std::vector<double>& samples) {
  Num(key + ".p50", Percentile(samples, 0.50));
  Num(key + ".p99", Percentile(samples, 0.99));
  Num(key + ".count", static_cast<double>(samples.size()));
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::string FlagStr(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double FlagNum(const std::map<std::string, std::string>& flags,
               const std::string& key, double fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

}  // namespace perfbench
