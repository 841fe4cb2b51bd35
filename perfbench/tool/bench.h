// Shared pieces of the perfbench tool: the workload request stream with its
// answer oracle, percentile helpers, and a small JSON writer.
//
// The tool is the benchmark's engine room; perfbench/run.py drives it. It
// links the repository's libraries only to (a) build the answer oracle and
// (b) replay the serve loop's public calls in-process for the traced run.
// Nothing under src/ or tools/ is instrumented.

#ifndef PERFBENCH_TOOL_BENCH_H_
#define PERFBENCH_TOOL_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "datagen/spec.h"
#include "serving/reload.h"
#include "serving/snapshot.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Closure check of the traced runs: the child spans must cover at least
/// this share of their parent's wall time, or the run fails.
constexpr double kClosureMinShare = 0.95;

/// Nearest-rank percentile (`q` in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Flat JSON object of numbers, insertion order kept.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  /// Adds `<key>.p50`, `<key>.p99` and `<key>.count` for a sample set.
  void Dist(const std::string& key, const std::vector<double>& samples);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Which world the server and the oracle load. The snapshot digest pins
/// (seed, size), so both must agree with the flags the server gets.
struct WorldArgs {
  std::string snapshot_path;
  uint64_t seed = 0;  ///< 0 = the spec's default seed, as the CLIs read it
  bool small = false;
};

/// The datagen spec `world` names (size, and the seed with 0 resolved).
culinary::datagen::WorldSpec WorldSpecOf(const WorldArgs& world);

/// The reload source culinary_serve builds for `--snapshot-in`: the same
/// file, the same digest, best-effort fallback, no rewrite.
culinary::serving::SnapshotSource MakeServeSource(const WorldArgs& world);

/// Workload names the serving side knows.
struct StreamSpec {
  /// Every line is a {"op":"batch"} envelope of this many suggest
  /// sub-requests (0 = one query per line, loadgen mix).
  size_t batch = 0;
};
culinary::Result<StreamSpec> StreamSpecFor(const std::string& name);

/// Expected response line with two kinds of hole: the line id and the
/// snapshot generation (which only has to be non-decreasing).
struct Template {
  std::vector<std::string> pieces;  ///< pieces.size() == slots.size() + 1
  std::vector<char> slots;          ///< 'I' = id, 'G' = generation
};

/// The request stream of one workload and its answer oracle.
///
/// Requests are drawn from a pool of distinct lines (sampled from the
/// world's real recipes and regions, as loadgen does); stream position p
/// holds pool entry `order[p]`. Line `seq` on a connection is stream
/// position `seq % order.size()` with id "<seq>", so every server process
/// sees the same stream from its start and answers can be matched by id
/// even if they arrive out of order. The oracle evaluates each pool entry
/// once, in-process, with `EvaluateQuery` + `Serialize*` against a
/// `ServingSnapshot` built from the same snapshot file.
class Stream {
 public:
  static culinary::Result<std::unique_ptr<Stream>> Build(
      const StreamSpec& spec, const WorldArgs& world, uint64_t traffic_seed,
      size_t pool_size);

  /// Full request line for connection sequence number `seq`, with '\n'.
  void AppendLine(uint64_t seq, std::string* out) const;
  /// Queries carried by line `seq` (batch lines count each sub-request).
  size_t OpsAt(uint64_t seq) const { return ops_[Entry(seq)]; }

  /// Checks one response line against the oracle. Returns true when the
  /// line is byte-identical to the expected answer (generation aside);
  /// `*seq` gets the parsed id (or UINT64_MAX when none could be read) and
  /// `*generation` the largest generation the line carried (0 if none).
  bool Check(std::string_view line, uint64_t* seq, uint64_t* generation) const;

  /// Loadgen-mix query lines of the same world, for per-endpoint timings of
  /// endpoints the workload itself never calls (empty for mix workloads).
  const std::vector<std::string>& reference_lines() const {
    return reference_lines_;
  }

 private:
  Stream() = default;
  size_t Entry(uint64_t seq) const { return order_[seq % order_.size()]; }

  std::shared_ptr<const culinary::serving::ServingSnapshot> snapshot_;
  std::vector<std::string> rest_;  ///< line text after the id value
  std::vector<Template> expect_;
  std::vector<uint32_t> ops_;
  std::vector<uint32_t> order_;
  std::vector<std::string> reference_lines_;
};

/// Subcommands (each prints one JSON object on stdout).
int RunDrive(const std::map<std::string, std::string>& flags);
int RunReplay(const std::map<std::string, std::string>& flags);
int RunPaper(const std::map<std::string, std::string>& flags);

/// Flag helpers: `--key=value` map access with defaults.
std::string FlagStr(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& fallback);
double FlagNum(const std::map<std::string, std::string>& flags,
               const std::string& key, double fallback);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_BENCH_H_
