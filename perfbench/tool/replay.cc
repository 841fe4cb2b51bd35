// `replay`: the traced run. Feeds the workload's request lines through the
// same public calls the culinary_serve loop makes, in-process, and records
// a span around each call:
//
//   op                        one request line, read to flushed answer
//     transport.read          std::getline on a stdio-synced pipe stream
//     protocol.parse          serving::ParseRequestLine
//     engine.roundtrip        QueryEngine::Submit -> future::get
//     protocol.serialize      SerializeResponse / SerializeBatchResponse
//     transport.write         write + flush of the answer line
//
// A drain thread reads the answers and checks them against the oracle. The
// same lines are replayed once untraced first (the overhead baseline), and
// a second pass times EvaluateQuery / EvaluateBatch on the engine's pinned
// snapshot, which splits the roundtrip into evaluation and handoff. Spans
// stay in memory and are written once at the end.

#include <ext/stdio_sync_filebuf.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <istream>
#include <ostream>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "serving/engine.h"
#include "serving/protocol.h"
#include "snapshot/snapshot.h"

namespace perfbench {
namespace {

namespace serving = culinary::serving;

// Snapshot loads + serving-snapshot builds, and ReloadManager reloads, timed
// per run.
constexpr int kLoads = 5;
constexpr int kReloads = 5;

enum SpanName : uint8_t {
  kOp = 0,
  kRead,
  kParse,
  kRoundtrip,
  kSerialize,
  kWrite,
  kReload,
  kSnapshotLoad,
  kServingBuild,
  kNumSpanNames
};
const char* const kSpanNames[kNumSpanNames] = {
    "op",           "transport.read",     "protocol.parse",
    "engine.roundtrip", "protocol.serialize", "transport.write",
    "reload", "snapshot.load", "serving_snapshot.build"};

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t request = 0;
  int32_t parent = -1;  ///< index of the parent span, -1 for a root
  uint8_t name = 0;
};

/// In-memory span log. `Begin`/`End` are no-ops when disabled, so the
/// untraced pass runs the identical loop.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  int32_t Begin(SpanName name, uint64_t request, int32_t parent) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.start = NowNs();
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end = NowNs();
  }
  void Drop(int32_t index) {
    if (index >= 0 && static_cast<size_t>(index) + 1 == spans_.size()) {
      spans_.pop_back();
    }
  }
  const std::vector<Span>& all() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

double Us(const Span& s) { return static_cast<double>(s.end - s.start) / 1e3; }

struct PassResult {
  uint64_t lines = 0;
  uint64_t ops = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t failed = 0;
  int64_t wall_ns = 0;
};

/// One serve-loop replay over the workload's lines. With `max_lines` = 0
/// the feeder writes lines until `until_ns`; otherwise exactly `max_lines`.
PassResult ServePass(const Stream& stream, serving::QueryEngine& engine,
                     uint64_t max_lines, int64_t until_ns, Spans* spans) {
  PassResult result;
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    result.failed = 1;
    return result;
  }
  std::atomic<uint64_t> fed{0};
  std::atomic<uint64_t> fed_ops{0};
  std::atomic<uint64_t> fed_bytes{0};
  std::thread feeder([&] {
    std::string buf;
    uint64_t seq = 0;
    uint64_t ops = 0;
    uint64_t bytes = 0;
    for (;;) {
      if (max_lines > 0 ? seq >= max_lines : NowNs() >= until_ns) break;
      buf.clear();
      for (int i = 0; i < 16 && (max_lines == 0 || seq < max_lines); ++i) {
        ops += stream.OpsAt(seq);
        stream.AppendLine(seq++, &buf);
      }
      bytes += buf.size();
      size_t done = 0;
      while (done < buf.size()) {
        const ssize_t n = write(in_pipe[1], buf.data() + done, buf.size() - done);
        if (n <= 0) break;
        done += static_cast<size_t>(n);
      }
    }
    fed.store(seq);
    fed_ops.store(ops);
    fed_bytes.store(bytes);
    close(in_pipe[1]);
  });
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> out_bytes{0};
  std::thread drain([&] {
    std::string partial;
    std::vector<char> buf(1 << 16);
    uint64_t last_generation = 0;
    for (;;) {
      const ssize_t n = read(out_pipe[0], buf.data(), buf.size());
      if (n <= 0) break;
      out_bytes.fetch_add(static_cast<uint64_t>(n));
      partial.append(buf.data(), static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = partial.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        uint64_t seq = 0;
        uint64_t generation = 0;
        const std::string_view line(partial.data() + start, nl - start);
        const bool ok = stream.Check(line, &seq, &generation);
        if (!ok || generation < last_generation) wrong.fetch_add(1);
        if (generation != 0) last_generation = generation;
        answered.fetch_add(1);
      }
      partial.erase(0, start);
    }
    close(out_pipe[0]);
  });

  {
    FILE* in_file = fdopen(in_pipe[0], "r");
    FILE* out_file = fdopen(out_pipe[1], "w");
    __gnu_cxx::stdio_sync_filebuf<char> in_buf(in_file);
    __gnu_cxx::stdio_sync_filebuf<char> out_buf(out_file);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    std::string line;
    const int64_t start = NowNs();
    for (uint64_t request = 0;; ++request) {
      const int32_t op = spans->Begin(kOp, request, -1);
      int32_t s = spans->Begin(kRead, request, op);
      if (!std::getline(in, line)) {
        spans->Drop(s);
        spans->Drop(op);
        break;
      }
      spans->End(s);
      s = spans->Begin(kParse, request, op);
      auto parsed = serving::ParseRequestLine(line);
      spans->End(s);
      std::string answer;
      if (!parsed.ok()) {
        answer = serving::SerializeError("", parsed.status());
      } else if (parsed.value().is_batch) {
        const serving::WireRequest& wire = parsed.value();
        s = spans->Begin(kRoundtrip, request, op);
        std::vector<std::future<serving::Response>> futures;
        std::vector<std::string> sub_ids;
        for (const serving::WireRequest& sub : wire.batch) {
          futures.push_back(engine.Submit(sub.request));
          sub_ids.push_back(sub.id);
        }
        std::vector<serving::Response> responses;
        for (auto& f : futures) responses.push_back(f.get());
        spans->End(s);
        s = spans->Begin(kSerialize, request, op);
        answer = serving::SerializeBatchResponse(wire.id, sub_ids, responses);
        spans->End(s);
      } else {
        const serving::WireRequest& wire = parsed.value();
        s = spans->Begin(kRoundtrip, request, op);
        serving::Response response = engine.Submit(wire.request).get();
        spans->End(s);
        s = spans->Begin(kSerialize, request, op);
        answer = serving::SerializeResponse(wire.id, response);
        spans->End(s);
      }
      s = spans->Begin(kWrite, request, op);
      out << answer << '\n' << std::flush;
      spans->End(s);
      spans->End(op);
    }
    result.wall_ns = NowNs() - start;
    std::fclose(out_file);
    std::fclose(in_file);
  }
  feeder.join();
  drain.join();
  result.lines = fed.load();
  result.ops = fed_ops.load();
  result.bytes_in = fed_bytes.load();
  result.bytes_out = out_bytes.load();
  result.failed = wrong.load() + (result.lines - answered.load());
  return result;
}

struct EvalSamples {
  std::map<std::string, std::vector<double>> by_endpoint;
  std::vector<double> batch_per_op;
  std::vector<double> per_line;  ///< evaluation share of each line
};

template <typename Fn>
double TimeUs(Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  return static_cast<double>(NowNs() - start) / 1e3;
}

/// Times `EvaluateQuery` per request and `EvaluateBatch` per batch line (or,
/// for single-query streams, per run of 16 consecutive queries).
void EvalLine(const serving::ServingSnapshot& snap, const std::string& text,
              bool record_line, EvalSamples* out,
              std::vector<serving::Request>* group) {
  auto parsed = serving::ParseRequestLine(text);
  if (!parsed.ok() || parsed.value().is_admin) {
    if (record_line) out->per_line.push_back(0.0);
    return;
  }
  const serving::WireRequest& wire = parsed.value();
  auto eval = [&](const serving::Request& r) {
    return TimeUs([&] {
      serving::Response resp = serving::EvaluateQuery(snap, r, serving::MakeContext(r));
      (void)resp;
    });
  };
  auto eval_batch = [&](const std::vector<serving::Request>& rs) {
    const double us = TimeUs([&] {
      std::vector<serving::Response> resp = serving::EvaluateBatch(snap, rs);
      (void)resp;
    });
    out->batch_per_op.push_back(us / static_cast<double>(rs.size()));
    return us;
  };
  if (wire.is_batch) {
    std::vector<serving::Request> subs;
    for (const serving::WireRequest& sub : wire.batch) {
      out->by_endpoint[serving::EndpointName(sub.request.endpoint)].push_back(
          eval(sub.request));
      subs.push_back(sub.request);
    }
    const double us = eval_batch(subs);
    if (record_line) out->per_line.push_back(us);
    return;
  }
  const double us = eval(wire.request);
  out->by_endpoint[serving::EndpointName(wire.request.endpoint)].push_back(us);
  if (record_line) out->per_line.push_back(us);
  if (group != nullptr) {
    group->push_back(wire.request);
    if (group->size() == 16) {
      eval_batch(*group);
      group->clear();
    }
  }
}

}  // namespace

int RunReplay(const std::map<std::string, std::string>& flags) {
  WorldArgs world;
  world.snapshot_path = FlagStr(flags, "snapshot", "");
  world.seed = static_cast<uint64_t>(FlagNum(flags, "world-seed", 0));
  world.small = FlagNum(flags, "small", 0) != 0;
  const double seconds = FlagNum(flags, "seconds", 5);
  const std::string trace_out = FlagStr(flags, "trace-out", "");

  auto spec = StreamSpecFor(FlagStr(flags, "workload", "mix"));
  if (!spec.ok()) {
    std::fprintf(stderr, "replay: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto built = Stream::Build(spec.value(), world,
                             static_cast<uint64_t>(FlagNum(flags, "traffic-seed", 1)),
                             static_cast<size_t>(FlagNum(flags, "pool", 4096)));
  if (!built.ok()) {
    std::fprintf(stderr, "replay: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const Stream& stream = *built.value();
  const serving::SnapshotSource source = MakeServeSource(world);

  // Layer: snapshot load and serving-snapshot build, as a (re)load runs them.
  Spans setup_spans(true);
  for (int i = 0; i < kLoads; ++i) {
    culinary::snapshot::SnapshotLoadOptions options;
    options.expected_digest = source.expected_digest;
    int32_t s = setup_spans.Begin(kSnapshotLoad, 0, -1);
    auto loaded = culinary::snapshot::LoadWorldSnapshot(world.snapshot_path, options);
    setup_spans.End(s);
    if (!loaded.ok()) return 1;
    s = setup_spans.Begin(kServingBuild, 0, -1);
    auto snap = serving::ServingSnapshot::FromLoadedWorld(std::move(loaded).value());
    setup_spans.End(s);
    if (!snap.ok()) return 1;
  }

  auto initial = serving::BuildServingSnapshot(source);
  if (!initial.ok()) return 1;
  serving::QueryEngine engine(std::move(initial).value());
  serving::ReloadManager::Options reload_options;
  reload_options.retry.max_attempts = 3;
  serving::ReloadManager reloads(&engine, std::move(reload_options));

  // Warm-up, then the untraced baseline (time-bounded, which fixes the line
  // count), then the traced pass over exactly the same lines.
  Spans off(false);
  ServePass(stream, engine, 0,
            NowNs() + static_cast<int64_t>(0.05 * seconds * 1e9), &off);
  const PassResult untraced =
      ServePass(stream, engine, 0,
                NowNs() + static_cast<int64_t>(0.35 * seconds * 1e9), &off);
  Spans spans(true);
  spans.Reserve(untraced.lines * 6 + 1024);
  const PassResult traced = ServePass(stream, engine, untraced.lines, 0, &spans);

  // Evaluation pass over the same lines against the pinned snapshot.
  EvalSamples eval;
  {
    const std::shared_ptr<const serving::ServingSnapshot> pinned = engine.snapshot();
    std::vector<serving::Request> group;
    std::string line;
    for (uint64_t seq = 0; seq < traced.lines; ++seq) {
      line.clear();
      stream.AppendLine(seq, &line);
      line.pop_back();
      EvalLine(*pinned, line, true, &eval, &group);
    }
    std::map<std::string, bool> seen;
    for (const auto& [name, samples] : eval.by_endpoint) seen[name] = !samples.empty();
    for (const std::string& ref : stream.reference_lines()) {
      auto parsed = serving::ParseRequestLine(ref);
      if (!parsed.ok()) continue;
      if (seen[serving::EndpointName(parsed.value().request.endpoint)]) continue;
      EvalLine(*pinned, ref, false, &eval, nullptr);
    }
  }

  // Reloads through the hardened path, as a {"op":"reload"} line runs it.
  for (int i = 0; i < kReloads; ++i) {
    const int32_t s = setup_spans.Begin(kReload, 0, -1);
    reloads.Reload(source);
    setup_spans.End(s);
  }
  const serving::QueryEngine::Stats stats = engine.stats();
  const uint64_t reload_failures = reloads.failed_reloads();
  const uint64_t reload_attempts = stats.reloads + reload_failures;
  engine.Stop();

  // Per-layer figures from the traced pass.
  std::map<uint8_t, std::vector<double>> by_name;
  std::vector<double> roundtrip_by_request(traced.lines, 0.0);
  double root_ns = 0.0;
  double child_ns = 0.0;
  for (const Span& s : spans.all()) {
    by_name[s.name].push_back(Us(s));
    if (s.parent < 0) {
      root_ns += static_cast<double>(s.end - s.start);
    } else {
      child_ns += static_cast<double>(s.end - s.start);
    }
    if (s.name == kRoundtrip && s.request < traced.lines) {
      roundtrip_by_request[s.request] = Us(s);
    }
  }
  std::vector<double> handoff;
  for (uint64_t r = 0; r < traced.lines && r < eval.per_line.size(); ++r) {
    if (roundtrip_by_request[r] > 0.0 && eval.per_line[r] > 0.0) {
      handoff.push_back(roundtrip_by_request[r] - eval.per_line[r]);
    }
  }
  const double closure = root_ns > 0.0 ? child_ns / root_ns : 0.0;
  const double per_op_untraced = static_cast<double>(untraced.wall_ns) /
                                 static_cast<double>(std::max<uint64_t>(1, untraced.lines));
  const double per_op_traced = static_cast<double>(traced.wall_ns) /
                               static_cast<double>(std::max<uint64_t>(1, traced.lines));
  std::vector<double> load_ms;
  std::vector<double> build_ms;
  std::vector<double> reload_ms;
  for (const Span& s : setup_spans.all()) {
    if (s.name == kSnapshotLoad) load_ms.push_back(Us(s) / 1e3);
    if (s.name == kServingBuild) build_ms.push_back(Us(s) / 1e3);
    if (s.name == kReload) reload_ms.push_back(Us(s) / 1e3);
  }

  if (!trace_out.empty()) {
    // Chrome trace of the set-up spans and the first requests of the traced
    // pass (the whole pass would be tens of megabytes).
    std::vector<culinary::obs::TraceEvent> events;
    const int64_t epoch = setup_spans.all().empty() ? 0 : setup_spans.all()[0].start;
    auto add = [&](const Span& s, uint32_t tid) {
      culinary::obs::TraceEvent e;
      e.name = kSpanNames[s.name];
      e.category = s.parent < 0 && s.name != kOp ? "setup"
                                                  : "request " + std::to_string(s.request);
      e.start_us = static_cast<uint64_t>(std::max<int64_t>(0, s.start - epoch) / 1000);
      e.duration_us = static_cast<uint64_t>((s.end - s.start) / 1000);
      e.thread_id = tid;
      events.push_back(std::move(e));
    };
    for (const Span& s : setup_spans.all()) add(s, 1);
    for (const Span& s : spans.all()) {
      if (events.size() >= 20000) break;
      add(s, 2);
    }
    if (FILE* f = std::fopen(trace_out.c_str(), "wb")) {
      const std::string json = culinary::obs::TraceToChromeJson(events);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }

  JsonObject out;
  out.Num("attempted", static_cast<double>(untraced.ops + traced.ops));
  out.Num("failed", static_cast<double>(untraced.failed + traced.failed));
  out.Num("closure_ok", closure >= kClosureMinShare ? 1 : 0);
  out.Dist("transport.read_us", by_name[kRead]);
  out.Dist("transport.write_us", by_name[kWrite]);
  out.Dist("protocol.parse_us", by_name[kParse]);
  out.Dist("protocol.serialize_us", by_name[kSerialize]);
  const double ops = static_cast<double>(std::max<uint64_t>(1, traced.ops));
  out.Num("protocol.bytes_in_per_op", static_cast<double>(traced.bytes_in) / ops);
  out.Num("protocol.bytes_out_per_op", static_cast<double>(traced.bytes_out) / ops);
  out.Dist("engine.roundtrip_us", by_name[kRoundtrip]);
  out.Dist("engine.handoff_us", handoff);
  out.Num("engine.mean_batch_size",
          stats.batches > 0 ? static_cast<double>(stats.executed) / stats.batches : 0.0);
  out.Num("engine.coalesced_share",
          stats.executed > 0 ? static_cast<double>(stats.coalesced) / stats.executed : 0.0);
  out.Num("engine.shed_share",
          stats.accepted + stats.shed > 0
              ? static_cast<double>(stats.shed) / (stats.accepted + stats.shed)
              : 0.0);
  for (const char* endpoint : {"score", "suggest", "fingerprint", "similar", "ping"}) {
    out.Dist(std::string("queries.eval_us.") + endpoint, eval.by_endpoint[endpoint]);
  }
  out.Dist("queries.batch_eval_us_per_op", eval.batch_per_op);
  out.Dist("snapshot.load_ms", load_ms);
  out.Dist("serving_snapshot.build_ms", build_ms);
  out.Dist("reload.ms", reload_ms);
  out.Num("reload.failed_share",
          reload_attempts > 0 ? static_cast<double>(reload_failures) / reload_attempts : 0.0);
  out.Num("trace.overhead_share", (per_op_traced - per_op_untraced) / per_op_untraced);
  out.Num("trace.closure_share", closure);
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace perfbench
