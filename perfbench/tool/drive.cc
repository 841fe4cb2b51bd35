// `drive`: the end-to-end measurement. Starts the real culinary_serve
// binary, feeds it request lines over its stdin pipe from this process and
// reads the answers from its stdout, checking each against the oracle.
//
// Phases, each on its own server process(es):
//   cold start  N fresh servers; process start to first correct answer.
//   main        fresh servers in turn, each: closed-loop warm-up, closed-loop
//               saturation (fixed window of lines in flight -> throughput),
//               then an open loop at a fixed rate (latency from due time).
//   job         M fresh servers, spread over the main phase, each reading a
//               fixed number of lines from a file and answering into a
//               file; process start to exit.
//
// The load generator is one thread with one event loop per server (ppoll on
// the server's stdin and stdout), so it adds a single runnable thread beside
// the server's own.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

// The host is a shared VM: now and then a virtual CPU is preempted and a
// job stalls. Job times are therefore taken over several jobs inside the
// run and reported at a quantile that sits in the undisturbed ones, the best
// tenth. Every commit is measured with the same quantile, so comparisons
// stay like for like; the median is printed beside it.
constexpr double kQuietQuantile = 0.1;

// An open-loop latency window is left out when the sender ran later than
// kLagBoundUs at p99 (the stated load was not offered), and a latency window
// or throughput slice is left out when the hypervisor took CPU time from
// this VM during it (more than kStealBound ticks of /proc/stat steal): such
// windows measure the neighbours. Which windows stay depends only on those
// two outside signals, never on the figures measured in them.
constexpr double kLagBoundUs = 500.0;
constexpr uint64_t kStealBound = 0;
// Latency samples a run needs, so that ten lie beyond its p99, and
// throughput slices.
constexpr size_t kMinLatencySamples = 1000;
constexpr size_t kMinSlices = 16;

enum State : uint8_t { kPending = 0, kOk, kWrong };

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Per-line bookkeeping of one server connection, indexed by line id.
class Tracker {
 public:
  Tracker(const Stream& stream, size_t capacity)
      : stream_(stream),
        capacity_(capacity),
        due_(capacity, 0),
        sent_at_(capacity, 0),
        recv_(capacity, 0),
        state_(capacity, kPending) {}

  size_t capacity() const { return capacity_; }
  uint64_t sent() const { return sent_; }
  uint64_t answered() const { return answered_; }
  uint64_t in_flight() const { return sent_ - answered_; }

  /// Records line `sent()` as due at `due` and handed to the pipe at
  /// `sent_at`, and counts it as sent.
  void Record(int64_t due, int64_t sent_at) {
    due_[sent_] = due;
    sent_at_[sent_] = sent_at;
    ++sent_;
  }

  /// One complete answer line.
  void OnLine(std::string_view line, int64_t recv_ns) {
    std::string corrupted;
    if (corrupt_next_) {
      // Self-test hook: damage one answer; the oracle must reject it.
      corrupt_next_ = false;
      corrupted = std::string(line);
      corrupted[corrupted.size() / 2] ^= 0x01;
      line = corrupted;
    }
    uint64_t seq = 0;
    uint64_t generation = 0;
    const bool ok = stream_.Check(line, &seq, &generation);
    if (generation != 0) {
      if (generation < last_generation_) generation_went_back_ = true;
      last_generation_ = generation;
    }
    if (seq >= sent_ || state_[seq] != kPending) {
      ++unmatched_lines_;  // no such line, or a second answer for one
    } else {
      recv_[seq] = recv_ns;
      state_[seq] = ok ? kOk : kWrong;
    }
    ++answered_;
  }

  bool ok(uint64_t seq) const { return state_[seq] == kOk; }
  int64_t due(uint64_t seq) const { return due_[seq]; }
  int64_t sent_at(uint64_t seq) const { return sent_at_[seq]; }
  int64_t recv(uint64_t seq) const { return recv_[seq]; }

  /// Ops of lines that were sent but not answered correctly, plus answers
  /// that matched no line.
  uint64_t FailedOps() const {
    uint64_t failed = unmatched_lines_;
    for (uint64_t s = 0; s < sent_; ++s) {
      if (!ok(s)) failed += stream_.OpsAt(s);
    }
    return failed;
  }
  uint64_t SentOps() const {
    uint64_t ops = 0;
    for (uint64_t s = 0; s < sent_; ++s) ops += stream_.OpsAt(s);
    return ops;
  }
  bool generation_went_back() const { return generation_went_back_; }
  void CorruptNextAnswer() { corrupt_next_ = true; }

 private:
  const Stream& stream_;
  size_t capacity_;
  std::vector<int64_t> due_;
  std::vector<int64_t> sent_at_;
  std::vector<int64_t> recv_;
  std::vector<uint8_t> state_;
  uint64_t sent_ = 0;
  uint64_t answered_ = 0;
  uint64_t last_generation_ = 0;
  bool generation_went_back_ = false;
  uint64_t unmatched_lines_ = 0;
  bool corrupt_next_ = false;
};

/// One culinary_serve process with its stdin/stdout pipes. `Pump` is the
/// event loop: it writes queued request bytes and hands complete answer
/// lines to the tracker. The destructor kills a still-running server, so no
/// process outlives the connection.
class Conn {
 public:
  Conn(const std::vector<std::string>& argv, const std::string& log_path,
       Tracker* tracker)
      : tracker_(tracker) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0) return;
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
      close(in_pipe[0]);
      close(in_pipe[1]);
      return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    spawn_ns_ = NowNs();
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
    fcntl(in_fd_, F_SETFL, fcntl(in_fd_, F_GETFL) | O_NONBLOCK);
    if (rc != 0) pid_ = -1;
  }

  ~Conn() {
    CloseInput();
    if (pid_ > 0 && !exited_) {
      kill(pid_, SIGKILL);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool started() const { return pid_ > 0; }
  int64_t spawn_ns() const { return spawn_ns_; }

  /// Queues request bytes; `Pump` writes them as the pipe takes them.
  void Send(const std::string& data) { pending_.append(data); }

  /// One round of the event loop: waits until the server's stdout has data,
  /// its stdin can take queued bytes, or `deadline_ns` passes, and handles
  /// what is ready. Returns false once the server's stdout is closed.
  bool Pump(int64_t deadline_ns) {
    if (eof_) return false;
    struct pollfd fds[2];
    fds[0] = {out_fd_, POLLIN, 0};
    const bool want_write = in_fd_ >= 0 && written_ < pending_.size();
    fds[1] = {want_write ? in_fd_ : -1, POLLOUT, 0};
    const int64_t wait_ns = std::max<int64_t>(0, deadline_ns - NowNs());
    struct timespec ts = {static_cast<time_t>(wait_ns / 1000000000),
                          static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds, 2, &ts, nullptr) < 0) return errno == EINTR;
    if (fds[1].revents & (POLLOUT | POLLERR | POLLHUP)) WritePending();
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) ReadAnswers();
    return !eof_;
  }

  /// Pumps until every sent line is answered, the server closes its
  /// stdout, or `timeout_ns` passes.
  bool WaitAnswered(int64_t timeout_ns) {
    const int64_t give_up = NowNs() + timeout_ns;
    while (tracker_->answered() < tracker_->sent()) {
      if (NowNs() > give_up || !Pump(give_up)) return false;
    }
    return true;
  }

  void CloseInput() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
  }

  /// Closes the server's stdin, reads the rest of its answers and waits for
  /// it to exit; fills `*ru`. Returns false unless it exited with status 0.
  bool Finish(struct rusage* ru) {
    while (written_ < pending_.size() && in_fd_ >= 0 && Pump(NowNs() + 1000000000)) {
    }
    CloseInput();
    while (Pump(NowNs() + 1000000000)) {
    }
    int status = 0;
    pid_t r;
    do {
      r = wait4(pid_, &status, 0, ru);
    } while (r < 0 && errno == EINTR);
    exited_ = true;
    return r == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void WritePending() {
    while (written_ < pending_.size()) {
      const ssize_t n = write(in_fd_, pending_.data() + written_, pending_.size() - written_);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EAGAIN: the pipe is full; EPIPE: the server left
      written_ += static_cast<size_t>(n);
    }
    if (written_ == pending_.size()) {
      pending_.clear();
      written_ = 0;
    }
  }

  void ReadAnswers() {
    char buf[1 << 16];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) {
      eof_ = true;
      return;
    }
    const int64_t now = NowNs();
    size_t start = 0;
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      if (buf[i] != '\n') continue;
      if (partial_.empty()) {
        tracker_->OnLine(std::string_view(buf + start, i - start), now);
      } else {
        partial_.append(buf + start, i - start);
        tracker_->OnLine(partial_, now);
        partial_.clear();
      }
      start = i + 1;
    }
    partial_.append(buf + start, static_cast<size_t>(n) - start);
  }

  Tracker* tracker_;
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  int64_t spawn_ns_ = 0;
  bool exited_ = false;
  bool eof_ = false;
  std::string pending_;
  size_t written_ = 0;
  std::string partial_;
};

/// Runs one server with stdin and stdout redirected to files; returns its
/// wall seconds from process start to exit, or -1 when it failed.
double RunFileJob(const std::vector<std::string>& argv, const std::string& in_path,
                  const std::string& out_path, const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, in_path.c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int64_t start = NowNs();
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  pid_t r;
  do {
    r = waitpid(pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  const int64_t end = NowNs();
  return r == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0 ? Seconds(end - start)
                                                                  : -1;
}

/// Checks every line of an answers file through `t`.
bool FeedAnswers(const std::string& path, Tracker* t) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char* line = nullptr;
  size_t cap = 0;
  ssize_t n;
  while ((n = getline(&line, &cap, f)) > 0) {
    if (line[n - 1] == '\n') --n;
    t->OnLine(std::string_view(line, static_cast<size_t>(n)), 0);
  }
  std::free(line);
  std::fclose(f);
  return true;
}

/// Queues line `t.sent()` of the stream, due at `due`, sent now.
void SendLine(Conn& conn, Tracker& t, const Stream& stream, int64_t due,
              int64_t now, std::string* buf) {
  buf->clear();
  stream.AppendLine(t.sent(), buf);
  t.Record(due, now);
  conn.Send(*buf);
}

/// Ticks (USER_HZ) the hypervisor ran other guests while this VM's virtual
/// CPUs were runnable, summed over CPUs: the `steal` column of /proc/stat.
uint64_t StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

/// Closed loop: keeps `window` lines in flight until `until_ns`. With
/// `steal`, also reads StealTicks at its start, every `slice_ns` after it,
/// and at its end.
void ClosedLoop(Conn& conn, Tracker& t, size_t window, int64_t until_ns,
                const Stream& stream, std::vector<uint64_t>* steal = nullptr,
                int64_t slice_ns = 0) {
  std::string buf;
  int64_t now = NowNs();
  int64_t next_slice = now;
  while (now < until_ns && t.sent() < t.capacity()) {
    if (steal != nullptr && now >= next_slice) {
      steal->push_back(StealTicks());
      next_slice += slice_ns;
    }
    while (t.in_flight() < window && t.sent() < t.capacity()) {
      SendLine(conn, t, stream, now, now, &buf);
    }
    if (!conn.Pump(steal != nullptr ? std::min(until_ns, next_slice) : until_ns)) break;
    now = NowNs();
  }
  if (steal != nullptr) steal->push_back(StealTicks());
}

/// A stretch of the measurement, with its two signals of outside
/// disturbance.
struct Window {
  uint64_t steal = 0;          ///< steal ticks during it
  double lag_p99 = 0.0;        ///< how late the open-loop sender ran, p99
  std::vector<double> values;  ///< its line latencies, or its throughput
};

struct Selection {
  std::vector<Window> kept;
  int total = 0;
  bool degraded = false;  ///< too few windows met the bounds
};

/// Keeps the windows within kLagBoundUs and kStealBound. When they hold
/// fewer than `min_values` values (the host was busy throughout), the
/// least-disturbed of the others (least steal, then least sender lag) make
/// up the count and the selection is flagged as degraded.
Selection SelectUndisturbed(std::vector<Window> windows, size_t min_values) {
  Selection result;
  result.total = static_cast<int>(windows.size());
  std::stable_sort(windows.begin(), windows.end(), [](const Window& a, const Window& b) {
    return a.steal != b.steal ? a.steal < b.steal : a.lag_p99 < b.lag_p99;
  });
  size_t values = 0;
  for (Window& w : windows) {
    const bool valid = w.lag_p99 <= kLagBoundUs && w.steal <= kStealBound;
    if (!valid && values >= min_values) break;
    if (!valid) result.degraded = true;
    values += w.values.size();
    result.kept.push_back(std::move(w));
  }
  return result;
}

/// Open loop at `rate` lines/s for `seconds`. Latency is timed from each
/// line's due time, and a failed line counts as infinitely late. The lines
/// are cut into windows of `window_lines`, appended to `*windows`; every
/// line's sender lag goes to `*lag_us`.
void FixedRate(Conn& conn, Tracker& t, double rate, double seconds,
               uint64_t window_lines, const Stream& stream,
               std::vector<Window>* windows, std::vector<double>* lag_us) {
  const uint64_t first = t.sent();
  const uint64_t total = std::min<uint64_t>(static_cast<uint64_t>(rate * seconds),
                                            t.capacity() - first);
  const double interval = 1e9 / rate;
  const int64_t t0 = NowNs() + 2000000;
  auto due = [&](uint64_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * interval);
  };
  std::string buf;
  uint64_t i = 0;
  std::vector<uint64_t> steal;
  while (i < total) {
    if (i % window_lines == 0 && steal.size() == i / window_lines) steal.push_back(StealTicks());
    const int64_t now = NowNs();
    while (i < total && due(i) <= now) SendLine(conn, t, stream, due(i++), now, &buf);
    if (!conn.Pump(i < total ? due(i) : now)) break;
  }
  steal.push_back(StealTicks());
  conn.WaitAnswered(30000000000LL);

  for (uint64_t w0 = first; w0 + window_lines <= first + i; w0 += window_lines) {
    std::vector<double> lat;
    std::vector<double> lag;
    for (uint64_t s = w0; s < w0 + window_lines; ++s) {
      lag.push_back(static_cast<double>(t.sent_at(s) - t.due(s)) / 1e3);
      lat.push_back(t.ok(s) ? static_cast<double>(t.recv(s) - t.due(s)) / 1e3
                            : std::numeric_limits<double>::infinity());
    }
    lag_us->insert(lag_us->end(), lag.begin(), lag.end());
    const size_t k = (w0 - first) / window_lines;
    const uint64_t stolen = k + 1 < steal.size() ? steal[k + 1] - steal[k] : 0;
    windows->push_back({stolen, Percentile(lag, 0.99), std::move(lat)});
  }
}

double CpuUs(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

int RunDrive(const std::map<std::string, std::string>& flags) {
  signal(SIGPIPE, SIG_IGN);
  // Wake the open-loop sender on time, not up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const std::string workload = FlagStr(flags, "workload", "mix");
  WorldArgs world;
  world.snapshot_path = FlagStr(flags, "snapshot", "");
  world.seed = static_cast<uint64_t>(FlagNum(flags, "world-seed", 0));
  world.small = FlagNum(flags, "small", 0) != 0;
  const std::string serve = FlagStr(flags, "serve", "");
  const std::string work_dir = FlagStr(flags, "work-dir", ".");
  const std::string log = work_dir + "/serve.log";
  const double seconds = FlagNum(flags, "seconds", 10);
  const double rate = FlagNum(flags, "rate", 1000);
  const size_t window = static_cast<size_t>(FlagNum(flags, "window", 16));
  const int probes = static_cast<int>(FlagNum(flags, "probes", 5));
  const int jobs = static_cast<int>(FlagNum(flags, "jobs", 3));
  const size_t job_lines = static_cast<size_t>(FlagNum(flags, "job-lines", 1000));
  const uint64_t window_lines =
      static_cast<uint64_t>(FlagNum(flags, "window-lines", 2000));
  const bool corrupt_one = FlagNum(flags, "corrupt-one", 0) != 0;
  const int servers = std::max(1, static_cast<int>(FlagNum(flags, "servers", 4)));

  auto spec = StreamSpecFor(workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "drive: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto built = Stream::Build(spec.value(), world,
                             static_cast<uint64_t>(FlagNum(flags, "traffic-seed", 1)),
                             static_cast<size_t>(FlagNum(flags, "pool", 4096)));
  if (!built.ok()) {
    std::fprintf(stderr, "drive: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const Stream& stream = *built.value();
  const std::vector<std::string> argv = {
      serve, world.small ? "--small" : "--paper",
      "--seed=" + std::to_string(world.seed),
      "--snapshot-in=" + world.snapshot_path};

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool generation_ok = true;
  bool clean_exit = true;
  auto account = [&](const Tracker& t) {
    attempted += t.SentOps();
    failed += t.FailedOps();
    generation_ok = generation_ok && !t.generation_went_back();
  };

  // Cold start: process start to the first correct answer.
  std::vector<double> setup_s;
  for (int p = 0; p < probes; ++p) {
    Tracker t(stream, 1);
    Conn conn(argv, log, &t);
    if (!conn.started()) return 1;
    std::string line;
    SendLine(conn, t, stream, conn.spawn_ns(), conn.spawn_ns(), &line);
    conn.WaitAnswered(60000000000LL);
    if (t.ok(0)) setup_s.push_back(Seconds(t.recv(0) - conn.spawn_ns()));
    struct rusage ru;
    clean_exit = conn.Finish(&ru) && clean_exit;
    account(t);
  }

  // Job: a fixed number of lines from a file through a fresh server, its
  // answers to a file (`culinary_serve < requests > answers`); this process
  // stays idle until the server exits, then checks every answer. The jobs
  // are spread over the main phase, after its servers.
  std::vector<double> job_s;
  const std::string job_in = work_dir + "/job_requests.jsonl";
  const std::string job_out = work_dir + "/job_answers.jsonl";
  {
    std::string buf;
    for (uint64_t s = 0; s < job_lines; ++s) stream.AppendLine(s, &buf);
    FILE* f = std::fopen(job_in.c_str(), "wb");
    if (f == nullptr || std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
  }
  auto run_job = [&] {
    Tracker t(stream, job_lines);
    for (uint64_t s = 0; s < job_lines; ++s) t.Record(0, 0);
    const double wall = RunFileJob(argv, job_in, job_out, log);
    clean_exit = wall > 0 && clean_exit;
    if (!FeedAnswers(job_out, &t)) clean_exit = false;
    const uint64_t failed_before = failed;
    account(t);
    if (wall > 0 && failed == failed_before) job_s.push_back(wall);
  };

  // Main phase, on `servers` fresh servers in turn: warm-up, saturation,
  // then fixed rate. Thread placement differs from process to process and
  // shifts a whole process's figures, so slices and windows are pooled over
  // several processes.
  constexpr double kWarmS = 0.25;
  constexpr double kSliceS = 0.25;
  const double sat_s = 0.4 * seconds / servers;
  const double fixed_s = std::max(0.5, (0.6 * seconds - servers * kWarmS) / servers);
  std::vector<Window> slices;
  std::vector<Window> windows;
  std::vector<double> lag_us;
  int jobs_run = 0;
  double rss_mb = 0.0;
  double cpu_us = 0.0;
  uint64_t main_ops = 0;
  for (int k = 0; k < servers; ++k) {
    Tracker main(stream, static_cast<size_t>(rate * fixed_s + 2 * window_lines +
                                             100000.0 * (kWarmS + sat_s) + 1024));
    Conn conn(argv, log, &main);
    if (!conn.started()) return 1;
    if (corrupt_one && k == 0) main.CorruptNextAnswer();
    ClosedLoop(conn, main, window, NowNs() + static_cast<int64_t>(kWarmS * 1e9), stream);
    const int64_t sat_start = NowNs();
    std::vector<uint64_t> steal;
    ClosedLoop(conn, main, window, sat_start + static_cast<int64_t>(sat_s * 1e9), stream,
               &steal, static_cast<int64_t>(kSliceS * 1e9));
    conn.WaitAnswered(30000000000LL);
    std::vector<double> ops(static_cast<size_t>(sat_s / kSliceS), 0.0);
    for (uint64_t s = 0; s < main.sent(); ++s) {
      if (!main.ok(s) || main.recv(s) < sat_start) continue;
      const size_t slice = static_cast<size_t>(Seconds(main.recv(s) - sat_start) / kSliceS);
      if (slice < ops.size()) ops[slice] += static_cast<double>(stream.OpsAt(s));
    }
    for (size_t j = 0; j < ops.size(); ++j) {
      const uint64_t stolen = j + 1 < steal.size() ? steal[j + 1] - steal[j] : 0;
      slices.push_back({stolen, 0.0, {ops[j] / kSliceS}});
    }
    FixedRate(conn, main, rate, fixed_s, window_lines, stream, &windows, &lag_us);
    struct rusage ru;
    clean_exit = conn.Finish(&ru) && clean_exit;
    account(main);
    rss_mb = std::max(rss_mb, static_cast<double>(ru.ru_maxrss) / 1024.0);
    cpu_us += CpuUs(ru);
    main_ops += main.SentOps();
    for (; jobs_run * servers < jobs * (k + 1); ++jobs_run) run_job();
  }
  const Selection throughput = SelectUndisturbed(std::move(slices), kMinSlices);
  std::vector<double> rps;
  for (const Window& w : throughput.kept) rps.push_back(w.values[0]);
  const Selection latency = SelectUndisturbed(std::move(windows), kMinLatencySamples);
  std::vector<double> latency_us;
  std::vector<double> window_p99_us;
  for (const Window& w : latency.kept) {
    latency_us.insert(latency_us.end(), w.values.begin(), w.values.end());
    window_p99_us.push_back(Percentile(w.values, 0.99));
  }

  JsonObject out;
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("generation_ok", generation_ok ? 1 : 0);
  out.Num("clean_exit", clean_exit ? 1 : 0);
  out.Num("throughput_rps", Median(rps));
  out.Num("throughput_slices", static_cast<double>(rps.size()));
  out.Num("throughput_slices_total", throughput.total);
  // p50 pools every sample of the valid windows. p99 is the median of the
  // per-window p99s: a VM stall the steal counter missed lands in one or two
  // windows and would set a pooled p99 alone, while a tail regression of
  // the program shows in most windows. The pooled p99 is printed beside it.
  out.Num("latency_p50_us", Percentile(latency_us, 0.50));
  out.Num("latency_p99_us", Median(window_p99_us));
  out.Num("latency_p99_us.pooled", Percentile(latency_us, 0.99));
  out.Num("latency_count", static_cast<double>(latency_us.size()));
  out.Num("windows_used", static_cast<double>(latency.kept.size()));
  out.Num("windows_total", latency.total);
  out.Num("windows_degraded", latency.degraded || throughput.degraded ? 1 : 0);
  out.Num("send_lag_p99_us", Percentile(lag_us, 0.99));
  out.Num("setup_s", Median(setup_s));
  out.Num("setup_count", static_cast<double>(setup_s.size()));
  out.Num("job_s", Percentile(job_s, kQuietQuantile));
  out.Num("job_s.median", Median(job_s));
  out.Num("job_count", static_cast<double>(job_s.size()));
  out.Num("rss_mb", rss_mb);
  out.Num("cpu_us_per_op", main_ops > 0 ? cpu_us / static_cast<double>(main_ops) : 0.0);
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace perfbench
