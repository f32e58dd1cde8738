// pga_perfbench: end-to-end benchmark of pgalib on three workloads.
//
//   pga_perfbench --workload <onemax_seq|rastrigin_islands|burn_async>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--scratch <dir>] [--commit <id>]
//
// A run builds the workload, runs an untimed warm-up, then solves from seeds
// derived from --seed until --seconds have elapsed.  Before each solve it
// times one set-up: building a fresh workload and its first population.
// Every solve passes the output checks in workloads.hpp.  With --trace 0 the
// last stdout line holds the end-to-end metrics; with --trace 1 the run goes
// through the span-recording decorators and the last line holds the
// per-layer metrics, the traced run's own end-to-end numbers and the result
// of the tiling self-check.  Exit code 0 means every check passed.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fold.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::median;
using perfbench::process_cpu_s;
using perfbench::quantile;

/// setup_s is a low quantile of the set-ups of a run: a set-up starts
/// threads, and the few a host hiccup lands on say nothing about the program.
constexpr double kSetupQuantile = 0.25;
/// The quantile of a run's seconds per offspring (over its segments: a solve,
/// or a stretch of a long one) that stands for the program's speed.  On a
/// shared host the neighbours take a CPU's cycles, cache or clock in bursts
/// of a fraction of a second to seconds, and never give any back.  A segment
/// on one thread sees a burst whole: its run splits into quick and slow
/// segments, how much of the run the slow ones take varies from run to run
/// and moves the median (onemax_seq solve times by a quarter on a 4-vCPU x86
/// VM), while the quick end holds.  A segment spread over several CPUs
/// averages their bursts, the extremes are then chance coincidences, and the
/// median is steadier (on rastrigin_islands in two of three sets of six
/// 30 s runs).  A change to the program moves either with the rest.
double speed_quantile(int threads) { return threads == 1 ? 0.05 : 0.5; }
constexpr double kWarmupSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench/tmp";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pga_perfbench: %s\nusage: pga_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--commit <id>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--scratch") a.scratch = val;
      else if (key == "--commit") a.commit = val;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Solve k of a run: seeds are a pure function of (--seed, k), so two runs
/// with the same --seed replay the same trajectories.
std::uint64_t solve_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + k;
  return pga::splitmix64(s);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident memory of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

/// Everything measured so far; shared with the hang watchdog.
struct Results {
  std::mutex mutex;
  std::vector<double> setup_s;
  std::vector<double> solve_wall;
  std::vector<double> offspring;  ///< per solve, counted from the workload
  std::vector<double> wall_per_off;  ///< per segment: wall s / offspring
  std::vector<double> cpu_per_off;   ///< per segment: CPU s / offspring
  std::vector<double> gens;
  std::uint64_t failed = 0;
  bool correct = true;
  perfbench::TraceTotals totals;
};

/// Prints the metrics table and, as the last stdout line, the JSON result.
/// `hung` counts a solve that never returned as attempted and failed.
/// A solve's cost splits into its work (offspring to the target: the median
/// over the run's solves, which a pure speed change leaves alone) and its
/// speed (seconds per offspring over the run's segments, at speed_quantile).
void report(Results& res, const Args& args, int threads, bool hung) {
  const auto& wall = res.solve_wall;
  const double run_wall = std::accumulate(wall.begin(), wall.end(), 0.0);
  const double work = median(res.offspring);
  const double q = speed_quantile(threads);
  const double s_per_off = quantile(res.wall_per_off, q);
  const std::vector<Metric> e2e = {
      {"offspring_per_s", 1.0 / s_per_off, "1/s"},
      {"solve_s", work * s_per_off, "s"},
      {"cpu_s_per_solve", work * quantile(res.cpu_per_off, q), "s"},
      {"setup_s", quantile(res.setup_s, kSetupQuantile), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::vector<Metric> out;
  if (!args.trace) {
    out = e2e;
  } else {
    res.totals.check_tiling();
    for (const auto& m : e2e) out.push_back({"trace." + m.name, m.value, m.unit});
    for (auto& m : res.totals.metrics(wall.size(), median(res.gens), threads))
      out.push_back(m);
    for (const auto& e : res.totals.errors) {
      res.correct = false;
      std::printf("TILING CHECK FAILED: %s\n", e.c_str());
    }
  }
  const std::size_t attempted = wall.size() + (hung ? 1 : 0);
  const std::uint64_t failed = res.failed + (hung ? 1 : 0);

  std::printf("%s: %zu solves (%llu failed) in %.3f s, %d threads\n",
              args.workload.c_str(), attempted,
              static_cast<unsigned long long>(failed), run_wall, threads);
  for (const auto& m : out)
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  // How far the host spread the run: wall seconds per offspring at the 5th,
  // 50th and 90th percentile of the segments, and the plain solve times.
  std::printf("  %zu segments, %.0f offspring per solve; s/offspring q05 %.4g "
              "q50 %.4g q90 %.4g; solve wall s q50 %.4g q90 %.4g\n",
              res.wall_per_off.size(), work, quantile(res.wall_per_off, 0.05),
              quantile(res.wall_per_off, 0.5), quantile(res.wall_per_off, 0.9),
              quantile(wall, 0.5), quantile(wall, 0.9));

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Turns a solve that never returns into a reported failure.  The engines
/// have no cancellation, so a hung solve (for instance a lost pool wakeup
/// leaving run_async_steady_state waiting on a batch no lane picked up)
/// cannot be abandoned in-process: after kSolveDeadline the watchdog reports
/// the completed solves plus the hung one as attempted and failed, and ends
/// the process.
class Watchdog {
 public:
  Watchdog(Results& res, const Args& args, int threads)
      : res_(res), args_(args), threads_(threads), thread_([this] { loop(); }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Marks the start (timed = whether it counts in the results) and the end
  /// of a solve.
  void begin(bool timed) {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = std::chrono::steady_clock::now();
    in_solve_ = true;
    timed_ = timed;
  }
  void end() {
    std::lock_guard<std::mutex> lock(mutex_);
    in_solve_ = false;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!done_) {
      cv_.wait_for(lock, std::chrono::milliseconds(200));
      if (done_ || !in_solve_ ||
          std::chrono::steady_clock::now() - started_ < kSolveDeadline)
        continue;
      std::printf("SOLVE HUNG: no return after %lld s; counted as failed\n",
                  static_cast<long long>(kSolveDeadline.count()));
      std::lock_guard<std::mutex> results(res_.mutex);
      if (!timed_ || res_.solve_wall.empty()) {
        std::fflush(stdout);
        std::_Exit(4);  // nothing measured to report
      }
      report(res_, args_, threads_, /*hung=*/true);
      std::_Exit(res_.correct ? 0 : 1);
    }
  }

  static constexpr std::chrono::seconds kSolveDeadline{20};

  Results& res_;
  const Args& args_;
  int threads_;
  std::mutex mutex_;  // guards the fields below
  std::condition_variable cv_;
  bool done_ = false;
  bool in_solve_ = false;
  bool timed_ = false;
  std::chrono::steady_clock::time_point started_{};
  std::thread thread_;  // last: starts after the state it reads exists
};

int run_benchmark(const Args& args) {
  const int nproc = perfbench::allowed_cpus();
  int threads = 0;
  try {
    threads = perfbench::workload_threads(args.workload, nproc);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  // Oversubscription guard: a row measured with more threads than CPUs
  // measures time-slicing, not the program.
  if (threads > nproc) {
    std::fprintf(stderr,
                 "pga_perfbench: refusing %s: it runs %d threads but only %d "
                 "CPUs are available\n",
                 args.workload.c_str(), threads, nproc);
    return 3;
  }
  std::filesystem::create_directories(args.scratch);

  std::printf(
      "provenance: {\"commit\": \"%s\", \"compiler\": \"%s %s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"pga_native\": \"%s\", "
      "\"nproc\": %d, \"workload\": \"%s\", \"threads\": %d}\n",
      json_escape(args.commit).c_str(), PERFBENCH_COMPILER_ID, __VERSION__,
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      PERFBENCH_PGA_NATIVE, nproc, args.workload.c_str(), threads);

  std::unique_ptr<perfbench::Recorder> rec;
  if (args.trace) rec = std::make_unique<perfbench::Recorder>();
  Results res;

  auto work = perfbench::make_workload(args.workload, threads, rec.get(),
                                      args.scratch);
  auto report_errors = [&](const perfbench::SolveResult& r, std::uint64_t k) {
    for (const auto& e : r.errors) {
      res.correct = false;
      std::printf("CHECK FAILED (solve %llu): %s\n",
                  static_cast<unsigned long long>(k), e.c_str());
    }
  };

  Watchdog watchdog(res, args, threads);
  // Untimed warm-up: the first fraction of a second of a process runs slower
  // (page faults, frequency ramp, cold caches and branch predictors).
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k == 0 || seconds_since(t0) < kWarmupSeconds;
         ++k) {
      watchdog.begin(/*timed=*/false);
      const auto r = work->solve(solve_seed(args.seed, (1ull << 40) + k));
      watchdog.end();
      std::lock_guard<std::mutex> lock(res.mutex);
      report_errors(r, k);
    }
    if (rec) rec->recycle(rec->drain());
  }

  // One timed set-up before each timed solve, so that set-up time is sampled
  // over the whole run like the solves, from a warm process: build a fresh
  // workload (problem, operators, scheme factory, pool or cluster) and run
  // its first population.  The solves run on `work`.
  auto time_setup = [&](std::uint64_t k) {
    watchdog.begin(/*timed=*/true);
    const auto t0 = std::chrono::steady_clock::now();
    auto fresh = perfbench::make_workload(args.workload, threads, rec.get(),
                                          args.scratch);
    fresh->first_population(solve_seed(args.seed, (2ull << 40) + k));
    const double s = seconds_since(t0);
    fresh.reset();
    watchdog.end();
    if (rec) rec->recycle(rec->drain());
    std::lock_guard<std::mutex> lock(res.mutex);
    res.setup_s.push_back(s);
  };

  const auto run_t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k == 0 || seconds_since(run_t0) < args.seconds;
       ++k) {
    time_setup(k);
    watchdog.begin(/*timed=*/true);
    const double cpu0 = process_cpu_s();
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = work->solve(solve_seed(args.seed, k));
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    watchdog.end();
    std::lock_guard<std::mutex> lock(res.mutex);
    res.solve_wall.push_back(wall);
    res.offspring.push_back(static_cast<double>(r.offspring));
    using Segments = std::vector<perfbench::Segment>;
    const auto segments =
        r.segments.empty() ? Segments{{wall, cpu, r.offspring}} : r.segments;
    for (const auto& g : segments) {
      if (g.offspring == 0) continue;
      res.wall_per_off.push_back(g.wall_s / static_cast<double>(g.offspring));
      res.cpu_per_off.push_back(g.cpu_s / static_cast<double>(g.offspring));
    }
    res.gens.push_back(static_cast<double>(r.generations));
    if (!r.reached) ++res.failed;
    report_errors(r, k);
    if (rec) {
      auto buffers = rec->drain();
      res.totals.add(perfbench::fold(buffers, wall), r, wall);
      rec->recycle(std::move(buffers));
    }
  }
  std::lock_guard<std::mutex> lock(res.mutex);
  report(res, args, threads, /*hung=*/false);
  return res.correct ? 0 : 1;
}

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pga_perfbench: %s\n", e.what());
    return 1;
  }
}
