// Tests of the benchmark's output checks: each real workload passes them,
// and each check fires on its injected fault — a problem that misreports
// fitness, a corrupted checkpoint file, a rank that throws, and (tiling
// self-check of the traced run) a rank that spends untraced time.
//
//   pga_perfbench_checks [scratch-dir]     (exit code 0 = all passed)

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fold.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool any_contains(const std::vector<std::string>& errors,
                  const std::string& needle) {
  for (const auto& e : errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

/// OneMax that scores one extra point whenever bit 0 is set.
class MisreportingOneMax final : public pga::Problem<pga::BitString> {
 public:
  [[nodiscard]] double fitness(const pga::BitString& g) const override {
    return static_cast<double>(g.count_ones() + g[0]);
  }
  [[nodiscard]] std::string name() const override { return "misreporting"; }
};

/// Throws on every call from the first thread that calls it; every other
/// thread gets an objective of 0, which meets the islands' target at once,
/// so the surviving ranks stop.
class ThrowOnFirstThread final : public pga::Problem<pga::RealVector> {
 public:
  [[nodiscard]] double fitness(const pga::RealVector&) const override {
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_ == std::thread::id{}) first_ = std::this_thread::get_id();
      first = first_ == std::this_thread::get_id();
    }
    if (first) throw std::runtime_error("injected rank failure");
    return 0.0;
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }

 private:
  mutable std::mutex mutex_;
  mutable std::thread::id first_{};
};

void flip_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x01));
}

/// Tiling self-check errors of a traced run of three "solves": in each, a
/// rank thread works for 50 ms inside its run span, then spends
/// `untraced_ms` outside any span before it ends.
std::vector<std::string> tiling_errors(int untraced_ms) {
  perfbench::Recorder rec;
  perfbench::TraceTotals totals;
  for (int solve = 0; solve < 3; ++solve) {
    const auto t0 = std::chrono::steady_clock::now();
    std::thread rank([&] {
      {
        perfbench::Scope root(&rec, perfbench::Layer::kRun);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(untraced_ms));
    });
    rank.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    totals.add(perfbench::fold(rec.drain(), wall), {}, wall);
  }
  totals.check_tiling();
  return totals.errors;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(dir);
  const int nproc = perfbench::allowed_cpus();

  for (const char* name : {"onemax_seq", "rastrigin_islands", "burn_async"}) {
    const int threads = perfbench::workload_threads(name, nproc);
    if (threads > nproc) {
      std::printf("SKIP: %s needs %d threads\n", name, threads);
      continue;
    }
    auto w = perfbench::make_workload(name, threads, nullptr, dir);
    const auto r = w->solve(7);
    expect(r.reached && r.errors.empty(),
           std::string(name) + ": a real solve reaches the target and passes "
                               "every check" +
               (r.errors.empty() ? "" : " (" + r.errors.front() + ")"));
  }

  {
    perfbench::OneMaxSeq w(std::make_unique<MisreportingOneMax>(), nullptr,
                           dir + "/misreport.ckpt");
    const auto r = w.solve(7);
    expect(any_contains(r.errors, "does not re-evaluate"),
           "misreported fitness fails the re-evaluation check");
  }

  {
    const std::string path = dir + "/corrupt.ckpt";
    pga::Rng rng(3);
    auto pop = pga::Population<pga::BitString>::random(
        8, [](pga::Rng& r) { return pga::BitString::random(64, r); }, rng);
    (void)pop.evaluate_all(pga::problems::OneMax(64));
    pga::save_checkpoint(pop, path);
    expect(perfbench::verify_checkpoint(path, pop.members()).empty(),
           "an intact checkpoint verifies");
    const auto size = static_cast<std::streamoff>(std::filesystem::file_size(path));
    flip_byte(path, size / 2);
    expect(!perfbench::verify_checkpoint(path, pop.members()).empty(),
           "a checkpoint with one flipped byte fails verification");
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(size - 3));
    expect(!perfbench::verify_checkpoint(path, pop.members()).empty(),
           "a truncated checkpoint fails verification");
  }

  if (perfbench::RastriginIslands::kRanks <= nproc) {
    perfbench::RastriginIslands w(std::make_unique<ThrowOnFirstThread>(),
                                  nullptr);
    const auto r = w.solve(7);
    expect(any_contains(r.errors, "did not complete: injected rank failure"),
           "a rank that throws fails the rank check");
  }

  expect(tiling_errors(0).empty(),
         "a rank traced throughout its life passes the tiling check");
  expect(any_contains(tiling_errors(20), "unattributed"),
         "a rank that spends untraced time fails the tiling check");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
