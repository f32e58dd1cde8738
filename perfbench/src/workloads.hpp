#pragma once
// The three benchmark workloads and the output checks every solve passes.
//
// One solve is one engine run, from building its population to reaching the
// workload's target quality (or its generation cap, which counts as a failed
// operation).  Runs never stop on an evaluation budget: under the default
// kAuto route the evaluation count is wall-clock adaptive, so an evaluation
// cap would make trajectories depend on timing.
//
//   onemax_seq         variation-bound, 1 lane: run/GenerationalScheme with
//                      save_checkpoint every 50 generations and a
//                      load_checkpoint comparison at the end of each solve
//   rastrigin_islands  evaluation + variation + message passing: 4 demes as
//                      4 InprocCluster rank threads running run_island_rank
//                      with asynchronous migration
//   burn_async         evaluation/exec-bound: run_async_steady_state on a
//                      ThreadPool, objective = Sphere plus a lognormal CPU burn

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/inproc.hpp"
#include "core/async_steady_state.hpp"
#include "core/checkpoint.hpp"
#include "core/evolution.hpp"
#include "exec/parallelism.hpp"
#include "exec/thread_pool.hpp"
#include "parallel/distributed_island.hpp"
#include "problems/binary.hpp"
#include "problems/functions.hpp"
#include "spans.hpp"
#include "traced.hpp"

namespace perfbench {

/// A stretch of a solve, timed on its own: the benchmark's speed sample.
struct Segment {
  double wall_s = 0;
  double cpu_s = 0;             ///< process CPU, all threads
  std::uint64_t offspring = 0;  ///< created in the stretch
};

[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Cuts a solve into consecutive segments: each lap() ends the segment that
/// began at the previous lap (or at construction).
class Laps {
 public:
  Segment lap(std::uint64_t offspring) {
    const auto wall = std::chrono::steady_clock::now();
    const double cpu = process_cpu_s();
    Segment s{std::chrono::duration<double>(wall - wall_).count(), cpu - cpu_,
              offspring};
    wall_ = wall;
    cpu_ = cpu;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point wall_ = std::chrono::steady_clock::now();
  double cpu_ = process_cpu_s();
};

/// What one solve reports back to the benchmark loop.
struct SolveResult {
  bool reached = false;                 ///< target met within the cap
  std::uint64_t offspring = 0;          ///< counted from the workload definition
  std::uint64_t engine_evaluations = 0; ///< as reported by the engine
  std::uint64_t generations = 0;        ///< solver iterations to the solution
  std::vector<std::string> errors;      ///< output-check failures
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_mismatches = 0;
  pga::exec::PoolStats pool{};          ///< pool counter delta over the solve
  /// Consecutive stretches tiling the solve, for a solve long enough to be
  /// sampled more finely than whole; empty: the solve is one segment.
  std::vector<Segment> segments;
};

// ---------------------------------------------------------------------------
// Output checks (shared with checks_test.cpp)
// ---------------------------------------------------------------------------

/// The reported best genome, re-evaluated with a fresh problem's scalar
/// fitness, must equal the reported fitness bit for bit and meet the target.
/// Returns the failure, or an empty string.
template <class G>
[[nodiscard]] std::string check_best(const pga::Problem<G>& fresh,
                                     const pga::Individual<G>& best,
                                     double target) {
  const double f = fresh.fitness(best.genome);
  if (std::memcmp(&f, &best.fitness, sizeof f) != 0)
    return "best fitness " + std::to_string(best.fitness) +
           " does not re-evaluate (fresh scalar fitness " + std::to_string(f) +
           ")";
  if (!(f >= target))
    return "best fitness " + std::to_string(f) + " misses the target " +
           std::to_string(target);
  return {};
}

/// Loads the checkpoint at `path` and compares it with the population that
/// was saved there: genomes, fitness bit patterns and evaluated flags.
/// Returns the failure, or an empty string.
template <class G>
[[nodiscard]] std::string verify_checkpoint(
    const std::string& path, const std::vector<pga::Individual<G>>& saved) {
  pga::Population<G> loaded;
  try {
    loaded = pga::load_checkpoint<G>(path);
  } catch (const std::exception& e) {
    return std::string("checkpoint does not load: ") + e.what();
  }
  if (loaded.size() != saved.size())
    return "checkpoint holds " + std::to_string(loaded.size()) +
           " individuals, saved " + std::to_string(saved.size());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    const auto& a = loaded[i];
    const auto& b = saved[i];
    if (!(a.genome == b.genome) || a.evaluated != b.evaluated ||
        std::memcmp(&a.fitness, &b.fitness, sizeof a.fitness) != 0)
      return "checkpoint individual " + std::to_string(i) +
             " differs from the saved population";
  }
  return {};
}

/// Every rank of a cluster run must have completed without an error.
[[nodiscard]] inline std::vector<std::string> check_ranks(
    const std::vector<pga::comm::InprocCluster::RankReport>& reports) {
  std::vector<std::string> errors;
  for (std::size_t r = 0; r < reports.size(); ++r)
    if (!reports[r].completed || !reports[r].error.empty())
      errors.push_back("rank " + std::to_string(r) + " did not complete: " +
                       (reports[r].error.empty() ? std::string("no report")
                                                 : reports[r].error));
  return errors;
}

/// The engine must report at least the offspring the benchmark counted.
[[nodiscard]] inline std::string check_evaluations(const SolveResult& r) {
  if (r.engine_evaluations >= r.offspring) return {};
  return "engine reported " + std::to_string(r.engine_evaluations) +
         " evaluations for " + std::to_string(r.offspring) + " offspring";
}

// ---------------------------------------------------------------------------
// Problems and operators
// ---------------------------------------------------------------------------

/// Sphere plus a CPU burn: dependent floating-point work whose length is a
/// lognormal draw (sigma 1) hashed from the genome bits, so costs vary from
/// offspring to offspring like a simulator's service times while the
/// objective stays a pure function of the genome.  The cost is burned, never
/// slept, so timings measure the program rather than scheduler wake-ups.
/// No SoA kernel: the burn must dominate, not packing.
class BurnSphere final : public pga::Problem<pga::RealVector> {
 public:
  /// Mean burn length in chain iterations (about 20 us on a ~3 GHz x86 core:
  /// each iteration is one dependent multiply and add).
  static constexpr double kMeanIters = 7000.0;
  static constexpr double kSigma = 1.0;

  explicit BurnSphere(std::size_t dim) : bounds_(dim, -5.12, 5.12) {}

  [[nodiscard]] const pga::Bounds& bounds() const noexcept { return bounds_; }

  [[nodiscard]] static std::uint64_t burn_iters(const pga::RealVector& x) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (double v : x.values) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      h = mix(h ^ bits);
    }
    const double u1 = unit(mix(h));
    const double u2 = unit(mix(h + 0x9e3779b97f4a7c15ull));
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double mu = std::log(kMeanIters) - 0.5 * kSigma * kSigma;
    return static_cast<std::uint64_t>(
        std::min(std::exp(mu + kSigma * z), 40.0 * kMeanIters));
  }

  [[nodiscard]] double fitness(const pga::RealVector& x) const override {
    double a = 1.0;
    for (std::uint64_t i = burn_iters(x); i > 0; --i) a = a * 0.999999 + 1e-7;
    asm volatile("" : : "r,m"(a) : "memory");  // keep the unused burn
    double s = 0.0;
    for (double v : x.values) s += v * v;
    return -s;
  }
  [[nodiscard]] std::string name() const override { return "burn-sphere"; }

 private:
  static std::uint64_t mix(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  static double unit(std::uint64_t v) noexcept {
    return (static_cast<double>(v >> 11) + 1.0) * 0x1p-53;
  }

  pga::Bounds bounds_;
};

/// SBX + polynomial mutation, tournament-2, crossover rate 0.9.
[[nodiscard]] inline pga::Operators<pga::RealVector> real_operators(
    const pga::Bounds& bounds) {
  pga::Operators<pga::RealVector> ops;
  ops.select = pga::selection::tournament(2);
  ops.cross = pga::crossover::sbx(bounds);
  ops.cross_in_place = pga::crossover::sbx_in_place(bounds);
  ops.mutate = pga::mutation::polynomial(bounds);
  ops.crossover_rate = 0.9;
  return ops;
}

template <class G>
[[nodiscard]] pga::Operators<G> maybe_traced(pga::Operators<G> ops,
                                             Recorder* rec) {
  return rec ? traced_operators(std::move(ops), *rec) : ops;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;  // engines and ranks hold its address
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// One solve from the given seed.  Throws only on a benchmark bug; output
  /// problems are reported in SolveResult::errors.
  [[nodiscard]] virtual SolveResult solve(std::uint64_t seed) = 0;
  /// The set-up part of a solve: a zero-generation engine run, which builds
  /// and evaluates the first population (the kAuto calibration included)
  /// and, for islands, starts and joins the rank threads.
  virtual void first_population(std::uint64_t seed) = 0;
};

/// Problem the engine sees: the workload's own, or its traced wrapper.
template <class G>
class EngineProblem {
 public:
  EngineProblem(std::unique_ptr<pga::Problem<G>> problem, Recorder* rec)
      : problem_(std::move(problem)) {
    if (rec) traced_ = std::make_unique<TracedProblem<G>>(*problem_, *rec);
  }
  [[nodiscard]] const pga::Problem<G>& get() const {
    return traced_ ? static_cast<const pga::Problem<G>&>(*traced_) : *problem_;
  }

 private:
  std::unique_ptr<pga::Problem<G>> problem_;
  std::unique_ptr<TracedProblem<G>> traced_;
};

class OneMaxSeq final : public Workload {
 public:
  static constexpr std::size_t kBits = 1024;
  static constexpr std::size_t kPop = 256;
  static constexpr std::size_t kElitism = 1;
  static constexpr std::size_t kCheckpointEvery = 50;
  static constexpr std::size_t kMaxGenerations = 3000;

  OneMaxSeq(std::unique_ptr<pga::Problem<pga::BitString>> problem,
            Recorder* rec, std::string checkpoint_path)
      : rec_(rec),
        problem_(std::move(problem), rec),
        ops_(maybe_traced(bit_operators(), rec)),
        path_(std::move(checkpoint_path)) {}

  [[nodiscard]] SolveResult solve(std::uint64_t seed) override {
    SolveResult out;
    Laps laps;
    std::vector<pga::Individual<pga::BitString>> saved;
    {
      Scope root(rec_, Layer::kRun);
      pga::Rng rng(seed);
      auto pop = random_population(rng);
      std::unique_ptr<pga::EvolutionScheme<pga::BitString>> scheme =
          std::make_unique<pga::GenerationalScheme<pga::BitString>>(ops_,
                                                                    kElitism);
      if (rec_)
        scheme = std::make_unique<TracedScheme<pga::BitString>>(
            std::move(scheme), *rec_);
      pga::StopCondition stop;
      stop.target_fitness = static_cast<double>(kBits);
      stop.target_tolerance = 0.0;
      // Checkpoint cadence: run() in 50-generation legs continues the exact
      // trajectory (same scheme, population and RNG), saving between legs.
      pga::RunResult<pga::BitString> leg;
      while (!out.reached && out.generations < kMaxGenerations) {
        stop.max_generations =
            std::min(kCheckpointEvery, kMaxGenerations - out.generations);
        leg = pga::run(*scheme, pop, problem_.get(), stop, rng);
        out.generations += leg.generations;
        out.engine_evaluations += leg.evaluations;
        out.reached = leg.reached_target;
        if (!out.reached && out.generations % kCheckpointEvery == 0)
          save(pop, saved, out);
        // One segment per leg and the save after it; the first also holds
        // the initial population, the last the final save and the load.
        out.segments.push_back(laps.lap(leg.generations * (kPop - kElitism)));
      }
      if (saved.empty()) save(pop, saved, out);
      {
        Scope load(rec_, Layer::kCheckpointLoad);
        if (auto e = verify_checkpoint(path_, saved); !e.empty()) {
          ++out.checkpoint_mismatches;
          out.errors.push_back(e);
        }
      }
      out.offspring = out.generations * (kPop - kElitism);
      if (out.reached) {
        const pga::problems::OneMax fresh(kBits);
        if (auto e = check_best(fresh, leg.best, *stop.target_fitness);
            !e.empty())
          out.errors.push_back(e);
      }
    }
    if (auto e = check_evaluations(out); !e.empty()) out.errors.push_back(e);
    const Segment rest = laps.lap(0);
    out.segments.back().wall_s += rest.wall_s;
    out.segments.back().cpu_s += rest.cpu_s;
    return out;
  }

  void first_population(std::uint64_t seed) override {
    pga::Rng rng(seed);
    auto pop = random_population(rng);
    pga::GenerationalScheme<pga::BitString> scheme(ops_, kElitism);
    pga::StopCondition stop;
    stop.max_generations = 0;
    (void)pga::run(scheme, pop, problem_.get(), stop, rng);
  }

 private:
  static pga::Population<pga::BitString> random_population(pga::Rng& rng) {
    return pga::Population<pga::BitString>::random(
        kPop, [](pga::Rng& r) { return pga::BitString::random(kBits, r); },
        rng);
  }

  static pga::Operators<pga::BitString> bit_operators() {
    pga::Operators<pga::BitString> ops;
    ops.select = pga::selection::tournament(2);
    ops.cross = pga::crossover::two_point<pga::BitString>();
    ops.cross_in_place = pga::crossover::two_point_in_place<pga::BitString>();
    ops.mutate = pga::mutation::bit_flip(1.0 / static_cast<double>(kBits));
    ops.crossover_rate = 0.9;
    return ops;
  }

  void save(const pga::Population<pga::BitString>& pop,
            std::vector<pga::Individual<pga::BitString>>& saved,
            SolveResult& out) {
    Scope s(rec_, Layer::kCheckpointSave);
    pga::save_checkpoint(pop, path_);
    saved = pop.members();
    out.checkpoint_bytes += std::filesystem::file_size(path_);
  }

  Recorder* rec_;
  EngineProblem<pga::BitString> problem_;
  pga::Operators<pga::BitString> ops_;
  std::string path_;
};

/// Number of CPUs the process may run on (at least 1).
[[nodiscard]] inline int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

class RastriginIslands final : public Workload {
 public:
  static constexpr int kRanks = 4;
  static constexpr std::size_t kDim = 32;
  static constexpr std::size_t kDeme = 64;
  static constexpr std::size_t kElitism = 1;
  static constexpr std::size_t kMaxGenerations = 6000;
  static constexpr double kTarget = -1.0;  ///< fitness = -objective

  RastriginIslands(std::unique_ptr<pga::Problem<pga::RealVector>> problem,
                   Recorder* rec)
      : rec_(rec),
        bounds_(kDim, -5.12, 5.12),
        problem_(std::move(problem), rec),
        ops_(maybe_traced(real_operators(bounds_), rec)),
        cluster_(kRanks) {
    cfg_.topology = pga::Topology::ring(kRanks);
    cfg_.policy.interval = 4;
    cfg_.policy.count = 2;
    cfg_.policy.selection = pga::MigrantSelection::kBest;
    cfg_.policy.replacement = pga::MigrantReplacement::kWorst;
    cfg_.stop.max_generations = kMaxGenerations;
    cfg_.stop.target_fitness = kTarget;
    cfg_.stop.target_tolerance = 0.0;
    cfg_.deme_size = kDeme;
    // Asynchronous migration: a rank integrates whatever migrants have
    // arrived and never waits.  With synchronous migration every rank waits
    // for its ring neighbour every 4 generations, so one CPU that the host
    // withholds, or two ranks the scheduler stacks on one CPU, stalls the
    // whole ring: on a 4-vCPU VM the same solves ran 1.3x to 3.5x parallel
    // from run to run.
    cfg_.async = true;
    cfg_.make_genome = [this](pga::Rng& r) {
      return pga::RealVector::random(bounds_, r);
    };
    cfg_.make_scheme = [this](int) {
      std::unique_ptr<pga::EvolutionScheme<pga::RealVector>> s =
          std::make_unique<pga::GenerationalScheme<pga::RealVector>>(ops_,
                                                                     kElitism);
      if (rec_)
        s = std::make_unique<TracedScheme<pga::RealVector>>(std::move(s),
                                                            *rec_);
      return s;
    };
  }

  [[nodiscard]] SolveResult solve(std::uint64_t seed) override {
    SolveResult out;
    std::vector<pga::DemeReport<pga::RealVector>> demes;
    out.errors = check_ranks(run_cluster(seed, kMaxGenerations, demes));
    // Solver iterations: the generation at which the first deme hit the
    // target (other demes run on for a few generations until the stop
    // message reaches them, which is timing-dependent).
    const pga::problems::Rastrigin fresh(kDim);
    const pga::Individual<pga::RealVector>* best = nullptr;
    for (const auto& d : demes) {
      out.engine_evaluations += d.evaluations;
      out.offspring += d.generations * (kDeme - kElitism);
      if (d.reached_target) {
        out.reached = true;
        if (out.generations == 0 || d.generations < out.generations)
          out.generations = d.generations;
      }
      if (!best || d.best.fitness > best->fitness) best = &d.best;
    }
    // Every deme's reported best must re-evaluate exactly; the best of them
    // must also meet the target.
    if (out.errors.empty())
      for (const auto& d : demes)
        if (auto e = check_best(fresh, d.best,
                                -std::numeric_limits<double>::infinity());
            !e.empty())
          out.errors.push_back(e);
    if (!out.reached) {
      out.generations = 0;
      for (const auto& d : demes)
        out.generations = std::max<std::uint64_t>(out.generations,
                                                  d.generations);
    } else if (out.errors.empty()) {
      if (auto e = check_best(fresh, *best, kTarget); !e.empty())
        out.errors.push_back(e);
    }
    if (auto e = check_evaluations(out); !e.empty()) out.errors.push_back(e);
    return out;
  }

  void first_population(std::uint64_t seed) override {
    std::vector<pga::DemeReport<pga::RealVector>> demes;
    (void)run_cluster(seed, 0, demes);
  }

 private:
  std::vector<pga::comm::InprocCluster::RankReport> run_cluster(
      std::uint64_t seed, std::size_t max_generations,
      std::vector<pga::DemeReport<pga::RealVector>>& demes) {
    auto cfg = cfg_;
    cfg.seed = seed;
    cfg.stop.max_generations = max_generations;
    demes.assign(kRanks, {});
    return cluster_.run([&](pga::comm::Transport& t) {
      auto& deme = demes[static_cast<std::size_t>(t.rank())];
      if (!rec_) {
        deme = pga::run_island_rank(t, problem_.get(), cfg);
        return;
      }
      Scope root(rec_, Layer::kRun);
      TracedTransport traced(t, *rec_);
      deme = pga::run_island_rank(traced, problem_.get(), cfg);
    });
  }

  Recorder* rec_;
  pga::Bounds bounds_;
  EngineProblem<pga::RealVector> problem_;
  pga::Operators<pga::RealVector> ops_;
  pga::comm::InprocCluster cluster_;
  pga::DistributedIslandConfig<pga::RealVector> cfg_;
};

class BurnAsync final : public Workload {
 public:
  static constexpr std::size_t kDim = 16;
  static constexpr std::size_t kPop = 64;
  static constexpr std::size_t kBatch = 4;
  static constexpr std::size_t kWindow = 8;
  static constexpr std::size_t kMaxGenerations = 2000;
  static constexpr double kTarget = -1e-2;  ///< fitness = -objective

  BurnAsync(std::unique_ptr<pga::Problem<pga::RealVector>> problem,
            Recorder* rec, std::size_t lanes)
      : rec_(rec),
        bounds_(kDim, -5.12, 5.12),
        problem_(std::move(problem), rec),
        pool_(lanes),
        par_(&pool_) {
    cfg_.ops = maybe_traced(real_operators(bounds_), rec);
    cfg_.stop.max_generations = kMaxGenerations;
    cfg_.stop.target_fitness = kTarget;
    cfg_.stop.target_tolerance = 0.0;
    cfg_.batch_size = kBatch;
    cfg_.max_in_flight = kWindow;
  }

  [[nodiscard]] SolveResult solve(std::uint64_t seed) override {
    SolveResult out;
    const pga::exec::PoolStats before = pool_.stats();
    pga::AsyncRunResult<pga::RealVector> r;
    {
      Scope root(rec_, Layer::kRun);
      r = run_engine(seed, kMaxGenerations);
    }
    out.pool = pool_.stats().delta(before);
    out.reached = r.reached_target;
    out.engine_evaluations = r.evaluations;
    out.generations = r.generations;
    for (const auto& op : r.schedule)
      if (op.kind == pga::AsyncOp::Kind::kComplete) out.offspring += op.count;
    if (out.reached) {
      const BurnSphere fresh(kDim);
      if (auto e = check_best(fresh, r.best, kTarget); !e.empty())
        out.errors.push_back(e);
    }
    if (auto e = check_evaluations(out); !e.empty()) out.errors.push_back(e);
    return out;
  }

  void first_population(std::uint64_t seed) override {
    (void)run_engine(seed, 0);
  }

 private:
  pga::AsyncRunResult<pga::RealVector> run_engine(
      std::uint64_t seed, std::size_t max_generations) {
    pga::Rng rng(seed);
    auto pop = pga::Population<pga::RealVector>::random(
        kPop, [this](pga::Rng& g) { return pga::RealVector::random(bounds_, g); },
        rng);
    auto cfg = cfg_;
    cfg.stop.max_generations = max_generations;
    return pga::run_async_steady_state(pop, problem_.get(), rng, par_, cfg);
  }

  Recorder* rec_;
  pga::Bounds bounds_;
  EngineProblem<pga::RealVector> problem_;
  pga::exec::ThreadPool pool_;
  pga::exec::Parallelism par_;
  pga::AsyncConfig<pga::RealVector> cfg_;
};

/// Threads a workload runs (lanes or ranks) on a host with `nproc` CPUs.
[[nodiscard]] inline int workload_threads(const std::string& name, int nproc) {
  if (name == "onemax_seq") return 1;
  if (name == "rastrigin_islands") return RastriginIslands::kRanks;
  if (name == "burn_async") return std::min(4, nproc);
  throw std::invalid_argument("unknown workload: " + name);
}

/// Builds a workload: its problem, operators, and its pool or cluster.
/// make_workload plus first_population is the timed set-up.
[[nodiscard]] inline std::unique_ptr<Workload> make_workload(
    const std::string& name, int threads, Recorder* rec,
    const std::string& scratch_dir) {
  if (name == "onemax_seq")
    return std::make_unique<OneMaxSeq>(
        std::make_unique<pga::problems::OneMax>(OneMaxSeq::kBits), rec,
        scratch_dir + "/onemax_seq.ckpt");
  if (name == "rastrigin_islands")
    return std::make_unique<RastriginIslands>(
        std::make_unique<pga::problems::Rastrigin>(RastriginIslands::kDim), rec);
  if (name == "burn_async")
    return std::make_unique<BurnAsync>(
        std::make_unique<BurnSphere>(BurnAsync::kDim), rec,
        static_cast<std::size_t>(threads));
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
