#pragma once
// Folds one solve's span buffers into per-layer totals and runs the tiling
// self-check.
//
// Self time of a span = its duration minus its children's durations.  Scalar
// fitness calls are all counted but, for problems with a SoA kernel, only one
// in kFitnessSample is timed; the untimed calls' time sits in the self time
// of the span that was open around them, and the fold moves the sampled
// estimate (untimed calls x mean timed call) from that span's layer to
// kFitness.
//
// Tiling: on every thread that recorded anything, the self times of its
// layer spans plus its waiting (comm.recv spans, idle time) must add up to
// its share of the solve's wall time.  Concretely:
//   * spans are closed and nested inside their parent, so self times of a
//     thread telescope exactly (in integer ns) to its top-level spans;
//   * attributed time never exceeds the solve's wall time (idle >= 0,
//     allowing kTilingSlack for the fitness estimate);
//   * every thread with a run span (the solving thread, or each island
//     rank's thread), which works throughout the solve, leaves at most
//     kTilingSlack of the solve's wall time unattributed, in the median
//     solve of a run (TraceTotals::check_tiling): a host hiccup that delays
//     one rank thread's start says nothing about the layers, a layer whose
//     time escapes the spans does so in every solve.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr double kTilingSlack = 0.02;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The p-quantile of v, interpolating between order statistics.
[[nodiscard]] inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One solve, folded.
struct SolveTrace {
  double self_s[kLayers] = {};
  Counters counters;              ///< summed over threads
  double step_incl_s = 0.0;       ///< inclusive step time, summed over roots
  std::size_t roots = 0;          ///< threads with a run span (ranks)
  double rank_imbalance = 1.0;    ///< max / mean of (root - recv wait)
  double unattributed = 0;        ///< max over run-span threads: idle / wall
  std::vector<std::string> errors;
};

[[nodiscard]] inline SolveTrace fold(
    const std::vector<std::unique_ptr<ThreadBuffer>>& buffers,
    double wall_s) {
  SolveTrace t;
  const double wall_ns = wall_s * 1e9;
  auto fail = [&](const std::string& e) {
    if (t.errors.size() < 8) t.errors.push_back(e);
  };

  // Mean timed scalar fitness call over the whole solve.
  double timed_ns = 0.0;
  std::uint64_t timed = 0;
  for (const auto& b : buffers)
    for (const Span& s : b->spans)
      if (s.layer == Layer::kFitness && s.end_ns >= 0) {
        timed_ns += static_cast<double>(s.end_ns - s.start_ns);
        ++timed;
      }
  const double fitness_ns = timed ? timed_ns / static_cast<double>(timed) : 0.0;

  std::vector<double> rank_busy;
  for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
    const ThreadBuffer& b = *buffers[bi];
    const std::string who = "thread " + std::to_string(bi);
    if (!b.open.empty()) fail(who + ": " + std::to_string(b.open.size()) +
                              " span(s) left open");
    std::vector<std::int64_t> child(b.spans.size(), 0);
    std::int64_t top_ns = 0, run_ns = 0;
    bool is_root = false;
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      if (s.end_ns < 0 || dur < 0) {
        fail(who + ": span " + std::to_string(i) + " not closed");
        continue;
      }
      if (s.parent < 0) {
        top_ns += dur;
        if (s.layer == Layer::kRun) {
          is_root = true;
          run_ns += dur;
        }
        continue;
      }
      const auto p = static_cast<std::size_t>(s.parent);
      if (p >= i || s.start_ns < b.spans[p].start_ns ||
          s.end_ns > b.spans[p].end_ns) {
        fail(who + ": span " + std::to_string(i) + " escapes its parent");
        continue;
      }
      child[p] += dur;
    }
    double self_ns[kLayers] = {};
    std::int64_t self_sum = 0, recv_ns = 0;
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      if (s.end_ns < 0) continue;
      const std::int64_t self = s.end_ns - s.start_ns - child[i];
      self_sum += self;
      self_ns[static_cast<std::size_t>(s.layer)] += static_cast<double>(self);
      if (s.layer == Layer::kStep)
        t.step_incl_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      if (s.layer == Layer::kRecv) recv_ns += self;
    }
    if (self_sum != top_ns)
      fail(who + ": self times sum to " + std::to_string(self_sum) +
           " ns, top-level spans to " + std::to_string(top_ns) + " ns");

    // Move the untimed fitness calls' estimated time out of the layers that
    // were open around them.  Calls outside any span (pool lanes) were idle
    // time until now.
    const Counters& c = b.counters;
    double attributed = static_cast<double>(self_sum);
    for (std::size_t l = 0; l <= kLayers; ++l) {
      const double est = static_cast<double>(c.untimed_fitness[l]) * fitness_ns;
      if (l < kLayers)
        self_ns[l] -= est;
      else
        attributed += est;
      self_ns[static_cast<std::size_t>(Layer::kFitness)] += est;
    }
    if (attributed > wall_ns * (1.0 + kTilingSlack))
      fail(who + ": attributes " + std::to_string(attributed * 1e-9) +
           " s of a " + std::to_string(wall_s) + " s solve");
    if (is_root) {
      t.unattributed =
          std::max(t.unattributed, std::max(0.0, 1.0 - attributed / wall_ns));
      ++t.roots;
      rank_busy.push_back(static_cast<double>(run_ns - recv_ns));
    }

    for (std::size_t l = 0; l < kLayers; ++l) t.self_s[l] += 1e-9 * self_ns[l];
    t.counters += c;
  }
  if (!rank_busy.empty()) {
    double sum = 0.0, max = 0.0;
    for (double v : rank_busy) {
      sum += v;
      max = std::max(max, v);
    }
    const double mean = sum / static_cast<double>(rank_busy.size());
    t.rank_imbalance = mean > 0.0 ? max / mean : 1.0;
  }
  return t;
}

/// Per-layer totals over every timed solve of a traced run.
struct TraceTotals {
  double self_s[kLayers] = {};
  Counters counters;
  double step_per_rank_s = 0, offspring = 0, evaluations = 0;
  double checkpoint_bytes = 0, checkpoint_mismatches = 0, lane_busy = 0;
  double tasks = 0, steals = 0, steal_failures = 0, parks = 0;
  std::vector<double> unattributed;
  std::vector<double> imbalance;
  std::vector<std::string> errors;

  void add(const SolveTrace& t, const SolveResult& r, double wall_s) {
    for (std::size_t l = 0; l < kLayers; ++l) self_s[l] += t.self_s[l];
    counters += t.counters;
    if (t.roots) step_per_rank_s += t.step_incl_s / static_cast<double>(t.roots);
    imbalance.push_back(t.rank_imbalance);
    unattributed.push_back(t.unattributed);
    offspring += static_cast<double>(r.offspring);
    evaluations += static_cast<double>(r.engine_evaluations);
    checkpoint_bytes += static_cast<double>(r.checkpoint_bytes);
    checkpoint_mismatches += static_cast<double>(r.checkpoint_mismatches);
    tasks += static_cast<double>(r.pool.tasks_executed);
    steals += static_cast<double>(r.pool.steals);
    steal_failures += static_cast<double>(r.pool.steal_failures);
    parks += static_cast<double>(r.pool.parks);
    lane_busy += (t.self_s[static_cast<std::size_t>(Layer::kFitness)] +
                  t.self_s[static_cast<std::size_t>(Layer::kFitnessSoa)]) /
                 wall_s;
    for (const auto& e : t.errors) errors.push_back(e);
  }

  /// Run-level part of the tiling self-check; adds its failure to errors.
  void check_tiling() {
    const double idle = median(unattributed);
    if (idle > kTilingSlack)
      errors.push_back("threads with a run span leave " +
                       std::to_string(100.0 * idle) +
                       "% of the median solve unattributed");
  }

  [[nodiscard]] std::vector<Metric> metrics(std::size_t solves,
                                            double gens_median,
                                            int threads) const {
    const double n = static_cast<double>(std::max<std::size_t>(solves, 1));
    auto L = [](Layer l) { return static_cast<std::size_t>(l); };
    auto per = [n](std::uint64_t c) { return static_cast<double>(c) / n; };
    const Counters& c = counters;
    const auto fitness_calls = static_cast<double>(c.fitness_seen);
    const auto soa_genomes = static_cast<double>(c.soa_genomes);
    const double evaluated = fitness_calls + soa_genomes;
    return {
        {"core.select.calls", per(c.calls[L(Layer::kSelect)]), "count/solve"},
        {"core.select.busy_s", self_s[L(Layer::kSelect)] / n, "s/solve"},
        {"core.crossover.calls", per(c.calls[L(Layer::kCrossover)]), "count/solve"},
        {"core.crossover.busy_s", self_s[L(Layer::kCrossover)] / n, "s/solve"},
        {"core.mutate.calls", per(c.calls[L(Layer::kMutate)]), "count/solve"},
        {"core.mutate.busy_s", self_s[L(Layer::kMutate)] / n, "s/solve"},
        {"core.engine.self_s", self_s[L(Layer::kStep)] / n, "s/solve"},
        {"core.run.self_s", self_s[L(Layer::kRun)] / n, "s/solve"},
        {"core.engine.gens_to_solve", gens_median, "count"},
        {"core.evaluate.batched_frac",
         evaluated > 0 ? soa_genomes / evaluated : 0.0, "frac"},
        {"core.evaluate.useful_frac",
         evaluations > 0 ? offspring / evaluations : 0.0, "frac"},
        {"problems.fitness.calls", per(c.fitness_seen), "count/solve"},
        {"problems.fitness.busy_s", self_s[L(Layer::kFitness)] / n, "s/solve"},
        {"problems.fitness_soa.genomes", per(c.soa_genomes), "count/solve"},
        {"problems.fitness_soa.busy_s", self_s[L(Layer::kFitnessSoa)] / n,
         "s/solve"},
        {"problems.bytes_read", per(c.bytes_read), "computed_B/solve"},
        {"core.checkpoint.writes", per(c.calls[L(Layer::kCheckpointSave)]),
         "count/solve"},
        {"core.checkpoint.bytes", checkpoint_bytes / n, "B/solve"},
        {"core.checkpoint.save_s", self_s[L(Layer::kCheckpointSave)] / n,
         "s/solve"},
        {"core.checkpoint.load_s", self_s[L(Layer::kCheckpointLoad)] / n,
         "s/solve"},
        {"core.checkpoint.mismatches", checkpoint_mismatches, "count"},
        {"comm.send.msgs", per(c.calls[L(Layer::kSend)]), "count/solve"},
        {"comm.send.bytes", per(c.send_bytes), "B/solve"},
        {"comm.send.busy_s", self_s[L(Layer::kSend)] / n, "s/solve"},
        {"comm.recv.msgs", per(c.recv_msgs), "count/solve"},
        {"comm.recv.wait_s", self_s[L(Layer::kRecv)] / n, "s/solve"},
        {"parallel.rank.step_s", step_per_rank_s / n, "s/solve"},
        {"parallel.rank.imbalance", median(imbalance), "ratio"},
        {"exec.tasks", tasks / n, "count/solve"},
        {"exec.steals", steals / n, "count/solve"},
        {"exec.steal_failures", steal_failures / n, "count/solve"},
        {"exec.parks", parks / n, "count/solve"},
        {"exec.lane_busy_frac", lane_busy / (n * threads), "frac"},
        {"exec.producer_busy_s",
         (self_s[L(Layer::kSelect)] + self_s[L(Layer::kCrossover)] +
          self_s[L(Layer::kMutate)]) /
             n,
         "s/solve"},
        {"trace.unattributed_frac", median(unattributed), "frac"},
    };
  }
};

}  // namespace perfbench
