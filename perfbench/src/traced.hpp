#pragma once
// Forwarding decorators for the traced run.  Each wraps one object an engine
// calls through a public interface and records a span around every call
// (scalar fitness: around a fixed sample of calls, see TracedProblem), so the
// library is measured from outside and runs unchanged code.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/transport.hpp"
#include "core/evolution.hpp"
#include "core/genome.hpp"
#include "core/problem.hpp"
#include "core/soa.hpp"
#include "spans.hpp"

namespace perfbench {

/// For a problem with a SoA kernel, one scalar fitness call in
/// kFitnessSample is timed and every call is counted: timing every call would
/// slow the scalar route the kAuto calibrator times against the batched
/// route, and could flip its verdict.  Problems without a kernel have no
/// calibrator, and every call is timed.
inline constexpr std::uint64_t kFitnessSample = 8;

/// Bytes of genome storage an evaluation reads (problems.bytes_read), from
/// each genome's own container, so a change of representation shows.
[[nodiscard]] inline std::size_t genome_bytes(const pga::BitString& g) {
  return g.bits.size() * sizeof(g.bits.front());
}
[[nodiscard]] inline std::size_t genome_bytes(const pga::RealVector& g) {
  return g.values.size() * sizeof(g.values.front());
}
template <class G>
[[nodiscard]] std::size_t genome_bytes(const pga::SoaView<G>& x) {
  return x.count * x.dim * sizeof(typename pga::SoaView<G>::Elem);
}

template <class G>
class TracedProblem final : public pga::Problem<G> {
 public:
  TracedProblem(const pga::Problem<G>& inner, Recorder& rec)
      : inner_(inner),
        rec_(rec),
        sample_(inner.has_soa_kernel() ? kFitnessSample : 1) {}

  [[nodiscard]] double fitness(const G& g) const override {
    ThreadBuffer& b = rec_.local();
    b.counters.bytes_read += genome_bytes(g);
    if (++b.counters.fitness_seen % sample_ != 0) {
      ++b.counters.untimed_fitness[b.open_layer()];
      return inner_.fitness(g);
    }
    rec_.begin(b, Layer::kFitness);
    const double f = inner_.fitness(g);
    rec_.end(b);
    return f;
  }
  [[nodiscard]] double objective(const G& g) const override {
    return inner_.objective(g);
  }
  [[nodiscard]] std::optional<double> optimum_fitness() const override {
    return inner_.optimum_fitness();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool has_soa_kernel() const noexcept override {
    return inner_.has_soa_kernel();
  }
  void fitness_soa(const pga::SoaView<G>& x,
                   std::span<double> out) const override {
    ThreadBuffer& b = rec_.local();
    b.counters.soa_genomes += x.count;
    b.counters.bytes_read += genome_bytes(x);
    rec_.begin(b, Layer::kFitnessSoa);
    inner_.fitness_soa(x, out);
    rec_.end(b);
  }

 private:
  const pga::Problem<G>& inner_;
  Recorder& rec_;
  std::uint64_t sample_;
};

template <class G>
class TracedScheme final : public pga::EvolutionScheme<G> {
 public:
  TracedScheme(std::unique_ptr<pga::EvolutionScheme<G>> inner, Recorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::size_t step(pga::Population<G>& pop, const pga::Problem<G>& problem,
                   pga::Rng& rng) override {
    Scope s(&rec_, Layer::kStep);
    return inner_->step(pop, problem, rng);
  }
  std::size_t step_exec(pga::Population<G>& pop,
                        const pga::Problem<G>& problem, pga::Rng& rng,
                        const pga::exec::Parallelism& par) override {
    Scope s(&rec_, Layer::kStep);
    return inner_->step_exec(pop, problem, rng, par);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pga::EvolutionScheme<G>> inner_;
  Recorder& rec_;
};

/// Wraps each operator std::function in a span-recording forwarder.
template <class G>
[[nodiscard]] pga::Operators<G> traced_operators(pga::Operators<G> ops,
                                                 Recorder& rec) {
  Recorder* r = &rec;
  if (ops.select)
    ops.select = [r, f = std::move(ops.select)](std::span<const double> fit,
                                                pga::Rng& rng) {
      Scope s(r, Layer::kSelect);
      return f(fit, rng);
    };
  if (ops.cross)
    ops.cross = [r, f = std::move(ops.cross)](const G& a, const G& b,
                                              pga::Rng& rng) {
      Scope s(r, Layer::kCrossover);
      return f(a, b, rng);
    };
  if (ops.cross_in_place)
    ops.cross_in_place = [r, f = std::move(ops.cross_in_place)](
                             G& a, G& b, pga::Rng& rng) {
      Scope s(r, Layer::kCrossover);
      f(a, b, rng);
    };
  if (ops.mutate)
    ops.mutate = [r, f = std::move(ops.mutate)](G& g, pga::Rng& rng) {
      Scope s(r, Layer::kMutate);
      f(g, rng);
    };
  return ops;
}

class TracedTransport final : public pga::comm::Transport {
 public:
  TracedTransport(pga::comm::Transport& inner, Recorder& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  std::uint64_t send(int dest, int tag,
                     std::vector<std::uint8_t> payload) override {
    Scope s(&rec_, Layer::kSend);
    rec_.local().counters.send_bytes += payload.size();
    return inner_.send(dest, tag, std::move(payload));
  }
  [[nodiscard]] std::optional<pga::comm::Message> recv(int source,
                                                       int tag) override {
    Scope s(&rec_, Layer::kRecv);
    return counted(inner_.recv(source, tag));
  }
  [[nodiscard]] std::optional<pga::comm::Message> try_recv(int source,
                                                           int tag) override {
    Scope s(&rec_, Layer::kRecv);
    return counted(inner_.try_recv(source, tag));
  }
  [[nodiscard]] std::optional<pga::comm::Message> recv_timeout(
      double seconds, int source, int tag) override {
    Scope s(&rec_, Layer::kRecv);
    return counted(inner_.recv_timeout(seconds, source, tag));
  }
  void compute(double seconds) override { inner_.compute(seconds); }
  [[nodiscard]] double now() const override { return inner_.now(); }

 private:
  std::optional<pga::comm::Message> counted(
      std::optional<pga::comm::Message> m) {
    if (m) ++rec_.local().counters.recv_msgs;
    return m;
  }

  pga::comm::Transport& inner_;
  Recorder& rec_;
};

}  // namespace perfbench
