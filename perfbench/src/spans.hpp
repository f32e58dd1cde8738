#pragma once
// Span recorder for the traced run.
//
// Every thread that enters a traced layer gets its own buffer, registered
// once under a mutex and then written without synchronisation, so pool lanes
// and rank threads never contend.  A span records its layer, start, end,
// parent (the span open on the same thread when it began) and, through its
// buffer, the thread.  Buffers are drained by the solving thread after each
// solve, when every other thread that wrote one has either exited (cluster
// ranks) or handed its results back through a synchronising completion
// (pool lanes), so the drain never races a writer.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRun,         ///< root: the engine run loop (run / run_island_rank / async)
  kStep,        ///< EvolutionScheme::step / step_exec
  kSelect,      ///< Operators::select
  kCrossover,   ///< Operators::cross / cross_in_place
  kMutate,      ///< Operators::mutate
  kFitness,     ///< Problem::fitness (sampled, see TracedProblem)
  kFitnessSoa,  ///< Problem::fitness_soa
  kCheckpointSave,
  kCheckpointLoad,
  kSend,        ///< Transport::send
  kRecv,        ///< Transport::recv / try_recv / recv_timeout
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int32_t parent = -1;  ///< index in the same buffer, -1 for a top span
  Layer layer = Layer::kRun;
};

/// Counters kept beside the spans: work that is counted on every call even
/// where only a sample of calls is timed.
struct Counters {
  std::uint64_t calls[kLayers] = {};
  std::uint64_t fitness_seen = 0;  ///< scalar fitness calls, timed or not
  /// Scalar fitness calls that were not timed, by the layer of the span that
  /// was open when they ran (their time sits in that span's self time until
  /// the fold moves the sampled estimate over to kFitness).
  std::uint64_t untimed_fitness[kLayers + 1] = {};
  std::uint64_t soa_genomes = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t recv_msgs = 0;
  std::uint64_t bytes_read = 0;  ///< computed: genomes evaluated x genome size

  Counters& operator+=(const Counters& o) {
    for (std::size_t l = 0; l < kLayers; ++l) calls[l] += o.calls[l];
    for (std::size_t l = 0; l <= kLayers; ++l)
      untimed_fitness[l] += o.untimed_fitness[l];
    fitness_seen += o.fitness_seen;
    soa_genomes += o.soa_genomes;
    send_bytes += o.send_bytes;
    recv_msgs += o.recv_msgs;
    bytes_read += o.bytes_read;
    return *this;
  }
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
  Counters counters;

  /// Layer of the innermost open span, kCount when none is open.
  [[nodiscard]] std::size_t open_layer() const noexcept {
    return open.empty() ? kLayers
                        : static_cast<std::size_t>(
                              spans[static_cast<std::size_t>(open.back())].layer);
  }
};

class Recorder {
 public:
  Recorder() : epoch_(next_epoch()) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The calling thread's buffer for the current drain epoch.
  [[nodiscard]] ThreadBuffer& local() {
    struct Slot {
      std::uint64_t epoch = 0;
      ThreadBuffer* buffer = nullptr;
    };
    thread_local Slot slot;
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (slot.epoch != epoch) {
      std::lock_guard<std::mutex> lock(mutex_);
      std::unique_ptr<ThreadBuffer> buf;
      if (free_.empty()) {
        buf = std::make_unique<ThreadBuffer>();
      } else {
        buf = std::move(free_.back());
        free_.pop_back();
      }
      slot = Slot{epoch, buf.get()};
      buffers_.push_back(std::move(buf));
    }
    return *slot.buffer;
  }

  void begin(ThreadBuffer& b, Layer layer) {
    const std::int32_t parent = b.open.empty() ? -1 : b.open.back();
    b.open.push_back(static_cast<std::int32_t>(b.spans.size()));
    b.spans.push_back(Span{now_ns(), -1, parent, layer});
    ++b.counters.calls[static_cast<std::size_t>(layer)];
  }

  void end(ThreadBuffer& b) {
    b.spans[static_cast<std::size_t>(b.open.back())].end_ns = now_ns();
    b.open.pop_back();
  }

  /// Hands every buffer written since the last drain to the caller and
  /// starts a new epoch, so threads register fresh buffers on next use.
  /// Precondition: no thread is inside a traced call.
  [[nodiscard]] std::vector<std::unique_ptr<ThreadBuffer>> drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch_.store(next_epoch(), std::memory_order_release);
    std::vector<std::unique_ptr<ThreadBuffer>> out;
    out.swap(buffers_);
    return out;
  }

  /// Returns drained buffers for reuse.  They keep their capacity, so after
  /// the warm-up a traced solve appends spans without reallocating (a
  /// reallocation would land inside whichever span happened to grow it).
  void recycle(std::vector<std::unique_ptr<ThreadBuffer>> buffers) {
    for (auto& b : buffers) {
      b->spans.clear();
      b->open.clear();
      b->counters = Counters{};
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& b : buffers) free_.push_back(std::move(b));
  }

 private:
  /// Epochs are unique across every recorder of the process, so a thread's
  /// cached slot can never match a recorder (or epoch) it did not register
  /// with, even when a new recorder reuses a destroyed one's address.
  [[nodiscard]] static std::uint64_t next_epoch() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::atomic<std::uint64_t> epoch_;
  std::mutex mutex_;  // guards buffers_ and free_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::unique_ptr<ThreadBuffer>> free_;
};

/// RAII span on the calling thread; a null recorder records nothing.
class Scope {
 public:
  Scope(Recorder* rec, Layer layer) : rec_(rec) {
    if (rec_) {
      buf_ = &rec_->local();
      rec_->begin(*buf_, layer);
    }
  }
  ~Scope() {
    if (rec_) rec_->end(*buf_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
  ThreadBuffer* buf_ = nullptr;
};

}  // namespace perfbench
