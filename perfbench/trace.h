// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code only: around the
// calls it makes into a layer's public functions, and around every call
// through the timing what-if decorator. Where one public call covers
// several layers (CoPhy::Prepare runs compression, CGen and INUM; Tune
// runs BIPGen and the solver), the benchmark adds *derived* child spans
// whose durations come from the stage timers the call already returns
// (PrepareStats, TuningTimings, OpResult), laid out back to back inside
// the parent interval in the order the stages run.
//
// A layer's self time is its span's duration minus the part of that
// interval its children cover (interval union, so overlapping children
// are not double counted).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root, or a what-if call of no known op
  int64_t op = 0;      ///< the benchmark operation this span belongs to
  std::string layer;   ///< bench, core, lp, inum, index, workload, optimizer, service
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool derived = false;  ///< duration taken from a returned stage timer
};

/// Keeps every span of the traced run in memory. A run makes millions
/// of what-if calls, so once kMaxSpans are held no new operation starts
/// recording (operations already recording finish theirs); per-op self
/// times are taken over the operations that were recorded.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 250000;

  /// True while new operations may start recording spans.
  bool accepting() const {
    return count_.load(std::memory_order_relaxed) < kMaxSpans;
  }
  /// Root operations recorded (spans of layer "bench" without a parent).
  int64_t recorded_ops() const {
    return ops_.load(std::memory_order_relaxed);
  }

  /// Records a closed span and returns its id.
  int64_t Record(const std::string& layer, const std::string& name,
                 int64_t start_ns, int64_t end_ns, int64_t parent, int64_t op,
                 bool derived = false) {
    std::lock_guard<std::mutex> lock(mu_);
    count_.fetch_add(1, std::memory_order_relaxed);
    if (parent == 0 && layer == "bench") {
      ops_.fetch_add(1, std::memory_order_relaxed);
    }
    Span s;
    s.id = static_cast<int64_t>(spans_.size()) + 1;
    s.parent = parent;
    s.op = op;
    s.layer = layer;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.derived = derived;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Reserves an id for a span that is still open (its children are
  /// recorded before it closes); Close() fills it in.
  int64_t Open(const std::string& layer, const std::string& name,
               int64_t parent, int64_t op) {
    return Record(layer, name, NowNs(), 0, parent, op);
  }
  void SetOp(int64_t id, int64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].op = op;
  }
  void Close(int64_t id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }
  int64_t StartOf(int64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[id - 1].start_ns;
  }
  int64_t EndOf(int64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[id - 1].end_ns;
  }

  /// Lays derived stage spans back to back from the parent's start, each
  /// `seconds` long, clipped to the parent.
  void DeriveStages(int64_t parent, int64_t op,
                    const std::vector<std::pair<std::string, double>>& stages,
                    const std::vector<std::string>& layers);

  /// Per-layer self seconds over every recorded span. What-if spans
  /// recorded with no parent (service workers, where no benchmark span
  /// is open on the calling thread) are charged to `optimizer` in full
  /// and subtracted from the `inum` layer's self time in aggregate,
  /// because every what-if call is made by preparation.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<size_t> count_{0};
  std::atomic<int64_t> ops_{0};
};

/// The innermost benchmark span open on this thread (0 = none), and the
/// operation it belongs to; what-if spans nest under it.
struct ThreadSpan {
  int64_t parent = 0;
  int64_t op = 0;
};
ThreadSpan& CurrentThreadSpan();

/// RAII: opens a span, makes it the thread's current parent, closes it
/// and restores the previous parent on scope exit. A null recorder makes
/// every operation a no-op (the untraced run), and so does a root span
/// opened after the recorder stopped accepting new operations.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& layer,
             const std::string& name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  int64_t op() const { return op_; }

 private:
  SpanRecorder* rec_;
  int64_t id_ = 0;
  int64_t op_ = 0;
  ThreadSpan saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
