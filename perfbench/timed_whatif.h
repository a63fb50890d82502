// TimedWhatIf: a benchmark-side WhatIfOptimizer decorator for the
// `optimizer` layer. It counts calls and busy seconds per costing
// method (thread-safe: service tenants call it from every worker), and
// in the traced run records one span per call under the benchmark span
// open on the calling thread. Everything else — catalog(), pool(),
// num_whatif_calls(), health(), SlotOrderCandidates() — is forwarded
// unchanged, so a decorated advisor sees exactly the backend it wraps.
#ifndef PERFBENCH_TIMED_WHATIF_H_
#define PERFBENCH_TIMED_WHATIF_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "optimizer/whatif.h"
#include "perfbench/trace.h"

namespace perfbench {

class TimedWhatIf : public cophy::WhatIfOptimizer {
 public:
  enum Method { kCost, kTemplates, kAccess, kShell, kUpdate, kNumMethods };
  static const char* MethodName(int m) {
    static const char* const kNames[kNumMethods] = {"cost", "templates",
                                                    "access", "shell",
                                                    "update"};
    return kNames[m];
  }

  /// `spans` may be null (count and time, but record no spans).
  TimedWhatIf(cophy::WhatIfOptimizer* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  cophy::Result<double> Cost(const cophy::Query& q,
                             const cophy::Configuration& x) override {
    return Timed(kCost, [&] { return inner_->Cost(q, x); });
  }
  cophy::Result<double> UpdateCost(cophy::IndexId a,
                                   const cophy::Query& q) override {
    return Timed(kUpdate, [&] { return inner_->UpdateCost(a, q); });
  }
  cophy::Result<std::vector<cophy::TemplatePlan>> EnumerateTemplates(
      const cophy::Query& q) override {
    return Timed(kTemplates, [&] { return inner_->EnumerateTemplates(q); });
  }
  cophy::Result<double> AccessCost(const cophy::Query& q, int slot,
                                   const cophy::OrderSpec& order,
                                   cophy::IndexId a) override {
    return Timed(kAccess,
                 [&] { return inner_->AccessCost(q, slot, order, a); });
  }
  cophy::Result<double> ShellCost(const cophy::Query& q,
                                  const cophy::Configuration& x) override {
    return Timed(kShell, [&] { return inner_->ShellCost(q, x); });
  }
  cophy::Result<double> BaseUpdateCost(const cophy::Query& q) override {
    return Timed(kUpdate, [&] { return inner_->BaseUpdateCost(q); });
  }
  std::vector<std::vector<cophy::OrderSpec>> SlotOrderCandidates(
      const cophy::Query& q) const override {
    return inner_->SlotOrderCandidates(q);
  }
  const cophy::Catalog& catalog() const override { return inner_->catalog(); }
  const cophy::IndexPool& pool() const override { return inner_->pool(); }
  int64_t num_whatif_calls() const override {
    return inner_->num_whatif_calls();
  }
  cophy::WhatIfHealth health() const override { return inner_->health(); }

  int64_t calls(int m) const {
    return calls_[m].load(std::memory_order_relaxed);
  }
  double busy_seconds() const {
    int64_t ns = 0;
    for (const auto& b : busy_ns_) ns += b.load(std::memory_order_relaxed);
    return static_cast<double>(ns) * 1e-9;
  }

 private:
  template <typename F>
  auto Timed(int m, F&& f) -> decltype(f()) {
    const int64_t t0 = NowNs();
    auto r = f();
    const int64_t t1 = NowNs();
    calls_[m].fetch_add(1, std::memory_order_relaxed);
    busy_ns_[m].fetch_add(t1 - t0, std::memory_order_relaxed);
    if (spans_ != nullptr) {
      // Calls under a recorded operation are always recorded; calls no
      // benchmark span can own (made on service workers) only while the
      // recorder accepts more.
      const ThreadSpan cur = CurrentThreadSpan();
      if (cur.parent != 0 || spans_->accepting()) {
        spans_->Record("optimizer", MethodName(m), t0, t1, cur.parent,
                       cur.op);
      }
    }
    return r;
  }

  cophy::WhatIfOptimizer* inner_;
  SpanRecorder* spans_;
  std::array<std::atomic<int64_t>, kNumMethods> calls_{};
  std::array<std::atomic<int64_t>, kNumMethods> busy_ns_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_WHATIF_H_
