// Shared plumbing of the advisor benchmark: arguments, sample
// statistics, the per-run report every workload fills, and the quality
// and budget checks every recommendation goes through.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "constraints/constraints.h"
#include "core/cophy.h"
#include "optimizer/whatif.h"
#include "perfbench/trace.h"
#include "query/query.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< spans file (traced run only)
};

/// Deterministic sub-seed: stream `stream`, item `k` of benchmark seed
/// `seed` (splitmix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t k);

/// A sample of one timing or count.
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Median() const { return Percentile(50); }
  /// Nearest-rank percentile (0 for an empty sample).
  double Percentile(double p) const;
  double Mean() const;

 private:
  std::vector<double> v_;
};

/// What a run found: metric values, operation counts, failed checks.
struct Report {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a failed correctness check when `ok` is false.
  void Check(bool ok, const std::string& what);
  /// Counts one operation and checks its status.
  void Op(const cophy::Status& status, const std::string& what);
};

/// Machine-speed probe. The shared machine this benchmark runs on
/// drifts in speed by more than a tenth over minutes, which moves every
/// wall-clock metric of a run together. The probe times a fixed kernel
/// (sorting, hashing and a dense loop over data of its own — it never
/// calls the advisor) between measured operations; Factor() is the
/// run's median kernel time over its nominal time on a quiet machine,
/// and timings are reported divided by it ("ms at nominal speed"). A
/// change to the advisor cannot move the kernel, so only the drift
/// cancels. A workload that keeps several cores busy runs the kernel on
/// as many threads at once, so the probe sees the same contention.
class SpeedProbe {
 public:
  explicit SpeedProbe(int threads = 1) : threads_(threads) {}

  /// Times the kernel if at least `every_s` passed since the last time.
  void MaybeSample(double every_s = 1.0);
  void Sample();
  double Factor() const;
  size_t samples() const { return times_.size(); }

 private:
  int threads_;
  Samples times_;
  int64_t last_ns_ = 0;
  std::atomic<uint64_t> sink_{0};
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// The paper's storage budget: fraction `m` of the total data size.
cophy::ConstraintSet StorageBudget(const cophy::Catalog& cat, double m);

/// Checks a recommended configuration against the storage budget.
void CheckBudget(Report* report, const cophy::Configuration& x,
                 const cophy::IndexPool& pool, const cophy::Catalog& cat,
                 const cophy::ConstraintSet& budget, const std::string& what);

/// Simulated workload cost under `x` divided by the unindexed cost,
/// Σ w·cost(q, x) / Σ w·cost(q, ∅), costed on `quality` — a simulator
/// of its own, so these calls never count against the advisor's
/// what-if budget. `weights[i]` weighs `stmts[i]`. Records a failed
/// check (and returns 0) when costing fails or the ratio exceeds 1.
double CostRatio(Report* report, cophy::WhatIfOptimizer* quality,
                 const std::vector<const cophy::Query*>& stmts,
                 const std::vector<double>& weights,
                 const cophy::Configuration& x, const std::string& what);

/// Per-layer values read off one recommendation (the stage timers and
/// counters its return value carries).
struct LayerSamples {
  Samples lp_solve_s, lp_pivots, lp_ftran_btran_s, lp_refactorizations,
      lp_root_ran, lp_nodes, lp_bound_evaluations, lp_variables_fixed,
      lp_presolve_s, lp_presolve_plans_removed, lp_gap, core_bipgen_s,
      index_candidates;
  void Add(const cophy::Recommendation& rec);
  void Emit(Report* report) const;
};

/// Per-layer self seconds per recorded operation, from the span tree.
void EmitSelfTimes(Report* report, const SpanRecorder& spans);

/// Median wall seconds of `reps` runs of `setup` (set-up is cheap and
/// noisy, so it is repeated and the median reported).
template <typename F>
double MedianSetupSeconds(int reps, F&& setup) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    setup();
    s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return s.Median();
}

void RunHetCold(const Args& args, Report* report, SpanRecorder* spans);
void RunServiceChurn(const Args& args, Report* report, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
