#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t k) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               k * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFULL;  // stays exact as a double
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(s.size())));
  return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Samples::Mean() const {
  double s = 0;
  for (double x : v_) s += x;
  return v_.empty() ? 0 : s / static_cast<double>(v_.size());
}

namespace {

// Typical kernel time on the machine the benchmark was sized on (a
// 4-vCPU Xeon VM), so normalized timings read close to raw ones there;
// only ratios to it matter.
constexpr double kNominalKernelSeconds = 0.0090;

uint64_t Kernel() {
  // Fixed data: a linear congruential sequence.
  std::vector<double> v(1 << 15);
  uint64_t x = 88172645463325252ULL;
  for (double& d : v) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    d = static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<uint64_t, uint64_t> map;
  for (size_t i = 0; i < v.size(); ++i) {
    map[static_cast<uint64_t>(v[i] * 1e12) % 40000] += i;
  }
  uint64_t acc = map.size();
  std::vector<double> m(256 * 256), y(256, 1.0);
  for (size_t i = 0; i < m.size(); ++i) m[i] = v[i % v.size()];
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<double> z(256, 0.0);
    for (int r = 0; r < 256; ++r) {
      double s = 0;
      for (int c = 0; c < 256; ++c) s += m[r * 256 + c] * y[c];
      z[r] = s / 256;
    }
    y.swap(z);
  }
  return acc + static_cast<uint64_t>(y[0] * 1e6);
}

}  // namespace

void SpeedProbe::MaybeSample(double every_s) {
  if (last_ns_ == 0 ||
      static_cast<double>(NowNs() - last_ns_) * 1e-9 >= every_s) {
    Sample();
  }
}

void SpeedProbe::Sample() {
  // Every thread times its own kernel run; the sample is their median.
  std::vector<double> seconds(threads_);
  auto run = [&](int i) {
    const int64_t t0 = NowNs();
    sink_.fetch_add(Kernel(), std::memory_order_relaxed);
    seconds[i] = static_cast<double>(NowNs() - t0) * 1e-9;
  };
  std::vector<std::thread> others;
  for (int i = 1; i < threads_; ++i) others.emplace_back(run, i);
  run(0);
  for (auto& t : others) t.join();
  std::sort(seconds.begin(), seconds.end());
  times_.Add(seconds[seconds.size() / 2]);
  last_ns_ = NowNs();
}

double SpeedProbe::Factor() const {
  return times_.empty() ? 1.0 : times_.Median() / kNominalKernelSeconds;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (errors.size() < 20) errors.push_back(what);
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Report::Op(const cophy::Status& status, const std::string& what) {
  ++attempted;
  if (!status.ok()) {
    ++failed;
    Check(false, what + ": " + status.ToString());
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

cophy::ConstraintSet StorageBudget(const cophy::Catalog& cat, double m) {
  cophy::ConstraintSet cs;
  cs.SetStorageBudget(m * cat.TotalDataBytes());
  return cs;
}

void CheckBudget(Report* report, const cophy::Configuration& x,
                 const cophy::IndexPool& pool, const cophy::Catalog& cat,
                 const cophy::ConstraintSet& budget, const std::string& what) {
  const double limit = budget.storage_budget().value_or(INFINITY);
  const double used = x.SizeBytes(pool, cat);
  report->Check(used <= limit * (1 + 1e-9),
                what + ": configuration uses " + std::to_string(used) +
                    " bytes over the budget of " + std::to_string(limit));
}

double CostRatio(Report* report, cophy::WhatIfOptimizer* quality,
                 const std::vector<const cophy::Query*>& stmts,
                 const std::vector<double>& weights,
                 const cophy::Configuration& x, const std::string& what) {
  double with = 0, without = 0;
  for (size_t i = 0; i < stmts.size(); ++i) {
    auto base = quality->Cost(*stmts[i], cophy::Configuration::Empty());
    auto c = quality->Cost(*stmts[i], x);
    if (!base.ok() || !c.ok()) {
      report->Check(false, what + ": costing failed");
      return 0;
    }
    with += weights[i] * c.value();
    without += weights[i] * base.value();
  }
  const double ratio = without > 0 ? with / without : 1.0;
  report->Check(ratio <= 1 + 1e-9,
                what + ": cost ratio " + std::to_string(ratio) + " above 1");
  return ratio;
}

void LayerSamples::Add(const cophy::Recommendation& rec) {
  const auto& ls = rec.root_lp_stats;
  lp_solve_s.Add(rec.timings.solve_seconds);
  lp_pivots.Add(static_cast<double>(ls.phase1_pivots + ls.phase2_pivots +
                                    ls.dual_pivots));
  lp_ftran_btran_s.Add(ls.ftran_btran_seconds);
  lp_refactorizations.Add(static_cast<double>(ls.refactorizations));
  lp_root_ran.Add(std::isfinite(rec.root_lp_bound) ? 1 : 0);
  lp_nodes.Add(static_cast<double>(rec.nodes));
  lp_bound_evaluations.Add(static_cast<double>(rec.bound_evaluations));
  lp_variables_fixed.Add(static_cast<double>(rec.variables_fixed));
  lp_presolve_s.Add(rec.presolve.seconds);
  lp_presolve_plans_removed.Add(static_cast<double>(rec.presolve.PlansRemoved()));
  lp_gap.Add(rec.gap);
  core_bipgen_s.Add(rec.timings.build_seconds);
  index_candidates.Add(rec.num_candidates);
}

void LayerSamples::Emit(Report* report) const {
  auto& m = report->per_layer;
  m["lp.solve_s"] = lp_solve_s.Median();
  m["lp.root_lp_pivots"] = lp_pivots.Median();
  m["lp.ftran_btran_s"] = lp_ftran_btran_s.Median();
  m["lp.refactorizations"] = lp_refactorizations.Median();
  m["lp.root_lp_run_rate"] = lp_root_ran.Mean();
  m["lp.nodes"] = lp_nodes.Median();
  m["lp.bound_evaluations"] = lp_bound_evaluations.Median();
  m["lp.variables_fixed"] = lp_variables_fixed.Median();
  m["lp.presolve_s"] = lp_presolve_s.Median();
  m["lp.presolve_plans_removed"] = lp_presolve_plans_removed.Median();
  m["lp.gap"] = lp_gap.Median();
  m["core.bipgen_s"] = core_bipgen_s.Median();
  m["index.candidates"] = index_candidates.Median();
}

void EmitSelfTimes(Report* report, const SpanRecorder& spans) {
  const int64_t ops = spans.recorded_ops();
  report->per_layer["trace.ops"] = static_cast<double>(ops);
  static const char* const kLayers[] = {"bench", "service", "core", "lp",
                                        "inum",  "index",   "workload",
                                        "optimizer"};
  const std::map<std::string, double> self = spans.SelfSeconds();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const double total = it == self.end() ? 0 : it->second;
    report->per_layer[std::string(layer) + ".self_s"] =
        ops > 0 ? total / static_cast<double>(ops) : 0;
  }
}

}  // namespace perfbench
