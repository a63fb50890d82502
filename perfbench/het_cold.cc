// het_cold: one-shot CoPhy::Prepare + Tune on a fresh index pool and
// simulator per instance, over heterogeneous (W_het) read-only
// workloads at storage budget M = 0.5 with the default advisor options.
// The solver's root LP is most of the wall time here; preparation is a
// small share, so solver changes show and preparation changes barely
// do.
//
// Instances vary a lot in LP difficulty (and the solve time grows
// steeply with size), so a run tunes many small instances (kStatements
// each), one at a time and single-threaded, and reports medians over
// them; tuning several at once made the timings noisier.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "optimizer/simulator.h"
#include "perfbench/common.h"
#include "perfbench/timed_whatif.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace cophy;

constexpr int kStatements = 20;
constexpr double kBudgetFraction = 0.5;
constexpr int kInstances = 1000;  // generated up front; a run uses a prefix
constexpr int kMinInstances = 60;
constexpr int kSetupReps = 9;
// Costing an instance on the quality simulator takes a good share of
// its tuning time, so only every kQualityEvery-th instance is costed.
constexpr int kQualityEvery = 4;

struct Fixture {
  Catalog catalog;
  std::vector<Workload> instances;
  ConstraintSet budget;

  void Build(uint64_t seed) {
    catalog = MakeTpchCatalog(1.0, 0.0);
    catalog.WarmStatistics();
    instances.clear();
    instances.reserve(kInstances);
    for (int k = 0; k < kInstances; ++k) {
      WorkloadOptions o;
      o.num_statements = kStatements;
      o.seed = SubSeed(seed, 1, static_cast<uint64_t>(k));
      instances.push_back(MakeHeterogeneousWorkload(catalog, o));
    }
    budget = StorageBudget(catalog, kBudgetFraction);
  }
};

enum class Mode { kPlain, kDecorated, kTraced };

struct Outcome {
  double seconds = 0;          // Prepare + Tune wall time
  double prepare_seconds = 0;  // CoPhy::Prepare alone
  int64_t whatif_calls = 0;
  double cost_ratio = -1;  // -1: not costed
  Recommendation rec;
  int64_t method_calls[TimedWhatIf::kNumMethods] = {};
  double whatif_busy_s = 0;
};

Outcome RunInstance(const Fixture& fx, int k, Mode mode, SpanRecorder* spans,
                    Report* report) {
  Outcome out;
  IndexPool pool;
  SystemSimulator sim(&fx.catalog, &pool, CostModel::SystemA());
  SpanRecorder* rec_spans = mode == Mode::kTraced ? spans : nullptr;
  std::unique_ptr<TimedWhatIf> timed;
  WhatIfOptimizer* whatif = &sim;
  if (mode != Mode::kPlain) {
    timed = std::make_unique<TimedWhatIf>(&sim, rec_spans);
    whatif = timed.get();
  }
  CoPhyOptions options;
  options.gap_target = 0.05;
  options.node_limit = 8000;
  CoPhy advisor(whatif, &pool, fx.instances[k], options);

  Status prepared;
  int64_t prepare_span = 0, tune_span = 0, op = 0;
  const int64_t t0 = NowNs();
  {
    ScopedSpan root(rec_spans, "bench", "het_cold.instance");
    op = root.op();
    {
      ScopedSpan s(rec_spans, "core", "CoPhy::Prepare");
      prepare_span = s.id();
      prepared = advisor.Prepare();
    }
    out.prepare_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    if (prepared.ok()) {
      ScopedSpan s(rec_spans, "core", "CoPhy::Tune");
      tune_span = s.id();
      out.rec = advisor.Tune(fx.budget);
    }
  }
  out.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  const std::string what = "het_cold instance " + std::to_string(k);
  report->Op(prepared, what + " Prepare");
  if (!prepared.ok()) return out;
  report->Op(out.rec.status, what + " Tune");
  if (!out.rec.status.ok()) return out;
  out.whatif_calls = sim.num_whatif_calls();

  if (rec_spans != nullptr) {
    const PrepareStats& ps = advisor.prepared().stats();
    rec_spans->DeriveStages(prepare_span, op,
                            {{"compress", ps.compression.seconds},
                             {"cgen", ps.cgen_seconds},
                             {"prepare", ps.inum_seconds}},
                            {"workload", "index", "inum"});
    rec_spans->DeriveStages(tune_span, op,
                            {{"bipgen", out.rec.timings.build_seconds},
                             {"solve", out.rec.timings.solve_seconds}},
                            {"core", "lp"});
  }
  if (timed != nullptr) {
    for (int m = 0; m < TimedWhatIf::kNumMethods; ++m) {
      out.method_calls[m] = timed->calls(m);
    }
    out.whatif_busy_s = timed->busy_seconds();
  }

  CheckBudget(report, out.rec.configuration, pool, fx.catalog, fx.budget,
              what);
  if (k % kQualityEvery != 0) return out;
  SystemSimulator quality(&fx.catalog, &pool, CostModel::SystemA());
  std::vector<const Query*> stmts;
  std::vector<double> weights;
  for (const Query& q : fx.instances[k].statements()) {
    stmts.push_back(&q);
    weights.push_back(q.weight);
  }
  out.cost_ratio = CostRatio(report, &quality, stmts, weights,
                             out.rec.configuration, what);
  return out;
}

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  return a.configuration == b.configuration && a.objective == b.objective;
}

}  // namespace

void RunHetCold(const Args& args, Report* report, SpanRecorder* spans) {
  Fixture fx;
  const double setup_s =
      MedianSetupSeconds(kSetupReps, [&] { fx.Build(args.seed); });

  // Instances run back to back until the clock runs out (and at least
  // kMinInstances ran). The traced run tunes every instance twice,
  // untraced then traced, which gives the tracing overhead and the
  // traced == untraced check on the same inputs.
  std::vector<Outcome> plain, traced;
  SpeedProbe speed;
  if (!args.trace) {
    // The decorator must not change the answer: one decorated instance
    // against its undecorated twin.
    Outcome a = RunInstance(fx, 0, Mode::kPlain, nullptr, report);
    Outcome b = RunInstance(fx, 0, Mode::kDecorated, nullptr, report);
    report->Check(SameRecommendation(a.rec, b.rec),
                  "decorated het_cold instance differs from undecorated");
  }
  Stopwatch wall;
  for (int k = 0; k < kInstances; ++k) {
    if (k >= kMinInstances && wall.Elapsed() >= args.seconds) break;
    speed.MaybeSample();
    plain.push_back(RunInstance(fx, k, Mode::kPlain, nullptr, report));
    if (args.trace) {
      traced.push_back(RunInstance(fx, k, Mode::kTraced, spans, report));
      report->Check(SameRecommendation(plain.back().rec, traced.back().rec),
                    "traced het_cold instance " + std::to_string(k) +
                        " differs from untraced");
    }
  }
  const double wall_s = wall.Elapsed();

  Samples tune_ms, prepare_ms, whatif, ratio;
  for (const Outcome& o : plain) {
    tune_ms.Add(o.seconds * 1e3);
    prepare_ms.Add(o.prepare_seconds * 1e3);
    whatif.Add(static_cast<double>(o.whatif_calls));
    if (o.cost_ratio >= 0) ratio.Add(o.cost_ratio);
  }
  const double f = speed.Factor();
  auto& e = report->end_to_end;
  e["setup_s"] = setup_s / f;
  e["tune_ms_p50"] = tune_ms.Median() / f;
  e["tune_ms_tail"] = tune_ms.Percentile(75) / f;
  e["fast_path_ms"] = prepare_ms.Mean() / f;
  e["throughput_ops_s"] = static_cast<double>(tune_ms.size()) / wall_s * f;
  e["whatif_calls_per_op"] = whatif.Mean();
  e["cost_ratio"] = ratio.Median();
  e["peak_rss_mb"] = PeakRssMb();
  std::printf("het_cold: %zu instances of %d statements in %.2f s; tail = "
              "p75 (%zu beyond)\n",
              tune_ms.size(), kStatements, wall_s, tune_ms.size() / 4);
  std::printf("  raw: tune_s (cold Prepare+Tune) p50 = %.4f s, p75 = %.4f s, "
              "Prepare mean = %.3f ms; machine-speed factor %.4f (%zu "
              "probes)\n",
              tune_ms.Median() / 1e3, tune_ms.Percentile(75) / 1e3,
              prepare_ms.Mean(), f, speed.samples());

  if (!args.trace) return;
  LayerSamples layers;
  Samples traced_ms, untraced_ms, inum_s, cgen_s, compress_s, ratio_c,
      per_class, busy, calls[TimedWhatIf::kNumMethods];
  for (size_t i = 0; i < traced.size(); ++i) {
    const Outcome& o = traced[i];
    traced_ms.Add(o.seconds * 1e3);
    untraced_ms.Add(plain[i].seconds * 1e3);
    layers.Add(o.rec);
    const PrepareStats& ps = o.rec.prepare;
    inum_s.Add(ps.inum_seconds);
    cgen_s.Add(ps.cgen_seconds);
    compress_s.Add(ps.compression.seconds);
    ratio_c.Add(ps.compression.Ratio());
    per_class.Add(static_cast<double>(o.whatif_calls) /
                  std::max(1, ps.compression.output_statements));
    busy.Add(o.whatif_busy_s);
    for (int m = 0; m < TimedWhatIf::kNumMethods; ++m) {
      calls[m].Add(static_cast<double>(o.method_calls[m]));
    }
  }
  layers.Emit(report);
  auto& l = report->per_layer;
  l["inum.prepare_s"] = inum_s.Median();
  l["inum.whatif_per_new_class"] = per_class.Median();
  l["optimizer.whatif_calls"] = whatif.Mean();
  l["optimizer.whatif_busy_s"] = busy.Median();
  for (int m = 0; m < TimedWhatIf::kNumMethods; ++m) {
    l[std::string("optimizer.calls.") + TimedWhatIf::MethodName(m)] =
        calls[m].Mean();
  }
  l["index.cgen_s"] = cgen_s.Median();
  l["workload.compress_s"] = compress_s.Median();
  l["workload.compression_ratio"] = ratio_c.Median();
  l["trace.overhead_frac"] =
      untraced_ms.Median() > 0 ? traced_ms.Median() / untraced_ms.Median() - 1
                               : 0;
  EmitSelfTimes(report, *spans);
}

}  // namespace perfbench
