// service_churn: AdvisorService with kWorkers workers and the shared
// plan cache on. kTenants tenants act as closed-loop clients: each
// submits its next remove/add/Retune round only after its previous
// Retune resolves. Statements are W_hom with kOverlapPct% cross-tenant
// overlap, kLive live per tenant. The service executor and the
// cross-tenant plan cache do the work here, on small problems; both
// het_* workloads bypass them.
//
// A run is a sequence of epochs, each a fresh service whose tenants all
// load and tune at once (the concurrent plan-cache fill) and then churn
// for kRounds rounds. On uniform data most fresh W_hom statements fall
// into known cost-equivalence classes, so nearly all what-if calls are
// made by the fills.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "optimizer/simulator.h"
#include "perfbench/common.h"
#include "perfbench/timed_whatif.h"
#include "service/service.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace cophy;

constexpr int kTenants = 8;
constexpr int kWorkers = 4;
constexpr int kLive = 24;
constexpr int kDelta = 3;
constexpr int kOverlapPct = 75;
constexpr double kBudgetFraction = 0.5;
constexpr int kRounds = 10;       // closed-loop rounds per tenant per epoch
constexpr int kMinRetunes = 220;  // p95 keeps >= 10 samples beyond it
constexpr int kQualityPerEpoch = 1;
constexpr int kSetupReps = 9;

ServiceOptions ChurnServiceOptions() {
  ServiceOptions so;
  so.num_threads = kWorkers;
  so.share_plan_cache = true;
  so.session.tuning.gap_target = 0.05;
  so.session.tuning.node_limit = 8000;
  return so;
}

// Statement i of tenant t. Templates cycle through all of W_hom's
// templates (from a seed-chosen offset), so every tenant's live set
// covers each template and epochs differ in constants, not in shape.
// Positions drawn as shared are identical across tenants (same template
// and seed, so the same cost-equivalence class); the rest are private
// to the tenant.
Query TenantStatement(const Catalog& cat, uint64_t seed, int tenant, int i) {
  const bool shared =
      SubSeed(seed, 3, static_cast<uint64_t>(i)) % 100 < kOverlapPct;
  const int tmpl =
      static_cast<int>((SubSeed(seed, 4, 0) + static_cast<uint64_t>(i)) %
                       NumHomogeneousTemplates());
  const uint64_t s =
      shared ? SubSeed(seed, 5, static_cast<uint64_t>(i))
             : SubSeed(seed, 6, static_cast<uint64_t>(tenant) * 1000003ULL + i);
  return MakeHomogeneousStatement(cat, tmpl, s);
}

std::string TenantName(int t) { return "tenant-" + std::to_string(t); }

// One service over `pool`, with its own simulator and (traced) decorator.
struct Deployment {
  std::unique_ptr<SystemSimulator> sim;
  std::unique_ptr<TimedWhatIf> timed;
  std::unique_ptr<AdvisorService> service;

  Deployment(const Catalog* cat, IndexPool* pool, SpanRecorder* spans) {
    sim = std::make_unique<SystemSimulator>(cat, pool, CostModel::SystemA());
    WhatIfOptimizer* whatif = sim.get();
    if (spans != nullptr) {
      timed = std::make_unique<TimedWhatIf>(sim.get(), spans);
      whatif = timed.get();
    }
    service = std::make_unique<AdvisorService>(whatif, pool,
                                               ChurnServiceOptions());
  }
};

struct RetuneRecord {
  int epoch = 0;
  int tenant = 0;
  int round = 0;
  Configuration configuration;
  double objective = 0;
};

// Everything the closed loop observed, accumulated over epochs.
struct LoopResult {
  Samples retune_ms, light_ms, queue_ms, exec_ms;
  LayerSamples layers;
  Samples inum_s, cgen_s, compress_s, compression_ratio;
  std::vector<RetuneRecord> retunes;
  std::vector<std::vector<RetuneRecord>> final_rec;  // [epoch][tenant]
  int epochs = 0;
  int64_t ops = 0;
  int64_t tunes = 0;  // Tune + Retune ops
  int64_t whatif_calls = 0;
  int64_t new_classes = 0;
  int64_t warm_reuses = 0;
  int64_t rejected = 0;
  int64_t method_calls[TimedWhatIf::kNumMethods] = {};
  double whatif_busy_s = 0;
  double wall_s = 0;
  PlanCacheStats plan_cache;
};

uint64_t EpochSeed(uint64_t seed, int epoch) {
  return SubSeed(seed, 7, static_cast<uint64_t>(epoch));
}

// Records the Submit spans of one client step (Submit until the future
// resolves), split by the queue/exec timers the results carry, and the
// last op's (Tune or Retune) execution split by its own stage timers.
struct Submitted {
  const char* name;
  int64_t submit_ns, resolved_ns;
  const OpResult* result;
};
void RecordSubmitSpans(SpanRecorder* spans, int64_t root, int64_t op,
                      const std::vector<Submitted>& parts) {
  for (size_t i = 0; i < parts.size(); ++i) {
    const Submitted& p = parts[i];
    const double queue_s = p.result->queue_seconds;
    const double exec_s = p.result->exec_seconds;
    const int64_t sub =
        spans->Record("service", std::string("AdvisorService::Submit ") + p.name,
                      p.submit_ns, p.resolved_ns, root, op);
    if (i + 1 < parts.size()) {
      spans->DeriveStages(sub, op, {{"queue", queue_s}, {"exec", exec_s}},
                          {"service", "core"});
      continue;
    }
    spans->DeriveStages(sub, op, {{"queue", queue_s}}, {"service"});
    const Recommendation& rec = p.result->recommendation;
    const int64_t exec_start = p.submit_ns + static_cast<int64_t>(queue_s * 1e9);
    const int64_t exec = spans->Record(
        "core", std::string("AdvisorSession::") + p.name, exec_start,
        std::min(p.resolved_ns, exec_start + static_cast<int64_t>(exec_s * 1e9)),
        sub, op);
    spans->DeriveStages(exec, op,
                        {{"prepare", rec.timings.inum_seconds},
                         {"bipgen", rec.timings.build_seconds},
                         {"solve", rec.timings.solve_seconds}},
                        {"inum", "core", "lp"});
  }
}

// One epoch: a fresh service (cold plan cache); every tenant loads its
// initial batch and tunes, all at once, then runs kRounds closed-loop
// rounds. The op count per epoch is fixed, so per-op ratios do not
// depend on how fast the service is.
void RunEpoch(const Catalog& cat, IndexPool* pool, uint64_t seed, int epoch,
              const ConstraintSet& budget, SpanRecorder* spans,
              Report* report, LoopResult* r) {
  Deployment d(&cat, pool, spans);
  AdvisorService& service = *d.service;
  const uint64_t eseed = EpochSeed(seed, epoch);
  std::vector<RetuneRecord> final_rec(kTenants);
  std::mutex mu;  // guards r, final_rec and report while clients run
  const int64_t start = NowNs();
  auto client = [&](int t) {
    const std::string name = TenantName(t);
    std::vector<Query> batch;
    for (int i = 0; i < kLive; ++i) {
      batch.push_back(TenantStatement(cat, eseed, t, i));
    }
    PrepareStats last;  // the session's cumulative preparation accounting
    {
      ScopedSpan load_span(spans, "bench", "service_churn.load");
      const int64_t s_load = NowNs();
      std::future<OpResult> f_load = service.AddStatements(name, std::move(batch));
      const int64_t s_tune = NowNs();
      std::future<OpResult> f_tune = service.Tune(name, budget);
      const OpResult load = f_load.get();
      const int64_t e_load = NowNs();
      const OpResult tune = f_tune.get();
      const int64_t e_tune = NowNs();
      {
        std::lock_guard<std::mutex> lock(mu);
        report->Op(load.status, name + " initial load");
        report->Op(tune.status, name + " initial Tune");
        r->ops += 2;
        r->tunes += 1;
        if (spans != nullptr) {
          RecordSubmitSpans(spans, load_span.id(), load_span.op(),
                           {{"AddStatements", s_load, e_load, &load},
                            {"Tune", s_tune, e_tune, &tune}});
        }
      }
      last = tune.recommendation.prepare;
    }
    for (int round = 0; round < kRounds; ++round) {
      std::vector<QueryId> oldest;
      std::vector<Query> fresh;
      for (int k = 0; k < kDelta; ++k) {
        oldest.push_back(round * kDelta + k);
        fresh.push_back(TenantStatement(cat, eseed, t, kLive + round * kDelta + k));
      }
      ScopedSpan root(spans, "bench", "service_churn.round");
      const int64_t s_rm = NowNs();
      std::future<OpResult> f_rm = service.RemoveStatements(name, oldest);
      const int64_t s_add = NowNs();
      std::future<OpResult> f_add = service.AddStatements(name, std::move(fresh));
      const int64_t s_rt = NowNs();
      std::future<OpResult> f_rt = service.Retune(name, budget);
      const OpResult rm = f_rm.get();
      const int64_t e_rm = NowNs();
      const OpResult add = f_add.get();
      const int64_t e_add = NowNs();
      const OpResult rt = f_rt.get();
      const int64_t e_rt = NowNs();

      std::lock_guard<std::mutex> lock(mu);
      report->Op(rm.status, name + " remove");
      report->Op(add.status, name + " add");
      report->Op(rt.status, name + " Retune");
      r->ops += 3;
      r->tunes += 1;
      r->light_ms.Add(static_cast<double>(e_rm - s_rm) * 1e-6);
      r->light_ms.Add(static_cast<double>(e_add - s_add) * 1e-6);
      r->retune_ms.Add(static_cast<double>(e_rt - s_rt) * 1e-6);
      r->queue_ms.Add(rt.queue_seconds * 1e3);
      r->exec_ms.Add(rt.exec_seconds * 1e3);
      if (!rt.status.ok()) continue;
      const Recommendation& rec = rt.recommendation;
      CheckBudget(report, rec.configuration, *pool, cat, budget,
                  name + " round " + std::to_string(round));
      r->retunes.push_back({epoch, t, round, rec.configuration, rec.objective});
      final_rec[t] = r->retunes.back();
      if (spans == nullptr) continue;
      r->layers.Add(rec);
      r->inum_s.Add(rec.timings.inum_seconds);
      r->cgen_s.Add(rec.prepare.cgen_seconds - last.cgen_seconds);
      r->compress_s.Add(rec.prepare.compression.seconds -
                        last.compression.seconds);
      r->compression_ratio.Add(rec.prepare.compression.Ratio());
      r->new_classes += rec.prepare.drift_new_classes;
      last = rec.prepare;
      RecordSubmitSpans(spans, root.id(), root.op(),
                       {{"RemoveStatements", s_rm, e_rm, &rm},
                        {"AddStatements", s_add, e_add, &add},
                        {"Retune", s_rt, e_rt, &rt}});
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) clients.emplace_back(client, t);
  for (auto& c : clients) c.join();
  service.Drain();
  r->wall_s += static_cast<double>(NowNs() - start) * 1e-9;
  for (int t = 0; t < kTenants; ++t) {
    r->warm_reuses +=
        service.FindSession(TenantName(t))->resolve_state().warm_reuses;
  }
  if (d.timed != nullptr) {
    for (int m = 0; m < TimedWhatIf::kNumMethods; ++m) {
      r->method_calls[m] += d.timed->calls(m);
    }
    r->whatif_busy_s += d.timed->busy_seconds();
  }
  r->whatif_calls += d.sim->num_whatif_calls();
  const ServiceStats stats = service.stats();
  r->rejected += stats.rejected;
  const PlanCacheStats& pc = stats.plan_cache;
  r->plan_cache.template_hits += pc.template_hits;
  r->plan_cache.template_misses += pc.template_misses;
  r->plan_cache.template_inserts += pc.template_inserts;
  r->plan_cache.gamma_hits += pc.gamma_hits;
  r->plan_cache.gamma_misses += pc.gamma_misses;
  r->plan_cache.gamma_inserts += pc.gamma_inserts;
  r->final_rec.push_back(std::move(final_rec));
  ++r->epochs;
}

// Serial replay of one tenant's op stream in one epoch, on a plain,
// single-threaded session with no shared cache, over the same pool (so
// candidate ids match). Returns its final recommendation.
RetuneRecord SerialReplay(const Catalog& cat, IndexPool* pool, uint64_t seed,
                          int epoch, const ConstraintSet& budget, int tenant,
                          Report* report) {
  const uint64_t eseed = EpochSeed(seed, epoch);
  SystemSimulator sim(&cat, pool, CostModel::SystemA());
  SessionOptions so = ChurnServiceOptions().session;
  so.tuning.prepare.num_threads = 1;
  AdvisorSession session(&sim, pool, so);
  std::vector<Query> batch;
  for (int i = 0; i < kLive; ++i) {
    batch.push_back(TenantStatement(cat, eseed, tenant, i));
  }
  session.AddStatements(batch);
  Recommendation rec = session.Tune(budget);
  report->Check(rec.status.ok(), "serial replay Tune failed");
  for (int round = 0; round < kRounds; ++round) {
    std::vector<QueryId> oldest;
    std::vector<Query> fresh;
    for (int k = 0; k < kDelta; ++k) {
      oldest.push_back(round * kDelta + k);
      fresh.push_back(
          TenantStatement(cat, eseed, tenant, kLive + round * kDelta + k));
    }
    report->Check(session.RemoveStatements(oldest).ok(),
                  "serial replay remove failed");
    session.AddStatements(fresh);
    rec = session.Retune(budget);
    report->Check(rec.status.ok(), "serial replay Retune failed");
  }
  return {epoch, tenant, kRounds - 1, rec.configuration, rec.objective};
}

bool SameRecord(const RetuneRecord& a, const RetuneRecord& b) {
  return a.configuration == b.configuration && a.objective == b.objective;
}

// Quality of `n` evenly spaced retunes of one epoch (records
// [begin, end) of `r`), costed on a second simulator over the epoch's
// pool. A tenant's live set after round k is positions
// [kDelta*(k+1), kDelta*(k+1) + kLive).
void EpochQuality(const Catalog& cat, IndexPool* pool, uint64_t seed,
                  const LoopResult& r, size_t begin, size_t end,
                  Report* report, Samples* ratio) {
  SystemSimulator quality(&cat, pool, CostModel::SystemA());
  const size_t step = std::max<size_t>(1, (end - begin) / kQualityPerEpoch);
  for (size_t j = begin; j < end; j += step) {
    const RetuneRecord& rr = r.retunes[j];
    std::vector<Query> live;
    for (int i = 0; i < kLive; ++i) {
      live.push_back(TenantStatement(cat, EpochSeed(seed, rr.epoch), rr.tenant,
                                     kDelta * (rr.round + 1) + i));
    }
    std::vector<const Query*> stmts;
    std::vector<double> weights;
    for (const Query& q : live) {
      stmts.push_back(&q);
      weights.push_back(q.weight);
    }
    ratio->Add(CostRatio(report, &quality, stmts, weights, rr.configuration,
                         TenantName(rr.tenant) + " quality"));
  }
}

}  // namespace

void RunServiceChurn(const Args& args, Report* report, SpanRecorder* spans) {
  Catalog catalog;
  ConstraintSet budget;
  std::unique_ptr<IndexPool> pool;
  std::unique_ptr<Deployment> probe;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    probe.reset();
    catalog = MakeTpchCatalog(1.0, 0.0);
    catalog.WarmStatistics();
    budget = StorageBudget(catalog, kBudgetFraction);
    pool = std::make_unique<IndexPool>();
    // Generation of the first epoch's initial batches plus service
    // construction.
    std::vector<Query> all;
    for (int t = 0; t < kTenants; ++t) {
      for (int i = 0; i < kLive; ++i) {
        all.push_back(TenantStatement(catalog, EpochSeed(args.seed, 0), t, i));
      }
    }
    probe = std::make_unique<Deployment>(&catalog, pool.get(), nullptr);
  });
  probe.reset();

  // Epochs run until the clock runs out and p95 has enough samples
  // beyond it; each gets a fresh index pool, so memory does not grow
  // with the epoch count. In the traced run every epoch runs untraced,
  // then again traced on the same pool (so candidate ids match), and
  // the two must agree; the untraced epochs get half the clock.
  const double loop_s = spans != nullptr ? args.seconds / 2 : args.seconds;
  LoopResult run, traced;
  Samples ratio;
  SpeedProbe speed(kWorkers);  // sampled between epochs, no service running
  bool replay_ok = true;
  while (run.wall_s < loop_s ||
         static_cast<int>(run.retune_ms.size()) < kMinRetunes) {
    speed.MaybeSample();
    const int epoch = run.epochs;
    if (epoch > 0) pool = std::make_unique<IndexPool>();
    const size_t first = run.retunes.size();
    RunEpoch(catalog, pool.get(), args.seed, epoch, budget, nullptr, report,
             &run);
    EpochQuality(catalog, pool.get(), args.seed, run, first,
                 run.retunes.size(), report, &ratio);
    if (epoch == 0) {
      // The concurrent answer must be the serial one.
      const RetuneRecord replay =
          SerialReplay(catalog, pool.get(), args.seed, 0, budget, 0, report);
      replay_ok = SameRecord(replay, run.final_rec[0][0]);
      report->Check(replay_ok, "tenant-0 final recommendation differs from "
                               "its serial replay");
    }
    if (spans != nullptr) {
      RunEpoch(catalog, pool.get(), args.seed, epoch, budget, spans, report,
               &traced);
      for (int t = 0; t < kTenants; ++t) {
        report->Check(
            SameRecord(traced.final_rec[epoch][t], run.final_rec[epoch][t]),
            TenantName(t) + " traced recommendation differs from untraced "
                            "in epoch " + std::to_string(epoch));
      }
    }
  }

  const double f = speed.Factor();
  auto& e = report->end_to_end;
  e["setup_s"] = setup_s / f;
  e["tune_ms_p50"] = run.retune_ms.Median() / f;
  e["tune_ms_tail"] = run.retune_ms.Percentile(95) / f;
  e["fast_path_ms"] = run.light_ms.Mean() / f;
  e["throughput_ops_s"] = static_cast<double>(run.ops) / run.wall_s * f;
  e["whatif_calls_per_op"] =
      static_cast<double>(run.whatif_calls) / static_cast<double>(run.tunes);
  e["cost_ratio"] = ratio.Median();
  e["peak_rss_mb"] = PeakRssMb();
  std::printf("service_churn: %d epochs x %d tenants x %d rounds, %d "
              "workers: %zu retunes, %lld ops in %.2f s; tail = p95 (%zu "
              "beyond)\n",
              run.epochs, kTenants, kRounds, kWorkers, run.retune_ms.size(),
              static_cast<long long>(run.ops), run.wall_s,
              run.retune_ms.size() / 20);
  std::printf("  raw: retune_ms_p50 = %.3f, retune_ms_p95 = %.3f, "
              "throughput_ops_s = %.3f; machine-speed factor %.4f (%zu "
              "probes); tenant-0 serial replay matches: %s\n",
              run.retune_ms.Median(), run.retune_ms.Percentile(95),
              static_cast<double>(run.ops) / run.wall_s, f, speed.samples(),
              replay_ok ? "yes" : "no");

  if (spans == nullptr) return;
  traced.layers.Emit(report);
  auto& l = report->per_layer;
  const PlanCacheStats& pc = traced.plan_cache;
  l["service.queue_ms_p50"] = traced.queue_ms.Median();
  l["service.queue_ms_p95"] = traced.queue_ms.Percentile(95);
  l["service.exec_ms_p50"] = traced.exec_ms.Median();
  l["service.exec_ms_p95"] = traced.exec_ms.Percentile(95);
  l["service.plan_cache.hit_rate"] = pc.HitRate();
  l["service.plan_cache.dup_fill_rate"] =
      pc.template_misses > 0
          ? static_cast<double>(pc.template_misses - pc.template_inserts) /
                static_cast<double>(pc.template_misses)
          : 0;
  l["service.rejected"] = static_cast<double>(traced.rejected);
  l["inum.prepare_s"] = traced.inum_s.Median();
  l["index.cgen_s"] = traced.cgen_s.Median();
  l["workload.compress_s"] = traced.compress_s.Median();
  l["workload.compression_ratio"] = traced.compression_ratio.Median();
  const double tunes = static_cast<double>(traced.tunes);
  l["core.warm_reuse_rate"] = static_cast<double>(traced.warm_reuses) / tunes;
  l["inum.whatif_per_new_class"] =
      traced.new_classes > 0 ? static_cast<double>(traced.whatif_calls) /
                                   static_cast<double>(traced.new_classes)
                             : 0;
  l["optimizer.whatif_calls"] = static_cast<double>(traced.whatif_calls) / tunes;
  l["optimizer.whatif_busy_s"] = traced.whatif_busy_s / tunes;
  for (int m = 0; m < TimedWhatIf::kNumMethods; ++m) {
    l[std::string("optimizer.calls.") + TimedWhatIf::MethodName(m)] =
        static_cast<double>(traced.method_calls[m]) / tunes;
  }
  l["trace.overhead_frac"] =
      run.retune_ms.Median() > 0
          ? traced.retune_ms.Median() / run.retune_ms.Median() - 1
          : 0;
  EmitSelfTimes(report, *spans);
}

}  // namespace perfbench
