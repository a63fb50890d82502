// Micro-benchmarks (google-benchmark): the primitive costs behind the
// system-level numbers — what-if optimization vs INUM lookup, BIP
// construction rate, LP solves (sparse revised simplex with and without
// its numerical safeguards vs the seed dense tableau, with pivot
// counts), structured-solver node throughput, and Zipf selectivity
// math.
#include <benchmark/benchmark.h>

#include <cmath>

#include "optimizer/simulator.h"
#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "core/bipgen.h"
#include "index/candidates.h"
#include "inum/inum.h"
#include "lp/choice_problem.h"
#include "lp/dense_simplex.h"
#include "lp/presolve.h"
#include "lp/simplex.h"
#include "workload/generator.h"

namespace cophy {
namespace {

struct MicroEnv {
  Catalog cat = MakeTpchCatalog(1.0, 0.0);
  IndexPool pool;
  SystemSimulator sim{&cat, &pool, CostModel::SystemA()};
  Workload w;
  std::vector<IndexId> cands;
  Inum inum{&sim};

  MicroEnv() {
    WorkloadOptions o;
    o.num_statements = 50;
    o.seed = 9;
    w = MakeHomogeneousWorkload(cat, o);
    cands = GenerateCandidates(w, cat, CandidateOptions{}, pool);
    inum.Prepare(w, cands);
  }
};

MicroEnv& GetEnv() {
  static MicroEnv env;
  return env;
}

void BM_WhatIfOptimization(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  const Configuration x(e.cands);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.sim.Cost(e.w[i++ % e.w.size()], x).value());
  }
}
BENCHMARK(BM_WhatIfOptimization);

void BM_InumCostLookup(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  const Configuration x(e.cands);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.inum.ShellCost(i++ % e.w.size(), x));
  }
}
BENCHMARK(BM_InumCostLookup);

void BM_InumPrepitPerStatement(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  for (auto _ : state) {
    Inum inum(&e.sim);
    Workload one;
    one.Add(e.w[0]);
    inum.Prepare(one, e.cands);
    benchmark::DoNotOptimize(inum.TotalGammaEntries());
  }
}
BENCHMARK(BM_InumPrepitPerStatement);

void BM_BipGeneration(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  ConstraintSet cs;
  cs.SetStorageBudget(e.cat.TotalDataBytes());
  for (auto _ : state) {
    lp::ChoiceProblem p = BuildChoiceProblem(e.inum, e.cands, cs);
    benchmark::DoNotOptimize(p.NumOptionEntries());
  }
}
BENCHMARK(BM_BipGeneration);

void BM_SolverNodeBound(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  ConstraintSet cs;
  cs.SetStorageBudget(0.5 * e.cat.TotalDataBytes());
  static lp::ChoiceProblem p = BuildChoiceProblem(e.inum, e.cands, cs);
  static lp::ChoiceSolver solver(&p);
  std::vector<int8_t> fixed(p.num_indexes, -1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.DebugNodeBound(fixed));
  }
}
BENCHMARK(BM_SolverNodeBound);

// --- LP layer: sparse revised simplex vs the seed dense tableau --------
//
// The acceptance instance for the solver rewrite: the literal Theorem-1
// BIP of a small workload, >= 200 binary variables. The revised solver
// reports its pivot counts as benchmark counters; the dense tableau is
// the "before" side of the comparison.
struct BipLpEnv {
  Catalog cat = MakeTpchCatalog(1.0, 0.0);
  IndexPool pool;
  SystemSimulator sim{&cat, &pool, CostModel::SystemA()};
  Workload w;
  std::vector<IndexId> cands;
  Inum inum{&sim};
  lp::Model model;

  BipLpEnv() {
    WorkloadOptions o;
    o.num_statements = 2;
    o.seed = 7;
    w = MakeHomogeneousWorkload(cat, o);
    CandidateOptions copts;
    copts.max_key_columns = 1;
    cands = GenerateCandidates(w, cat, copts, pool);
    if (cands.size() > 8) cands.resize(8);
    inum.Prepare(w, cands);
    ConstraintSet cs;
    cs.SetStorageBudget(0.25 * cat.TotalDataBytes());
    model = BuildModel(inum, cands, cs);
  }
};

BipLpEnv& GetLpEnv() {
  static BipLpEnv env;
  return env;
}

void ReportLpCounters(benchmark::State& state, const lp::SolverCounters& c) {
  const double solves = std::max<int64_t>(1, c.lp_solves);
  state.counters["lp_solves"] =
      benchmark::Counter(static_cast<double>(c.lp_solves));
  state.counters["phase1_pivots_per_solve"] =
      benchmark::Counter(static_cast<double>(c.phase1_pivots) / solves);
  state.counters["phase2_pivots_per_solve"] =
      benchmark::Counter(static_cast<double>(c.phase2_pivots) / solves);
  state.counters["dual_pivots_per_solve"] =
      benchmark::Counter(static_cast<double>(c.dual_pivots) / solves);
  state.counters["bound_flips_per_solve"] =
      benchmark::Counter(static_cast<double>(c.bound_flips) / solves);
  state.counters["devex_resets"] =
      benchmark::Counter(static_cast<double>(c.devex_resets));
  state.counters["warm_starts"] =
      benchmark::Counter(static_cast<double>(c.warm_starts));
  // Sparse-LU basis accounting: fresh factorizations, Forrest–Tomlin
  // updates and their fill, and the wall time spent inside FTRAN/BTRAN
  // solves (µs per LP solve) — the cost profile the lu_factor layer is
  // accountable for.
  state.counters["refactorizations"] =
      benchmark::Counter(static_cast<double>(c.factorizations) / solves);
  state.counters["ft_updates_per_solve"] =
      benchmark::Counter(static_cast<double>(c.ft_updates) / solves);
  state.counters["eta_nnz"] =
      benchmark::Counter(static_cast<double>(c.eta_nnz) / solves);
  state.counters["ftran_btran_us"] =
      benchmark::Counter(1e6 * c.ftran_btran_seconds / solves);
  // Numerical-safeguard accounting: certification outcomes plus the
  // recovery-ladder escalations (all zero when safeguards are off).
  state.counters["certified_solves"] =
      benchmark::Counter(static_cast<double>(c.certified_solves));
  state.counters["uncertified_solves"] =
      benchmark::Counter(static_cast<double>(c.uncertified_solves));
  state.counters["refinement_rounds"] =
      benchmark::Counter(static_cast<double>(c.refinement_rounds));
  state.counters["perturbations_applied"] =
      benchmark::Counter(static_cast<double>(c.perturbations_applied));
  state.counters["bland_escalations"] =
      benchmark::Counter(static_cast<double>(c.bland_escalations));
  state.counters["markowitz_escalations"] =
      benchmark::Counter(static_cast<double>(c.markowitz_escalations));
  state.counters["singular_repairs"] =
      benchmark::Counter(static_cast<double>(c.singular_repairs));
  state.counters["cold_restarts"] =
      benchmark::Counter(static_cast<double>(c.cold_restarts));
}

void BM_LpSolveRevisedSimplex(benchmark::State& state) {
  BipLpEnv& e = GetLpEnv();
  const lp::SolverCounters before = lp::SolverCountersSnapshot();
  for (auto _ : state) {
    const lp::LpSolution s = lp::SolveLp(e.model);
    if (!s.status.ok()) state.SkipWithError("LP solve failed");
    benchmark::DoNotOptimize(s.objective);
  }
  ReportLpCounters(state, lp::SolverCountersSince(before));
  state.counters["binary_vars"] =
      benchmark::Counter(static_cast<double>(e.model.num_variables()));
}
BENCHMARK(BM_LpSolveRevisedSimplex)->Unit(benchmark::kMillisecond);

// The same solve with the numerical safeguards off — no stall
// watchdog, no certification pass, no refinement (scaling stays on).
// BM_LpSolveRevisedSimplex (safeguards on, the default) vs this is the
// safeguard-overhead story; CI gates the ratio at 1.10x.
void BM_LpSolveNoSafeguards(benchmark::State& state) {
  BipLpEnv& e = GetLpEnv();
  const lp::SolverCounters before = lp::SolverCountersSnapshot();
  lp::LpOptions options;
  options.safeguards = false;
  for (auto _ : state) {
    const lp::LpSolution s = lp::SolveLp(e.model, options);
    if (!s.status.ok()) state.SkipWithError("LP solve failed");
    benchmark::DoNotOptimize(s.objective);
  }
  ReportLpCounters(state, lp::SolverCountersSince(before));
  state.counters["binary_vars"] =
      benchmark::Counter(static_cast<double>(e.model.num_variables()));
}
BENCHMARK(BM_LpSolveNoSafeguards)->Unit(benchmark::kMillisecond);

void BM_LpSolveDenseTableau(benchmark::State& state) {
  BipLpEnv& e = GetLpEnv();
  for (auto _ : state) {
    const lp::LpSolution s = lp::SolveLpDense(e.model);
    if (!s.status.ok()) state.SkipWithError("LP solve failed");
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["binary_vars"] =
      benchmark::Counter(static_cast<double>(e.model.num_variables()));
}
BENCHMARK(BM_LpSolveDenseTableau)->Unit(benchmark::kMillisecond);

// Structured solve on a tight budget with the full root machinery:
// presolve + root LP + dual-seeded Lagrangian + reduced-cost fixing.
// Counters carry the bound-quality story into the JSON artifact:
// root_gap_pct (objective vs root LP bound), proven_gap_pct at return,
// proof10_seconds (time until the proven gap reached 10%), and the
// presolve/fixing reductions.
void BM_ChoiceSolveTightBudgetRootBounds(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  ConstraintSet cs;
  cs.SetStorageBudget(0.25 * e.cat.TotalDataBytes());
  static lp::ChoiceProblem p = BuildChoiceProblem(e.inum, e.cands, cs);
  double root_gap = -1, proven_gap = -1, proof10 = -1;
  double fixed = 0, plans_removed = 0;
  for (auto _ : state) {
    lp::ChoiceSolveOptions so;
    so.gap_target = 0.05;
    so.node_limit = 4000;
    double first10 = -1;
    so.callback = bench::ProofTimer(&first10);
    lp::PresolveStats ps;
    const lp::ChoiceSolution sol = lp::SolveChoiceProblem(p, so, &ps);
    if (!sol.status.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(sol.objective);
    proven_gap = 100 * sol.gap;
    proof10 = first10;
    fixed = static_cast<double>(sol.variables_fixed);
    plans_removed = static_cast<double>(ps.PlansRemoved());
    root_gap = bench::RootGapPct(sol.objective, sol.root_lp_bound);
  }
  state.counters["root_gap_pct"] = benchmark::Counter(root_gap);
  state.counters["proven_gap_pct"] = benchmark::Counter(proven_gap);
  state.counters["proof10_seconds"] = benchmark::Counter(proof10);
  state.counters["variables_fixed"] = benchmark::Counter(fixed);
  state.counters["presolve_plans_removed"] = benchmark::Counter(plans_removed);
}
BENCHMARK(BM_ChoiceSolveTightBudgetRootBounds)->Unit(benchmark::kMillisecond);

void BM_ZipfSelectivity(benchmark::State& state) {
  Catalog cat = MakeTpchCatalog(1.0, 2.0);
  const TableId li = cat.FindTable("lineitem");
  const ColumnId sd = cat.FindColumn(li, "l_shipdate");
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q >= 1) q = 0;
    benchmark::DoNotOptimize(cat.RangeSelectivity(sd, q, 0.1));
  }
}
BENCHMARK(BM_ZipfSelectivity);

void BM_CandidateGeneration(benchmark::State& state) {
  MicroEnv& e = GetEnv();
  for (auto _ : state) {
    IndexPool pool;
    benchmark::DoNotOptimize(
        GenerateCandidates(e.w, e.cat, CandidateOptions{}, pool));
  }
}
BENCHMARK(BM_CandidateGeneration);

}  // namespace
}  // namespace cophy

BENCHMARK_MAIN();
