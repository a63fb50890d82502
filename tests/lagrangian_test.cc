// Bound-validity property tests on *real* CoPhy problems (not random
// structures): the solver's node bounds — optimistic + knapsack and the
// Lagrangian at optimized multipliers — must never exceed the optimum
// of any subtree containing the true optimal selection. This is the
// invariant that guarantees branch-and-bound never prunes the optimum
// away (it failed once during development; see choice_problem.cc's
// slot-disjointness precondition).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "optimizer/simulator.h"
#include "catalog/catalog.h"
#include "core/bipgen.h"
#include "index/candidates.h"
#include "lp/choice_problem.h"
#include "workload/generator.h"

namespace cophy {
namespace {

struct RealProblemCase {
  int num_queries;
  uint64_t seed;
  double budget_fraction;
  bool het;
  double zipf;
};

/// Names each case by value. Without it gtest prints the parameter's
/// raw bytes, padding included, so a case's name changed from one
/// process to the next.
void PrintTo(const RealProblemCase& c, std::ostream* os) {
  *os << "q" << c.num_queries << "_seed" << c.seed << "_M"
      << c.budget_fraction << (c.het ? "_het" : "_hom") << "_zipf"
      << c.zipf;
}

class RealProblemBoundTest : public ::testing::TestWithParam<RealProblemCase> {
 protected:
  /// Builds a CoPhy ChoiceProblem over a *small candidate subset* so
  /// brute force stays tractable (≤ 14 indexes → ≤ 16K selections).
  lp::ChoiceProblem Build(const RealProblemCase& c) {
    cat_ = MakeTpchCatalog(0.1, c.zipf);
    sim_ = std::make_unique<SystemSimulator>(&cat_, &pool_,
                                             CostModel::SystemA());
    WorkloadOptions o;
    o.num_statements = c.num_queries;
    o.seed = c.seed;
    Workload w = c.het ? MakeHeterogeneousWorkload(cat_, o)
                       : MakeHomogeneousWorkload(cat_, o);
    CandidateOptions copts;
    copts.extra_variants = false;
    std::vector<IndexId> all = GenerateCandidates(w, cat_, copts, pool_);
    if (all.size() > 14) all.resize(14);
    inum_ = std::make_unique<Inum>(sim_.get());
    inum_->Prepare(w, all);
    ConstraintSet cs;
    double total = 0;
    for (IndexId id : all) total += IndexSizeBytes(pool_[id], cat_);
    cs.SetStorageBudget(c.budget_fraction * total);
    candidates_ = all;
    return BuildChoiceProblem(*inum_, all, cs);
  }

  Catalog cat_;
  IndexPool pool_;
  std::unique_ptr<SystemSimulator> sim_;
  std::unique_ptr<Inum> inum_;
  std::vector<IndexId> candidates_;
};

TEST_P(RealProblemBoundTest, BoundsValidAlongOptimalPath) {
  const lp::ChoiceProblem p = Build(GetParam());
  const int n = p.num_indexes;
  ASSERT_LE(n, 14);

  // Brute-force optimum.
  double best = lp::kInf;
  std::vector<uint8_t> best_sel;
  std::vector<uint8_t> sel(n);
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    for (int i = 0; i < n; ++i) sel[i] = (mask >> i) & 1;
    if (!p.Feasible(sel)) continue;
    const double obj = p.Objective(sel);
    if (obj < best) {
      best = obj;
      best_sel = sel;
    }
  }
  ASSERT_TRUE(std::isfinite(best));

  lp::ChoiceSolver solver(&p);
  const double dual = solver.DebugOptimizeLagrangian(best * 1.1, 200);
  EXPECT_LE(dual, best + 1e-6 + 1e-9 * std::abs(best));

  // Walk fixings consistent with the optimum: every bound must stay a
  // lower bound of `best` (the optimum lives in each such subtree).
  std::vector<int8_t> fixed(n, -1);
  for (int step = 0; step <= n; ++step) {
    const double nb = solver.DebugNodeBound(fixed);
    const double lb = solver.DebugLagrangianBound(fixed);
    EXPECT_LE(nb, best + 1e-6 + 1e-9 * std::abs(best)) << "step " << step;
    EXPECT_LE(lb, best + 1e-6 + 1e-9 * std::abs(best)) << "step " << step;
    if (step < n) fixed[step] = best_sel[step] ? 1 : -1;
    if (step < n && !best_sel[step]) fixed[step] = 0;
  }

  // At the fully-fixed leaf the plain bound is exact.
  for (int i = 0; i < n; ++i) fixed[i] = best_sel[i] ? 1 : 0;
  EXPECT_NEAR(solver.DebugNodeBound(fixed), best,
              1e-6 + 1e-9 * std::abs(best));

  // And the full solve reproduces the brute-force optimum.
  lp::ChoiceSolveOptions so;
  so.gap_target = 0.0;
  so.node_limit = 1000000;
  const lp::ChoiceSolution s = solver.Solve(so);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, best, 1e-6 + 1e-6 * std::abs(best));
}

INSTANTIATE_TEST_SUITE_P(
    RealProblems, RealProblemBoundTest,
    ::testing::Values(RealProblemCase{8, 1, 0.3, false, 0.0},
                      RealProblemCase{8, 2, 0.5, false, 0.0},
                      RealProblemCase{8, 3, 1.0, false, 0.0},
                      RealProblemCase{12, 4, 0.4, true, 0.0},
                      RealProblemCase{12, 5, 0.4, false, 2.0},
                      RealProblemCase{10, 6, 0.25, true, 1.0},
                      RealProblemCase{6, 7, 0.6, false, 1.0},
                      RealProblemCase{14, 8, 0.35, true, 2.0}));

TEST(LagrangianDualTest, ImprovesWithIterations) {
  // More subgradient iterations never worsen the (best-kept) dual.
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = 15;
  o.seed = 3;
  Workload w = MakeHomogeneousWorkload(cat, o);
  std::vector<IndexId> cands = GenerateCandidates(w, cat, CandidateOptions{}, pool);
  Inum inum(&sim);
  inum.Prepare(w, cands);
  ConstraintSet cs;
  cs.SetStorageBudget(0.4 * cat.TotalDataBytes());
  lp::ChoiceProblem p = BuildChoiceProblem(inum, cands, cs);

  std::vector<uint8_t> none(p.num_indexes, 0);
  const double ub = p.Objective(none);
  lp::ChoiceSolver s1(&p), s2(&p);
  const double d10 = s1.DebugOptimizeLagrangian(ub, 10);
  const double d200 = s2.DebugOptimizeLagrangian(ub, 200);
  EXPECT_GE(d200, d10 - 1e-6 * std::abs(d10));
}

TEST(LagrangianDualTest, TightensOnLooseBudget) {
  // With no binding storage constraint the dual should essentially
  // close the gap to the optimum (the inner problem separates).
  Catalog cat = MakeTpchCatalog(0.1, 0.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = 10;
  o.seed = 4;
  Workload w = MakeHomogeneousWorkload(cat, o);
  CandidateOptions copts;
  copts.extra_variants = false;
  std::vector<IndexId> cands = GenerateCandidates(w, cat, copts, pool);
  Inum inum(&sim);
  inum.Prepare(w, cands);
  ConstraintSet cs;  // no budget at all
  lp::ChoiceProblem p = BuildChoiceProblem(inum, cands, cs);

  lp::ChoiceSolver solver(&p);
  lp::ChoiceSolveOptions so;
  so.gap_target = 0.0;
  const lp::ChoiceSolution s = solver.Solve(so);
  ASSERT_TRUE(s.status.ok());
  EXPECT_LE(s.gap, 0.01);  // unconstrained: provably near-exact
}

}  // namespace
}  // namespace cophy
