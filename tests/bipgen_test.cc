// Tests for core/bipgen: Theorem-1 BIP construction. The central
// property: the literal y/x/z Model and the structured ChoiceProblem
// describe the same optimization problem — on small instances every
// index configuration costs the same in both, and so does the optimum.
// The literal model also serves as the realistic instance for the LP
// layer's warm dual re-solve contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "optimizer/simulator.h"
#include "catalog/catalog.h"
#include "core/bipgen.h"
#include "index/candidates.h"
#include "lp/simplex.h"
#include "workload/generator.h"

namespace cophy {
namespace {

class BipGenTest : public ::testing::Test {
 protected:
  void Prepare(int num_queries, uint64_t seed, double update_fraction = 0.0,
               bool covering = false, bool share_templates = true) {
    cat_ = MakeTpchCatalog(0.1, 0.0);
    pool_ = IndexPool();
    sim_ = std::make_unique<SystemSimulator>(&cat_, &pool_,
                                             CostModel::SystemA());
    WorkloadOptions o;
    o.num_statements = num_queries;
    o.seed = seed;
    o.update_fraction = update_fraction;
    w_ = MakeHomogeneousWorkload(cat_, o);
    CandidateOptions copts;
    copts.max_key_columns = 1;  // keep the model tiny
    copts.covering_variants = covering;
    candidates_ = GenerateCandidates(w_, cat_, copts, pool_);
    InumOptions io;
    // With sharing off every statement is its own leader, so BIPGen
    // materializes one query block per statement (the per-statement
    // structure these tests pin down).
    io.share_templates = share_templates;
    inum_ = std::make_unique<Inum>(sim_.get(), io);
    inum_->Prepare(w_, candidates_);
  }

  Catalog cat_;
  IndexPool pool_;
  std::unique_ptr<SystemSimulator> sim_;
  std::unique_ptr<Inum> inum_;
  Workload w_;
  std::vector<IndexId> candidates_;
};

TEST_F(BipGenTest, StatsCountVariablesAndRows) {
  Prepare(6, 11, 0.0, false, /*share_templates=*/false);
  ConstraintSet cs;
  cs.SetStorageBudget(1e9);
  const BipStats stats = ComputeBipStats(*inum_, candidates_, cs);
  EXPECT_EQ(stats.z_variables, static_cast<int64_t>(candidates_.size()));
  EXPECT_EQ(stats.y_variables, inum_->TotalTemplates());
  EXPECT_GT(stats.x_variables, 0);
  EXPECT_GT(stats.linking_rows, 0);
  EXPECT_EQ(stats.constraint_rows, 1);  // storage only

  const lp::Model m = BuildModel(*inum_, candidates_, cs);
  EXPECT_EQ(m.num_variables(),
            stats.y_variables + stats.x_variables + stats.z_variables);
}

TEST_F(BipGenTest, CanonicalBlocksShrinkStatsLosslessly) {
  // With template sharing on, cost-equivalent statements collapse into
  // one weighted query block: y/x counts shrink while z stays put.
  Prepare(20, 11, 0.0, false, /*share_templates=*/false);
  ConstraintSet cs;
  cs.SetStorageBudget(1e9);
  const BipStats per_statement = ComputeBipStats(*inum_, candidates_, cs);
  Prepare(20, 11, 0.0, false, /*share_templates=*/true);
  const BipStats merged = ComputeBipStats(*inum_, candidates_, cs);
  EXPECT_EQ(merged.z_variables, per_statement.z_variables);
  EXPECT_LT(merged.y_variables, per_statement.y_variables);
  EXPECT_LT(merged.x_variables, per_statement.x_variables);
  EXPECT_GT(inum_->num_shared_statements(), 0);
}

TEST_F(BipGenTest, VariableCountGrowsLinearlyInWorkload) {
  // Same seed → W30 is a statement-wise prefix of W60, so doubling the
  // workload should roughly double ΣK_q (Theorem 1's linearity).
  ConstraintSet cs;
  Prepare(30, 13);
  const BipStats s30 = ComputeBipStats(*inum_, candidates_, cs);
  Prepare(60, 13);
  const BipStats s60 = ComputeBipStats(*inum_, candidates_, cs);
  EXPECT_GT(s60.y_variables, s30.y_variables);
  EXPECT_LT(static_cast<double>(s60.y_variables),
            2.8 * static_cast<double>(s30.y_variables));
}

TEST_F(BipGenTest, ChoiceProblemMirrorsInumCosts) {
  Prepare(6, 17, 0.0, false, /*share_templates=*/false);
  ConstraintSet cs;
  lp::ChoiceProblem p = BuildChoiceProblem(*inum_, candidates_, cs);
  ASSERT_EQ(static_cast<int>(p.queries.size()), w_.size());
  // Selecting everything reproduces the INUM cost of the full set.
  std::vector<uint8_t> all(candidates_.size(), 1);
  const Configuration full(candidates_);
  for (int q = 0; q < w_.size(); ++q) {
    EXPECT_NEAR(p.QueryCost(q, all), inum_->ShellCost(q, full),
                1e-9 + 1e-9 * inum_->ShellCost(q, full));
  }
  std::vector<uint8_t> none(candidates_.size(), 0);
  for (int q = 0; q < w_.size(); ++q) {
    EXPECT_NEAR(p.QueryCost(q, none),
                inum_->ShellCost(q, Configuration::Empty()), 1e-6);
  }
}

TEST_F(BipGenTest, UpdateCostsBecomeFixedCosts) {
  // Covering variants INCLUDE the updated columns, so some candidates
  // are maintenance-affected.
  Prepare(12, 19, /*update_fraction=*/0.4, /*covering=*/true);
  ASSERT_FALSE(w_.UpdateIds().empty());
  ConstraintSet cs;
  lp::ChoiceProblem p = BuildChoiceProblem(*inum_, candidates_, cs);
  double expected_constant = 0;
  for (QueryId uid : w_.UpdateIds()) {
    expected_constant += w_[uid].weight * sim_->BaseUpdateCost(w_[uid]).value();
  }
  EXPECT_NEAR(p.constant_cost, expected_constant, 1e-6);
  bool any_fixed = false;
  for (double f : p.fixed_cost) any_fixed |= f > 0;
  EXPECT_TRUE(any_fixed);  // some candidate is maintained by some update
}

TEST_F(BipGenTest, ModelAndChoiceProblemAgreeOnOptimum) {
  Prepare(3, 23);
  // Shrink further: only the first few candidates, else the literal
  // model is too big for the dense simplex.
  std::vector<IndexId> small(candidates_.begin(),
                             candidates_.begin() +
                                 std::min<size_t>(5, candidates_.size()));
  ConstraintSet cs;
  double budget = 0;
  for (IndexId id : small) budget += IndexSizeBytes(pool_[id], cat_);
  cs.SetStorageBudget(budget * 0.5);  // binding

  lp::ChoiceProblem p = BuildChoiceProblem(*inum_, small, cs);
  lp::ChoiceSolver structured(&p);
  lp::ChoiceSolveOptions copts;
  copts.gap_target = 0.0;
  copts.node_limit = 1000000;
  const lp::ChoiceSolution s1 = structured.Solve(copts);
  ASSERT_TRUE(s1.status.ok());

  // Exhaustive oracle over z in {0,1}^n: BuildModel emits z first, in
  // candidate order. With z fixed, the remaining y/x LP has an integral
  // optimum (each query picks its cheapest available plan), so the LP
  // must be solvable exactly when the configuration is feasible, at
  // exactly the structured objective.
  const lp::Model m = BuildModel(*inum_, small, cs);
  const int n = static_cast<int>(small.size());
  double best = lp::kInf;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<uint8_t> z(n);
    lp::Model fixed = m;
    for (int a = 0; a < n; ++a) {
      z[a] = (mask >> a) & 1;
      fixed.SetVariableBounds(a, z[a], z[a]);
    }
    const lp::LpSolution lp = lp::SolveLp(fixed);
    const bool feasible = p.Feasible(z);
    ASSERT_EQ(lp.status.ok(), feasible)
        << "mask " << mask << ": " << lp.status.ToString();
    if (!feasible) continue;
    EXPECT_TRUE(fixed.IsFeasible(lp.x)) << "fractional optimum, mask " << mask;
    const double objective = p.Objective(z);
    EXPECT_NEAR(lp.objective, objective, 1e-6 + 1e-9 * std::abs(objective))
        << "mask " << mask;
    best = std::min(best, objective);
  }
  EXPECT_NEAR(s1.objective, best, 1e-6 + 1e-9 * std::abs(best));
}

TEST_F(BipGenTest, DualEntryChildrenOfTheRootRunZeroPhase1Pivots) {
  // The warm dual re-solve contract on a real Theorem-1 BIP with a
  // binding budget: branching on a fractional binary only tightens its
  // bounds, so the root-optimal basis stays dual feasible for both
  // children. Re-entered through the dual simplex, each child must run
  // zero primal phase-1 pivots and land on a cold solve's objective.
  //
  // The instance is the LP benchmark's (bench_micro's BipLpEnv: full
  // TPC-H scale, 2 statements, 8 single-column candidates, 570
  // binaries) with the budget at 30% of the candidates' total size, so
  // the root LP is fractional.
  const Catalog cat = MakeTpchCatalog(1.0, 0.0);
  IndexPool pool;
  SystemSimulator sim(&cat, &pool, CostModel::SystemA());
  WorkloadOptions o;
  o.num_statements = 2;
  o.seed = 7;
  const Workload w = MakeHomogeneousWorkload(cat, o);
  CandidateOptions copts;
  copts.max_key_columns = 1;
  std::vector<IndexId> cands = GenerateCandidates(w, cat, copts, pool);
  if (cands.size() > 8) cands.resize(8);
  Inum inum(&sim);
  ASSERT_TRUE(inum.Prepare(w, cands).ok());
  double total = 0;
  for (IndexId id : cands) total += IndexSizeBytes(pool[id], cat);
  ConstraintSet cs;
  cs.SetStorageBudget(0.3 * total);
  const lp::Model m = BuildModel(inum, cands, cs);
  const lp::LpSolution root = lp::SolveLp(m);
  ASSERT_TRUE(root.status.ok()) << root.status.ToString();

  lp::LpOptions dual_entry;
  dual_entry.entry = lp::SimplexEntry::kDual;
  int dual_entered = 0;
  for (int j = 0; j < m.num_variables(); ++j) {
    const double v = root.x[j];
    if (!m.variable(j).is_integer || std::abs(v - std::round(v)) < 1e-6) {
      continue;
    }
    for (const double side : {std::floor(v), std::ceil(v)}) {
      lp::Model child = m;
      child.SetVariableBounds(j, side, side);
      const lp::LpSolution cold = lp::SolveLp(child);
      const lp::LpSolution warm = lp::SolveLp(child, dual_entry, &root.basis);
      ASSERT_EQ(warm.status.code(), cold.status.code())
          << "var " << j << " = " << side << ": " << warm.status.ToString();
      EXPECT_TRUE(warm.stats.warm_started);
      EXPECT_EQ(warm.stats.phase1_pivots, 0) << "var " << j << " = " << side;
      if (warm.stats.dual_entered) ++dual_entered;
      if (!cold.status.ok()) continue;
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-9 + 1e-9 * std::abs(cold.objective))
          << "var " << j << " = " << side;
    }
  }
  EXPECT_GE(dual_entered, 4);
}

TEST_F(BipGenTest, QueryCapsPropagate) {
  Prepare(4, 29);
  ConstraintSet cs;
  cs.AddQueryCostConstraint({0, 0.5, 0.0});
  std::vector<double> baseline(w_.size(), 0.0);
  baseline[0] = inum_->ShellCost(0, Configuration::Empty());
  lp::ChoiceProblem p =
      BuildChoiceProblem(*inum_, candidates_, cs, baseline);
  EXPECT_NEAR(p.queries[0].cost_cap, 0.5 * baseline[0], 1e-9);
  EXPECT_EQ(p.queries[1].cost_cap, lp::kInf);
}

TEST_F(BipGenTest, SubsetCandidatesProduceSubsetProblem) {
  Prepare(6, 31);
  ConstraintSet cs;
  std::vector<IndexId> half(candidates_.begin(),
                            candidates_.begin() + candidates_.size() / 2);
  lp::ChoiceProblem p = BuildChoiceProblem(*inum_, half, cs);
  EXPECT_EQ(p.num_indexes, static_cast<int>(half.size()));
  // Options only reference dense ids within range.
  for (const auto& q : p.queries) {
    for (const auto& plan : q.plans) {
      for (const auto& slot : plan.slots) {
        for (const auto& o : slot.options) {
          EXPECT_LT(o.index, p.num_indexes);
          EXPECT_GE(o.index, lp::kBaseOption);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cophy
