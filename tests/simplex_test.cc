// Unit tests for lp/: the CSR/CSC Model container, the sparse LU basis
// factorization (lp/lu_factor.h), and the sparse bounded-variable
// revised simplex, differentially validated against the retained dense
// tableau oracle (lp/dense_simplex.h).
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "lp/dense_simplex.h"
#include "lp/lu_factor.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace cophy::lp {
namespace {

/// Feasibility of an LP point w.r.t. rows and bounds, ignoring
/// integrality.
bool LpFeasible(const Model& m, const std::vector<double>& x,
                double eps = 1e-6) {
  if (static_cast<int>(x.size()) != m.num_variables()) return false;
  for (int i = 0; i < m.num_variables(); ++i) {
    if (x[i] < m.variable(i).lower - eps || x[i] > m.variable(i).upper + eps) {
      return false;
    }
  }
  for (int r = 0; r < m.num_rows(); ++r) {
    const RowView rv = m.row(r);
    double lhs = 0;
    for (int k = 0; k < rv.nnz; ++k) lhs += rv.vals[k] * x[rv.cols[k]];
    switch (rv.sense) {
      case Sense::kLe:
        if (lhs > rv.rhs + eps) return false;
        break;
      case Sense::kGe:
        if (lhs < rv.rhs - eps) return false;
        break;
      case Sense::kEq:
        if (std::abs(lhs - rv.rhs) > eps) return false;
        break;
    }
  }
  return true;
}

TEST(ModelTest, VariablesAndRows) {
  Model m;
  const VarId x = m.AddVariable(0, 10, 1.0, false, "x");
  const VarId y = m.AddBinary(-2.0, "y");
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_FALSE(m.variable(x).is_integer);
  EXPECT_TRUE(m.variable(y).is_integer);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 5.0, "r"});
  EXPECT_EQ(m.num_rows(), 1);
}

TEST(ModelTest, ObjectiveValueWithConstant) {
  Model m;
  m.AddVariable(0, 10, 2.0, false);
  m.AddObjectiveConstant(7.0);
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({3.0}), 13.0);
}

TEST(ModelTest, FeasibilityChecks) {
  Model m;
  const VarId x = m.AddBinary(1.0);
  m.AddRow({{{x, 1.0}}, Sense::kGe, 1.0, ""});
  EXPECT_TRUE(m.IsFeasible({1.0}));
  EXPECT_FALSE(m.IsFeasible({0.0}));   // row violated
  EXPECT_FALSE(m.IsFeasible({0.5}));   // integrality violated
  EXPECT_FALSE(m.IsFeasible({2.0}));   // bound violated
}

// --- Simplex -----------------------------------------------------------

TEST(SimplexTest, SimpleTwoVariableLp) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2  (opt at x=2, y=2: -6)
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false, "x");
  const VarId y = m.AddVariable(0, 2, -2.0, false, "y");
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, -6.0, 1e-7);
  EXPECT_NEAR(s.x[x], 2.0, 1e-7);
  EXPECT_NEAR(s.x[y], 2.0, 1e-7);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y  s.t. x + y = 3, x,y in [0, 5]  (objective 3 everywhere)
  Model m;
  const VarId x = m.AddVariable(0, 5, 1.0, false);
  const VarId y = m.AddVariable(0, 5, 1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 3.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_NEAR(s.x[x] + s.x[y], 3.0, 1e-7);
}

TEST(SimplexTest, GreaterEqualConstraint) {
  // min 2x + 3y  s.t. x + y >= 4, x <= 2  → x=2, y=2, obj=10
  Model m;
  const VarId x = m.AddVariable(0, 2, 2.0, false);
  const VarId y = m.AddVariable(0, 100, 3.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kGe, 4.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

TEST(SimplexTest, InfeasibleDetected) {
  Model m;
  const VarId x = m.AddVariable(0, 1, 1.0, false);
  m.AddRow({{{x, 1.0}}, Sense::kGe, 2.0, ""});
  const LpSolution s = SolveLp(m);
  EXPECT_EQ(s.status.code(), StatusCode::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Model m;
  const VarId x = m.AddVariable(0, std::numeric_limits<double>::infinity(),
                                -1.0, false);
  (void)x;
  const LpSolution s = SolveLp(m);
  EXPECT_EQ(s.status.code(), StatusCode::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // min x  s.t. -x <= -2  (i.e. x >= 2)
  Model m;
  const VarId x = m.AddVariable(0, 10, 1.0, false);
  m.AddRow({{{x, -1.0}}, Sense::kLe, -2.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.x[x], 2.0, 1e-7);
}

TEST(SimplexTest, BoundOverrides) {
  Model m;
  const VarId x = m.AddVariable(0, 10, -1.0, false);
  Model tightened = m;
  tightened.SetVariableBounds(x, 0.0, 4.0);
  const LpSolution s = SolveLp(tightened);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.x[x], 4.0, 1e-7);
  // Crossed bounds written straight through variable() bypass the
  // SetVariableBounds latch; the solve itself reports them.
  Model crossed = m;
  crossed.variable(x).lower = 5.0;
  crossed.variable(x).upper = 4.0;
  EXPECT_EQ(SolveLp(crossed).status.code(), StatusCode::kInfeasible);
}

TEST(SimplexTest, NonZeroLowerBounds) {
  // min x + y s.t. x + y >= 5, x in [1,10], y in [2,10] → obj 5.
  Model m;
  const VarId x = m.AddVariable(1, 10, 1.0, false);
  const VarId y = m.AddVariable(2, 10, 1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kGe, 5.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
  EXPECT_GE(s.x[x], 1.0 - 1e-9);
  EXPECT_GE(s.x[y], 2.0 - 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  Model m;
  const VarId x = m.AddVariable(0, 10, -1.0, false);
  const VarId y = m.AddVariable(0, 10, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  m.AddRow({{{x, 2.0}, {y, 2.0}}, Sense::kLe, 8.0, ""});
  m.AddRow({{{x, 1.0}}, Sense::kLe, 4.0, ""});
  m.AddRow({{{y, 1.0}}, Sense::kLe, 4.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, -4.0, 1e-6);
}

TEST(SimplexTest, FractionalLpRelaxationOfKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binaries relaxed) → a=b=1... with
  // upper bounds 1: relaxation picks a=1, b=1, obj=-16.
  Model m;
  const VarId a = m.AddBinary(-10);
  const VarId b = m.AddBinary(-6);
  const VarId c = m.AddBinary(-4);
  m.AddRow({{{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::kLe, 2.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, -16.0, 1e-6);
}

// --- CSR/CSC storage ----------------------------------------------------

TEST(ModelTest, RowAndColumnViews) {
  Model m;
  const VarId x = m.AddVariable(0, 10, 1.0, false, "x");
  const VarId y = m.AddVariable(0, 10, 2.0, false, "y");
  const VarId z = m.AddVariable(0, 10, 3.0, false, "z");
  m.AddRow({{{x, 1.0}, {z, 3.0}}, Sense::kLe, 5.0, "r0"});
  m.BeginRow(Sense::kGe, 2.0, "r1");
  m.AddTerm(y, 4.0);
  m.AddTerm(z, -1.0);
  EXPECT_EQ(m.EndRow(), 1);
  m.AddRow({{x, 7.0}}, Sense::kEq, 7.0, "r2");  // term-list overload
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.num_nonzeros(), 5);

  const RowView r0 = m.row(0);
  ASSERT_EQ(r0.nnz, 2);
  EXPECT_EQ(r0.cols[0], x);
  EXPECT_DOUBLE_EQ(r0.vals[1], 3.0);
  EXPECT_EQ(r0.sense, Sense::kLe);
  EXPECT_EQ(m.row_name(1), "r1");

  // Column views are the exact transpose.
  const ColumnView cz = m.column(z);
  ASSERT_EQ(cz.nnz, 2);
  EXPECT_EQ(cz.rows[0], 0);
  EXPECT_DOUBLE_EQ(cz.vals[0], 3.0);
  EXPECT_EQ(cz.rows[1], 1);
  EXPECT_DOUBLE_EQ(cz.vals[1], -1.0);
  const ColumnView cx = m.column(x);
  ASSERT_EQ(cx.nnz, 2);
  EXPECT_EQ(cx.rows[1], 2);
}

TEST(ModelTest, ColumnViewsRebuildAfterNewRows) {
  Model m;
  const VarId x = m.AddVariable(0, 1, 0.0, false);
  m.AddRow({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  EXPECT_EQ(m.column(x).nnz, 1);
  m.AddRow({{{x, 2.0}}, Sense::kLe, 2.0, ""});
  EXPECT_EQ(m.column(x).nnz, 2);  // cache invalidated and rebuilt
}

// --- Bounded-variable edge cases ----------------------------------------

TEST(SimplexTest, FixedVariableBounds) {
  // lo == hi pins the variable; the rest optimizes around it.
  Model m;
  const VarId x = m.AddVariable(3, 3, 5.0, false);   // fixed at 3
  const VarId y = m.AddVariable(0, 10, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 8.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
  EXPECT_NEAR(s.x[y], 5.0, 1e-7);
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

TEST(SimplexTest, InfiniteUpperBoundWithBindingRow) {
  // min -x st x <= 7 as a row; variable itself unbounded above.
  Model m;
  const VarId x = m.AddVariable(0, std::numeric_limits<double>::infinity(),
                                -1.0, false);
  m.AddRow({{{x, 1.0}}, Sense::kLe, 7.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.x[x], 7.0, 1e-7);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y st x + y >= -3, x,y in [-5, 5] → objective -3.
  Model m;
  const VarId x = m.AddVariable(-5, 5, 1.0, false);
  const VarId y = m.AddVariable(-5, 5, 1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kGe, -3.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, -3.0, 1e-6);
}

TEST(SimplexTest, MixedMagnitudeRowsStayAccurate) {
  // A storage-style row with 1e9-scale coefficients next to unit
  // linking rows (the conditioning case behind the row equilibration).
  Model m;
  const VarId a = m.AddBinary(-10);
  const VarId b = m.AddBinary(-6);
  const VarId z = m.AddBinary(1);
  m.AddRow({{{a, 2e9}, {b, 3e9}}, Sense::kLe, 4e9, ""});
  m.AddRow({{{z, 1.0}, {a, -1.0}}, Sense::kGe, 0.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  // a = 1 (forces z = 1), b = 2/3: -10 + 1 - 4 = -13.
  EXPECT_NEAR(s.objective, -13.0, 1e-6);
}

// --- Pivot accounting and basis export/import ----------------------------

TEST(SimplexTest, StatsAndGlobalCountersAccumulate) {
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  const VarId y = m.AddVariable(0, 2, -2.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  ResetSolverCounters();
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  const SolverCounters c = SolverCountersSnapshot();
  EXPECT_EQ(c.lp_solves, 1);
  EXPECT_EQ(c.cold_starts, 1);
  EXPECT_EQ(c.warm_starts, 0);
  EXPECT_EQ(c.phase1_pivots + c.phase2_pivots + c.bound_flips,
            s.stats.phase1_pivots + s.stats.phase2_pivots +
                s.stats.bound_flips);
  EXPECT_GT(s.stats.phase2_pivots + s.stats.bound_flips, 0);
}

TEST(SimplexTest, ExportsDualsAndReducedCosts) {
  // min -x - 2y  s.t. x + y <= 4, x in [0,3], y in [0,2]. Optimum
  // x=2, y=2: the row binds with dual -1 (<= row in a minimization),
  // x is basic (reduced cost 0), y sits at its upper bound with
  // reduced cost -2 - (-1) = -1.
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false, "x");
  const VarId y = m.AddVariable(0, 2, -2.0, false, "y");
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  ASSERT_EQ(s.duals.size(), 1u);
  ASSERT_EQ(s.reduced_costs.size(), 2u);
  EXPECT_NEAR(s.duals[0], -1.0, 1e-7);
  EXPECT_NEAR(s.reduced_costs[x], 0.0, 1e-7);
  EXPECT_NEAR(s.reduced_costs[y], -1.0, 1e-7);
}

TEST(SimplexTest, DualsUnscaledDespiteRowEquilibration) {
  // A 1e9-scale row: the exported dual must be in the *original* row
  // units (y ≈ -1e-9 per byte here), i.e. d_j = c_j - y'A_j holds with
  // the model's own coefficients.
  Model m;
  const VarId a = m.AddBinary(-10);
  const VarId b = m.AddBinary(-6);
  m.AddRow({{{a, 2e9}, {b, 3e9}}, Sense::kLe, 4e9, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  for (VarId j : {a, b}) {
    double d = m.variable(j).objective;
    const RowView rv = m.row(0);
    for (int k = 0; k < rv.nnz; ++k) {
      if (rv.cols[k] == j) d -= s.duals[0] * rv.vals[k];
    }
    EXPECT_NEAR(d, s.reduced_costs[j], 1e-6) << "var " << j;
  }
}

TEST(SimplexTest, ReimportedBasisSolvesWithZeroPivots) {
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  const VarId y = m.AddVariable(0, 2, -2.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  const LpSolution first = SolveLp(m);
  ASSERT_TRUE(first.status.ok());
  ASSERT_FALSE(first.basis.empty());
  const LpSolution again = SolveLp(m, {}, &first.basis);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.stats.warm_started);
  EXPECT_EQ(again.stats.phase1_pivots, 0);
  EXPECT_EQ(again.stats.phase2_pivots, 0);
  EXPECT_NEAR(again.objective, first.objective, 1e-9);
}

TEST(SimplexTest, WarmStartUnderTightenedBoundsMatchesCold) {
  // Branch-and-bound's exact usage: re-solve with one binary fixed.
  Model m;
  const VarId a = m.AddBinary(-10);
  const VarId b = m.AddBinary(-6);
  const VarId c = m.AddBinary(-4);
  m.AddRow({{{a, 5.0}, {b, 4.0}, {c, 3.0}}, Sense::kLe, 8.0, ""});
  const LpSolution root = SolveLp(m);
  ASSERT_TRUE(root.status.ok());
  Model child = m;
  child.SetVariableBounds(a, 0.0, 0.0);  // fix the branched variable to zero
  const LpSolution cold = SolveLp(child);
  const LpSolution warm = SolveLp(child, {}, &root.basis);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
}

TEST(SimplexTest, DualEntryNodeResolveSkipsPhase1BitForBit) {
  // The branch-and-bound node contract: a parent-optimal basis
  // re-imported under a tightened bound is dual feasible, so the dual
  // simplex repairs the violation with zero primal phase-1 (and zero
  // primal phase-2) pivots — and lands on the *same vertex* as a cold
  // solve of the child, so the objectives agree bit for bit.
  Model m;
  const VarId a = m.AddBinary(-10);
  const VarId b = m.AddBinary(-6);
  const VarId c = m.AddBinary(-4);
  m.AddRow({{{a, 5.0}, {b, 4.0}, {c, 3.0}}, Sense::kLe, 8.0, ""});
  const LpSolution root = SolveLp(m);
  ASSERT_TRUE(root.status.ok());

  // Branch down on `a` (basic and fractional at the root).
  Model child = m;
  child.SetVariableBounds(a, 0.0, 0.0);
  const LpSolution cold = SolveLp(child);
  ASSERT_TRUE(cold.status.ok());

  LpOptions dual_entry;
  dual_entry.entry = SimplexEntry::kDual;
  const LpSolution warm = SolveLp(child, dual_entry, &root.basis);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_TRUE(warm.stats.dual_entered);
  EXPECT_EQ(warm.stats.phase1_pivots, 0);
  EXPECT_EQ(warm.stats.phase2_pivots, 0);
  EXPECT_GE(warm.stats.dual_pivots, 1);  // the violated bound pivots out
  // Both solves sit on the vertex x = (0, 1, 1): identical doubles.
  EXPECT_EQ(warm.objective, cold.objective);
  for (int j = 0; j < m.num_variables(); ++j) {
    EXPECT_EQ(warm.x[j], cold.x[j]) << "var " << j;
  }
}

TEST(SimplexTest, DualEntryProvesChildInfeasibleWithoutPhase1) {
  // An over-tightened child must come back Infeasible straight from the
  // dual ratio test (a violated row with no entering candidate), again
  // with zero primal phase-1 work.
  Model m;
  const VarId x = m.AddVariable(0, 5, -1.0, false);
  const VarId y = m.AddVariable(0, 5, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kGe, 4.0, ""});
  const LpSolution root = SolveLp(m);
  ASSERT_TRUE(root.status.ok());

  Model tightened = m;  // x + y <= 2 < 4: empty
  tightened.SetVariableBounds(x, 0.0, 1.0);
  tightened.SetVariableBounds(y, 0.0, 1.0);
  LpOptions dual_entry;
  dual_entry.entry = SimplexEntry::kDual;
  const LpSolution child = SolveLp(tightened, dual_entry, &root.basis);
  EXPECT_EQ(child.status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(child.stats.phase1_pivots, 0);
}

TEST(SimplexTest, PricingRulesAgreeOnTheOptimum) {
  // Devex and Dantzig must land on the same objective (possibly via
  // different pivot sequences) on a degenerate-ish multi-row LP.
  Model m;
  std::vector<VarId> v;
  for (int i = 0; i < 8; ++i) {
    v.push_back(m.AddVariable(0, 2, -1.0 - 0.25 * i, false));
  }
  for (int r = 0; r < 5; ++r) {
    Row row;
    row.sense = Sense::kLe;
    row.rhs = 4.0 + r;
    for (int i = r; i < 8; i += 2) row.terms.push_back({v[i], 1.0 + (i & 1)});
    m.AddRow(std::move(row));
  }
  LpOptions dantzig;
  dantzig.pricing = Pricing::kDantzig;
  LpOptions devex;
  devex.pricing = Pricing::kDevex;
  const LpSolution sd = SolveLp(m, dantzig);
  const LpSolution sv = SolveLp(m, devex);
  ASSERT_TRUE(sd.status.ok());
  ASSERT_TRUE(sv.status.ok());
  EXPECT_NEAR(sd.objective, sv.objective, 1e-9 + 1e-9 * std::abs(sd.objective));
}

TEST(SimplexTest, UnusableBasisFallsBackToColdStart) {
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  m.AddRow({{{x, 1.0}}, Sense::kLe, 2.0, ""});
  LpBasis junk;
  junk.variables = {VarStatus::kBasic};  // wrong slack count
  const LpSolution s = SolveLp(m, {}, &junk);
  ASSERT_TRUE(s.status.ok());
  EXPECT_FALSE(s.stats.warm_started);
  EXPECT_NEAR(s.x[x], 2.0, 1e-7);
}

// --- Input validation: NaN/Inf never reach the factorization -------------

TEST(ModelValidationTest, NanVariableBoundLatchesInvalidArgument) {
  Model m;
  m.AddVariable(std::numeric_limits<double>::quiet_NaN(), 1.0, 0.0, false);
  EXPECT_EQ(m.input_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveLp(m).status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelValidationTest, NonFiniteObjectiveCoefficientLatches) {
  Model m;
  m.AddVariable(0.0, 1.0, std::numeric_limits<double>::infinity(), false);
  EXPECT_EQ(m.input_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveLp(m).status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelValidationTest, SetVariableBoundsRejectsNanAndKeepsOldBounds) {
  Model m;
  const VarId x = m.AddVariable(1.0, 2.0, 0.0, false);
  m.SetVariableBounds(x, std::numeric_limits<double>::quiet_NaN(), 3.0);
  EXPECT_EQ(m.input_status().code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 1.0);  // unchanged
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 2.0);
}

TEST(ModelValidationTest, SetVariableBoundsRejectsCrossedBounds) {
  Model m;
  const VarId x = m.AddVariable(0.0, 1.0, 0.0, false);
  m.SetVariableBounds(x, 2.0, 1.0);
  EXPECT_EQ(m.input_status().code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 1.0);
}

TEST(ModelValidationTest, NonFiniteRowRhsLatches) {
  Model m;
  const VarId x = m.AddVariable(0.0, 1.0, -1.0, false);
  m.BeginRow(Sense::kLe, std::numeric_limits<double>::infinity());
  m.AddTerm(x, 1.0);
  m.EndRow();
  EXPECT_EQ(m.input_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveLp(m).status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelValidationTest, NonFiniteRowCoefficientLatchesAndIsDropped) {
  Model m;
  const VarId x = m.AddVariable(0.0, 1.0, -1.0, false);
  m.BeginRow(Sense::kLe, 1.0);
  m.AddTerm(x, std::numeric_limits<double>::quiet_NaN());
  m.EndRow();
  EXPECT_EQ(m.num_nonzeros(), 0);  // the poisoned term never lands
  EXPECT_EQ(m.input_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveLp(m).status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelValidationTest, FirstLatchedErrorWins) {
  Model m;
  m.AddVariable(std::numeric_limits<double>::quiet_NaN(), 1.0, 0.0, false);
  m.BeginRow(Sense::kLe, std::numeric_limits<double>::infinity());
  m.EndRow();
  EXPECT_NE(m.input_status().ToString().find("NaN variable bound"),
            std::string::npos)
      << m.input_status().ToString();
}

TEST(ModelValidationTest, NanBoundOverrideRejectedBySolve) {
  // A NaN bound written straight through variable() bypasses the
  // SetVariableBounds latch; the solve must still refuse it.
  Model m;
  const VarId x = m.AddVariable(0.0, 1.0, -1.0, false);
  m.AddRow({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  ASSERT_TRUE(m.input_status().ok());
  Model nan_lower = m;
  nan_lower.variable(x).lower = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SolveLp(nan_lower).status.code(), StatusCode::kInvalidArgument);
  Model nan_upper = m;
  nan_upper.variable(x).upper = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SolveLp(nan_upper).status.code(), StatusCode::kInvalidArgument);
}

// --- Numerical safeguards: certification and the recovery ladder --------

TEST(SimplexTest, SolutionsCertifyWithSafeguardsOn) {
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  const VarId y = m.AddVariable(0, 2, -2.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_TRUE(s.stats.certified);
  EXPECT_LE(s.stats.primal_residual, 1e-6);
  EXPECT_LE(s.stats.dual_residual, 1e-6);
  EXPECT_LE(s.stats.objective_gap, 1e-6);

  // The ablation baseline never claims certification.
  LpOptions off;
  off.safeguards = false;
  const LpSolution raw = SolveLp(m, off);
  ASSERT_TRUE(raw.status.ok());
  EXPECT_FALSE(raw.stats.certified);
  EXPECT_NEAR(raw.objective, s.objective, 1e-9);
}

TEST(SimplexTest, ScalingModesAgreeOnTheOptimum) {
  // Wide dynamic range: a 1e9-scale storage row against unit linking
  // rows. Geometric-mean column scaling and the legacy row
  // equilibration must land on the same (unscaled) optimum, duals
  // included.
  Model m;
  const VarId a = m.AddBinary(-10);
  const VarId b = m.AddBinary(-6);
  const VarId z = m.AddBinary(1);
  m.AddRow({{{a, 2e9}, {b, 3e9}}, Sense::kLe, 4e9, ""});
  m.AddRow({{{z, 1.0}, {a, -1.0}}, Sense::kGe, 0.0, ""});
  LpOptions geo;
  geo.scaling = LpScaling::kGeometricMean;
  LpOptions rows;
  rows.scaling = LpScaling::kRowEquilibrate;
  const LpSolution sg = SolveLp(m, geo);
  const LpSolution sr = SolveLp(m, rows);
  ASSERT_TRUE(sg.status.ok());
  ASSERT_TRUE(sr.status.ok());
  EXPECT_NEAR(sg.objective, -13.0, 1e-6);
  EXPECT_NEAR(sr.objective, -13.0, 1e-6);
  ASSERT_EQ(sg.duals.size(), sr.duals.size());
  for (size_t r = 0; r < sg.duals.size(); ++r) {
    EXPECT_NEAR(sg.duals[r], sr.duals[r], 1e-9 + 1e-6 * std::abs(sr.duals[r]))
        << "row " << r;
  }
}

TEST(SimplexTest, SingularWarmImportRepairedThroughSlackSubstitution) {
  // Two structural columns that are exact copies (duplicated rows), both
  // marked basic: the imported basis matrix is singular. The recovery
  // ladder must raise the Markowitz threshold, then swap the dependent
  // column for an uncovered row's slack — and still reach the certified
  // optimum instead of falling back to a cold start.
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  const VarId y = m.AddVariable(0, 3, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  LpBasis sick;
  sick.variables = {VarStatus::kBasic, VarStatus::kBasic};
  sick.slacks = {VarStatus::kAtLower, VarStatus::kAtLower};
  const LpSolution s = SolveLp(m, {}, &sick);
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_TRUE(s.stats.warm_started);  // repaired, not rejected
  EXPECT_GE(s.stats.markowitz_escalations, 1);
  EXPECT_GE(s.stats.singular_repairs, 1);
  EXPECT_TRUE(s.stats.certified);
  EXPECT_NEAR(s.objective, -4.0, 1e-6);
}

TEST(SimplexTest, StallWatchdogPerturbsThenCleansUp) {
  // The only improving column is blocked by slacks already at zero
  // (y <= x rows with x = 0), so the first pivots are forced to be
  // degenerate. With the watchdog hair-triggered, the solve must
  // install a bound perturbation, finish, remove it again, and still
  // certify the exact optimum.
  Model m;
  const VarId x = m.AddVariable(0, 2, 0.0, false);
  const VarId y = m.AddVariable(0, 2, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0, ""});
  m.AddRow({{{x, -1.0}, {y, 1.0}}, Sense::kLe, 0.0, ""});
  m.AddRow({{{x, -1.0}, {y, 1.0}}, Sense::kLe, 0.0, ""});
  LpOptions options;
  options.stall_pivot_limit = 1;  // first degenerate pivot escalates
  const LpSolution s = SolveLp(m, options);
  ASSERT_TRUE(s.status.ok());
  EXPECT_NEAR(s.objective, -0.5, 1e-7);
  EXPECT_GE(s.stats.perturbations_applied, 1);
  // Every installed round came back out before the verdict.
  EXPECT_EQ(s.stats.perturbations_applied, s.stats.perturbations_removed);
  EXPECT_TRUE(s.stats.certified);
  // And the exported point is exact, not perturbed.
  EXPECT_TRUE(LpFeasible(m, s.x, 1e-9));
}

TEST(SimplexTest, SafeguardCountersReachTheGlobalTotals) {
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  const VarId y = m.AddVariable(0, 3, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  LpBasis sick;
  sick.variables = {VarStatus::kBasic, VarStatus::kBasic};
  sick.slacks = {VarStatus::kAtLower, VarStatus::kAtLower};
  const SolverCounters before = SolverCountersSnapshot();
  const LpSolution s = SolveLp(m, {}, &sick);
  ASSERT_TRUE(s.status.ok());
  const SolverCounters delta = SolverCountersSince(before);
  EXPECT_EQ(delta.certified_solves + delta.uncertified_solves, 1);
  EXPECT_EQ(delta.singular_repairs, s.stats.singular_repairs);
  EXPECT_EQ(delta.markowitz_escalations, s.stats.markowitz_escalations);
  EXPECT_EQ(delta.perturbations_applied, s.stats.perturbations_applied);
  EXPECT_EQ(delta.perturbations_removed, s.stats.perturbations_removed);
}

// --- Sparse LU basis factorization ---------------------------------------

/// Builds the CSC arrays of a dense column-major matrix (zeros skipped).
struct CscMatrix {
  std::vector<int32_t> start{0};
  std::vector<int32_t> rows;
  std::vector<double> vals;
};
CscMatrix ToCsc(const std::vector<std::vector<double>>& cols) {
  CscMatrix csc;
  for (const auto& col : cols) {
    for (size_t r = 0; r < col.size(); ++r) {
      if (col[r] != 0.0) {
        csc.rows.push_back(static_cast<int32_t>(r));
        csc.vals.push_back(col[r]);
      }
    }
    csc.start.push_back(static_cast<int32_t>(csc.rows.size()));
  }
  return csc;
}

/// y = B x for a dense column-major B with x indexed by column.
std::vector<double> MatVec(const std::vector<std::vector<double>>& cols,
                           const std::vector<double>& x) {
  std::vector<double> y(cols[0].size(), 0.0);
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t r = 0; r < y.size(); ++r) y[r] += cols[c][r] * x[c];
  }
  return y;
}

TEST(LuFactorTest, FtranBtranRoundTripOnKnownBasis) {
  // B given by columns; non-trivial pivoting (no diagonal dominance).
  const std::vector<std::vector<double>> b_cols = {
      {2, 1, 0}, {0, 3, 1}, {1, 0, 1}};
  const CscMatrix csc = ToCsc(b_cols);
  LuFactor lu;
  ASSERT_TRUE(lu.Factorize(3, csc.start, csc.rows, csc.vals));
  EXPECT_GT(lu.factor_nnz(), 0);

  // FTRAN: solve B w = rhs, then check B w reproduces rhs.
  const std::vector<double> rhs = {5, 4, 3};
  std::vector<double> w = rhs;
  lu.Ftran(w);
  const std::vector<double> bw = MatVec(b_cols, w);
  for (int r = 0; r < 3; ++r) EXPECT_NEAR(bw[r], rhs[r], 1e-12);

  // BTRAN: solve y' B = c', then check y' B reproduces c.
  const std::vector<double> c = {1, -2, 3};
  std::vector<double> y = c;
  lu.Btran(y);
  for (int j = 0; j < 3; ++j) {
    double acc = 0;
    for (int r = 0; r < 3; ++r) acc += y[r] * b_cols[j][r];
    EXPECT_NEAR(acc, c[j], 1e-12) << "col " << j;
  }
}

TEST(LuFactorTest, SingularBasisRejected) {
  // Column 2 = column 0: structurally rank deficient.
  const CscMatrix csc = ToCsc({{1, 2}, {1, 2}});
  LuFactor lu;
  EXPECT_FALSE(lu.Factorize(2, csc.start, csc.rows, csc.vals));
}

TEST(LuFactorTest, EtaUpdateMatchesFreshRefactorizationAfterKPivots) {
  // Start from B0 and replace K columns one at a time through the
  // product-form eta file; after every update, FTRAN/BTRAN through
  // (factors + etas) must match a fresh factorization of the current B.
  std::vector<std::vector<double>> b_cols = {
      {4, 1, 0, 0}, {0, 3, 1, 0}, {1, 0, 2, 1}, {0, 0, 0, 5}};
  const std::vector<std::pair<int, std::vector<double>>> replacements = {
      {1, {1, 1, 4, 0}}, {3, {0, 2, 0, 3}}, {0, {2, 0, 0, 1}}};
  CscMatrix csc = ToCsc(b_cols);
  LuFactor lu;
  ASSERT_TRUE(lu.Factorize(4, csc.start, csc.rows, csc.vals));

  const std::vector<double> rhs = {1, 2, -1, 3};
  const std::vector<double> c = {-1, 4, 0, 2};
  for (const auto& [pos, col] : replacements) {
    // w = B^{-1} a_new drives both the eta and the column swap.
    std::vector<double> w(col);
    lu.Ftran(w);
    ASSERT_TRUE(lu.Update(w, pos));
    b_cols[pos] = col;

    LuFactor fresh;
    csc = ToCsc(b_cols);
    ASSERT_TRUE(fresh.Factorize(4, csc.start, csc.rows, csc.vals));

    std::vector<double> via_eta = rhs, via_fresh = rhs;
    lu.Ftran(via_eta);
    fresh.Ftran(via_fresh);
    for (int i = 0; i < 4; ++i) {
      EXPECT_NEAR(via_eta[i], via_fresh[i], 1e-10) << "ftran pos " << i;
    }
    via_eta = c;
    via_fresh = c;
    lu.Btran(via_eta);
    fresh.Btran(via_fresh);
    for (int i = 0; i < 4; ++i) {
      EXPECT_NEAR(via_eta[i], via_fresh[i], 1e-10) << "btran pos " << i;
    }
  }
  EXPECT_EQ(lu.eta_count(), 3);
  EXPECT_GT(lu.eta_nnz(), 0);
}

TEST(LuFactorTest, DriftTriggeredRefactorization) {
  // An eta whose pivot is tiny relative to the incoming column's
  // largest entry breaks the threshold-pivoting stability guarantee:
  // the factorization must flag itself for refactorization.
  const CscMatrix csc = ToCsc({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  LuFactor lu;
  ASSERT_TRUE(lu.Factorize(3, csc.start, csc.rows, csc.vals));
  EXPECT_FALSE(lu.NeedsRefactorization());

  std::vector<double> stable = {0.5, 2.0, 0.25};
  ASSERT_TRUE(lu.Update(stable, 1));
  EXPECT_FALSE(lu.NeedsRefactorization());
  EXPECT_NEAR(lu.last_pivot_stability(), 1.0, 1e-12);

  std::vector<double> drifty = {1e6, 1e-5, 0.0};
  ASSERT_TRUE(lu.Update(drifty, 1));
  EXPECT_LT(lu.last_pivot_stability(), 1e-3);
  EXPECT_TRUE(lu.NeedsRefactorization());

  // A fresh factorization clears the flag and the eta file.
  ASSERT_TRUE(lu.Factorize(3, csc.start, csc.rows, csc.vals));
  EXPECT_FALSE(lu.NeedsRefactorization());
  EXPECT_EQ(lu.eta_count(), 0);
}

TEST(SimplexTest, LongSolveReportsForrestTomlinFactorStats) {
  // A chain of coupled rows forces a long pivot sequence. With
  // Forrest–Tomlin updates the factors stay healthy, so no fixed-
  // interval refactorization is forced — but every pivot must appear in
  // the FT accounting, and the cold factorization plus any trigger-
  // driven refreshes land in `refactorizations`.
  Model m;
  const int n = 140;
  std::vector<VarId> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = m.AddVariable(0, 1, -1.0 - 0.001 * (i % 7), false);
  }
  for (int i = 0; i + 1 < n; ++i) {
    m.AddRow({{{v[i], 1.0}, {v[i + 1], 1.0}}, Sense::kLe, 1.0, ""});
  }
  const LpSolution s = SolveLp(m);
  ASSERT_TRUE(s.status.ok());
  EXPECT_GT(s.stats.phase2_pivots + s.stats.bound_flips, 96);
  EXPECT_GE(s.stats.refactorizations, 1);  // cold factorize at minimum
  EXPECT_GT(s.stats.ft_updates, 0);        // pivots ran through FT
  EXPECT_GT(s.stats.eta_nnz, 0);
  EXPECT_GE(s.stats.ftran_btran_seconds, 0.0);
  EXPECT_LT(s.stats.max_drift, 1e-6);  // healthy factors drift ~0
}

// --- Differential sweep against the dense tableau oracle ----------------

class SimplexDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDifferentialTest, MatchesDenseOracle) {
  Rng rng(4000 + GetParam());
  Model m;
  const int n = 3 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < n; ++i) {
    const double c = -6.0 + static_cast<double>(rng.Uniform(13));
    if (rng.Bernoulli(0.15)) {
      const double v = static_cast<double>(rng.Uniform(4));
      m.AddVariable(v, v, c, false);  // fixed variable
    } else if (rng.Bernoulli(0.15)) {
      m.AddVariable(0, std::numeric_limits<double>::infinity(), c, false);
    } else if (rng.Bernoulli(0.2)) {
      m.AddVariable(-2.0 - static_cast<double>(rng.Uniform(3)),
                    1.0 + static_cast<double>(rng.Uniform(5)), c, false);
    } else {
      m.AddVariable(0, 1.0 + static_cast<double>(rng.Uniform(6)), c, false);
    }
  }
  const int rows = 1 + static_cast<int>(rng.Uniform(5));
  for (int r = 0; r < rows; ++r) {
    Row row;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) {
        row.terms.push_back(
            {i, -3.0 + static_cast<double>(rng.Uniform(7))});
      }
    }
    if (row.terms.empty()) continue;
    const uint64_t pick = rng.Uniform(10);
    row.sense = pick < 6 ? Sense::kLe : (pick < 9 ? Sense::kGe : Sense::kEq);
    row.rhs = -4.0 + static_cast<double>(rng.Uniform(16));
    m.AddRow(std::move(row));
  }
  // An unbounded objective needs at least one unbounded variable with
  // negative cost; those cases are covered by UnboundedDetected.
  const LpSolution revised = SolveLp(m);
  const LpSolution dense = SolveLpDense(m);
  if (revised.status.ok()) {
    EXPECT_TRUE(LpFeasible(m, revised.x)) << "revised solution infeasible";
    // Exported duals satisfy d = c - y'A against the model's own rows
    // (catches any row-scaling leak), and reduced costs carry the
    // optimality signs.
    std::vector<double> d(m.num_variables());
    for (int j = 0; j < m.num_variables(); ++j) {
      d[j] = m.variable(j).objective;
    }
    for (int r = 0; r < m.num_rows(); ++r) {
      const RowView rv = m.row(r);
      for (int k = 0; k < rv.nnz; ++k) {
        d[rv.cols[k]] -= revised.duals[r] * rv.vals[k];
      }
    }
    for (int j = 0; j < m.num_variables(); ++j) {
      EXPECT_NEAR(d[j], revised.reduced_costs[j],
                  1e-5 + 1e-7 * std::abs(d[j]))
          << "var " << j;
    }
  }
  if (dense.status.ok()) {
    // The oracle's answer must be genuinely feasible. (This used to be
    // a filter: degenerate artificials left basic after phase 1 could
    // drift in phase 2 and yield an infeasible "optimum". Fixed by
    // driving artificials out through slack columns too.)
    EXPECT_TRUE(LpFeasible(m, dense.x)) << "dense oracle solution infeasible";
  }
  if (revised.status.ok() && dense.status.ok()) {
    EXPECT_NEAR(revised.objective, dense.objective,
                1e-5 + 1e-7 * std::abs(dense.objective));
  }
  if (!revised.status.ok() && dense.status.ok()) {
    // Revised claims infeasible/unbounded: the oracle must not hold a
    // feasible bounded optimum.
    EXPECT_FALSE(LpFeasible(m, dense.x))
        << "revised=" << revised.status.ToString()
        << " but dense found a feasible point";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexDifferentialTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace cophy::lp
