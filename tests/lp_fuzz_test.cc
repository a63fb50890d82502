// Differential fuzz harness for the sparse-LU revised simplex
// (lp::SolveLp) against the retained dense tableau oracle
// (lp::SolveLpDense), run over the full pricing x entry matrix
// ({Dantzig, devex} x {primal phases, dual simplex}) on the same seed
// set. Each seed generates a random bounded LP — mixed <=/>=/= rows,
// fixed / boxed / upper-unbounded / truly-free variables, plus injected
// degenerate and rank-deficient structure (duplicated, scaled, and
// summed rows) — and asserts, per combination:
//
//   1. status agreement (Ok / Infeasible / Unbounded);
//   2. objectives within 1e-6 (relative) when both solve;
//   3. primal feasibility of both solutions against the original model;
//   4. the dual identity d = c - y'A between the revised solver's
//      exported row duals and reduced costs, on every solved instance;
//   5. re-importing the revised solver's own basis warm-starts to the
//      same optimum with zero pivots — through the dual simplex on the
//      dual-entry combinations, which must also report zero *dual*
//      pivots on an already-optimal basis;
//   6. after reweighting the objective by random positive factors and
//      shifting one rhs, a warm re-solve from that basis under either
//      entry (with the combination's pricing) agrees with a cold solve of the perturbed LP (status, and
//      objective within 1e-6), and every Ok result certifies. This is
//      the warm root-LP import a retune makes after a re-weighting plus
//      a budget change: the old basis is in general neither primal nor
//      dual feasible, so dual entry must fall back cleanly.
//
// Dual-entry combinations exercise every dual-simplex exit: cold starts
// are usually not dual feasible (primal fallback), re-imports are
// (pure dual solve), and infeasible instances must surface as dual
// rays. The seed count is env-overridable via COPHY_LP_FUZZ_SEEDS
// (mirroring COPHY_FAULT_SWEEP_SEEDS; default 64 per combination).
//
// The oracle cannot shift truly-free variables (it rewrites x = lo + x'
// with finite lo), so the harness hands it the classic x = x+ - x-
// split — an equivalent LP with the same optimal value and the same
// feasibility/boundedness verdicts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/random.h"
#include "lp/dense_simplex.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace cophy::lp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Feasibility of a point w.r.t. the model's rows and bounds (LP
/// relaxation: integrality ignored).
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

/// One random bounded LP. Integer-valued data keeps infeasibility /
/// optimality margins away from the solvers' tolerances, so the status
/// verdicts are well defined.
Model RandomLp(Rng& rng) {
  Model m;
  const int n = 2 + static_cast<int>(rng.Uniform(11));
  for (int i = 0; i < n; ++i) {
    const double c = static_cast<double>(rng.UniformInRange(-6, 6));
    const double roll = rng.NextDouble();
    if (roll < 0.15) {
      // Fixed variable (lo == hi), degenerate by construction.
      const double v = static_cast<double>(rng.UniformInRange(-3, 3));
      m.AddVariable(v, v, c, false);
    } else if (roll < 0.28) {
      // Truly free: no finite bound on either side.
      m.AddVariable(-kInfinity, kInfinity, c, false);
    } else if (roll < 0.45) {
      // Lower-bounded only (possibly negative lower bound).
      m.AddVariable(static_cast<double>(rng.UniformInRange(-4, 2)), kInfinity,
                    c, false);
    } else {
      const double lo = static_cast<double>(rng.UniformInRange(-4, 0));
      m.AddVariable(lo, lo + 1.0 + static_cast<double>(rng.Uniform(6)), c,
                    false);
    }
  }
  const int rows = 1 + static_cast<int>(rng.Uniform(7));
  for (int r = 0; r < rows; ++r) {
    Row row;
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.5)) continue;
      double coef = static_cast<double>(rng.UniformInRange(-3, 3));
      if (coef == 0) coef = 1;
      row.terms.push_back({i, coef});
    }
    if (row.terms.empty()) continue;
    const uint64_t pick = rng.Uniform(10);
    row.sense = pick < 6 ? Sense::kLe : (pick < 9 ? Sense::kGe : Sense::kEq);
    row.rhs = static_cast<double>(rng.UniformInRange(-4, 11));
    m.AddRow(std::move(row));
  }
  // Degenerate / rank-deficient injections: the basis matrix sees
  // exactly dependent rows, tied ratio tests, and redundant planes.
  const int base_rows = m.num_rows();
  if (base_rows > 0 && rng.Bernoulli(0.5)) {
    // Exact duplicate (dependent rows; consistent by construction).
    const RowView rv = m.row(static_cast<int>(rng.Uniform(base_rows)));
    Row dup;
    for (int k = 0; k < rv.nnz; ++k) dup.terms.push_back({rv.cols[k], rv.vals[k]});
    dup.sense = rv.sense;
    dup.rhs = rv.rhs;
    m.AddRow(std::move(dup));
  }
  if (base_rows > 0 && rng.Bernoulli(0.4)) {
    // Scaled copy: same hyperplane, different row scaling.
    const RowView rv = m.row(static_cast<int>(rng.Uniform(base_rows)));
    const double s = 2.0 + static_cast<double>(rng.Uniform(3));
    Row scaled;
    for (int k = 0; k < rv.nnz; ++k) {
      scaled.terms.push_back({rv.cols[k], s * rv.vals[k]});
    }
    scaled.sense = rv.sense;
    scaled.rhs = s * rv.rhs;
    m.AddRow(std::move(scaled));
  }
  if (base_rows > 1 && rng.Bernoulli(0.4)) {
    // Sum of two rows under the first row's sense: a linearly dependent
    // (and, when the senses agree, implied) constraint.
    const int a = static_cast<int>(rng.Uniform(base_rows));
    const int b = static_cast<int>(rng.Uniform(base_rows));
    const RowView ra = m.row(a);
    const RowView rb = m.row(b);
    std::vector<double> dense(n, 0.0);
    for (int k = 0; k < ra.nnz; ++k) dense[ra.cols[k]] += ra.vals[k];
    for (int k = 0; k < rb.nnz; ++k) dense[rb.cols[k]] += rb.vals[k];
    Row sum;
    for (int i = 0; i < n; ++i) {
      if (dense[i] != 0.0) sum.terms.push_back({i, dense[i]});
    }
    if (!sum.terms.empty()) {
      sum.sense = ra.sense;
      sum.rhs = ra.rhs + rb.rhs;
      m.AddRow(std::move(sum));
    }
  }
  return m;
}

/// The oracle-safe twin: every truly-free variable x is replaced by
/// x+ - x- with x+, x- in [0, inf). Same optimal value, same status.
/// `split_of[j]` receives the x- column for free j (-1 otherwise).
Model SplitFreeVariables(const Model& m, std::vector<int>* split_of) {
  Model t;
  const int n = m.num_variables();
  split_of->assign(n, -1);
  for (int j = 0; j < n; ++j) {
    const Variable& v = m.variable(j);
    t.AddVariable(v.lower, v.upper, v.objective, false);
  }
  for (int j = 0; j < n; ++j) {
    const Variable& v = m.variable(j);
    if (std::isinf(v.lower) && std::isinf(v.upper)) {
      t.variable(j).lower = 0.0;  // j becomes x+
      (*split_of)[j] = t.AddVariable(0.0, kInfinity, -v.objective, false);
    }
  }
  for (int r = 0; r < m.num_rows(); ++r) {
    const RowView rv = m.row(r);
    Row row;
    row.sense = rv.sense;
    row.rhs = rv.rhs;
    for (int k = 0; k < rv.nnz; ++k) {
      row.terms.push_back({rv.cols[k], rv.vals[k]});
      const int neg = (*split_of)[rv.cols[k]];
      if (neg >= 0) row.terms.push_back({neg, -rv.vals[k]});
    }
    t.AddRow(std::move(row));
  }
  return t;
}

/// The same LP with every objective coefficient scaled by a random
/// positive factor in {0.5, 1, 1.5, 2} and one row's rhs shifted by a
/// nonzero integer in [-2, 2] (a re-weighting plus a budget change, in
/// the advisor's terms). Factors and shifts keep the data on a
/// half-integer grid, so status verdicts stay well defined.
Model PerturbedLp(const Model& m, Rng& rng) {
  Model t;
  for (int j = 0; j < m.num_variables(); ++j) {
    const Variable& v = m.variable(j);
    const double factor = 0.5 * static_cast<double>(1 + rng.Uniform(4));
    t.AddVariable(v.lower, v.upper, factor * v.objective, false);
  }
  const int shifted =
      m.num_rows() > 0 ? static_cast<int>(rng.Uniform(m.num_rows())) : -1;
  int64_t shift = rng.UniformInRange(-2, 1);
  if (shift >= 0) ++shift;  // {-2, -1, 1, 2}
  for (int r = 0; r < m.num_rows(); ++r) {
    const RowView rv = m.row(r);
    Row row;
    row.sense = rv.sense;
    row.rhs = rv.rhs + (r == shifted ? static_cast<double>(shift) : 0.0);
    for (int k = 0; k < rv.nnz; ++k) row.terms.push_back({rv.cols[k], rv.vals[k]});
    t.AddRow(std::move(row));
  }
  return t;
}

/// CI scaling knob, mirroring COPHY_FAULT_SWEEP_SEEDS.
int FuzzSeedCount() {
  if (const char* env = std::getenv("COPHY_LP_FUZZ_SEEDS")) {
    return std::max(1, std::atoi(env));
  }
  return 64;
}

/// Combination code: bit 0 = pricing (0 Dantzig, 1 devex) and bit 1 =
/// entry (0 primal, 1 dual).
LpOptions ComboOptions(int combo) {
  LpOptions options;
  options.pricing = (combo & 1) != 0 ? Pricing::kDevex : Pricing::kDantzig;
  options.entry =
      (combo & 2) != 0 ? SimplexEntry::kDual : SimplexEntry::kPrimal;
  return options;
}

const char* ComboLabel(int combo) {
  static const char* kCombo[] = {"DantzigPrimal", "DevexPrimal",
                                 "DantzigDual", "DevexDual"};
  return kCombo[combo];
}

/// Parameter: (seed, combination code).
class LpFuzzTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LpFuzzTest, RevisedMatchesDenseOracle) {
  const int seed = std::get<0>(GetParam());
  const int combo = std::get<1>(GetParam());
  const LpOptions options = ComboOptions(combo);

  Rng rng(90000 + seed);
  const Model m = RandomLp(rng);
  std::vector<int> split_of;
  const Model oracle_model = SplitFreeVariables(m, &split_of);

  const LpSolution revised = SolveLp(m, options);
  const LpSolution dense = SolveLpDense(oracle_model);

  // 1. Status agreement. Neither solver may hit its iteration limit on
  // instances this small, so the verdict set is {Ok, Infeasible,
  // Unbounded} and must match exactly.
  ASSERT_NE(revised.status.code(), StatusCode::kInternal)
      << revised.status.ToString();
  ASSERT_NE(dense.status.code(), StatusCode::kInternal)
      << dense.status.ToString();
  EXPECT_EQ(revised.status.code(), dense.status.code())
      << "revised=" << revised.status.ToString()
      << " dense=" << dense.status.ToString();

  if (revised.status.ok()) {
    // 3. Primal feasibility of the revised solution.
    EXPECT_TRUE(LpFeasible(m, revised.x)) << "revised solution infeasible";

    // 4. Dual identity d = c - y'A against the model's own rows, on
    // every solved instance (catches any row-scaling or permutation
    // leak through the LU factors).
    ASSERT_EQ(revised.duals.size(), static_cast<size_t>(m.num_rows()));
    ASSERT_EQ(revised.reduced_costs.size(),
              static_cast<size_t>(m.num_variables()));
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
      EXPECT_NEAR(d[j], revised.reduced_costs[j], 1e-6 + 1e-7 * std::abs(d[j]))
          << "var " << j;
    }

    // 5. The exported basis warm-starts a re-solve to the same optimum
    // with zero pivots (the LU import path). Under dual entry the
    // re-import is already dual feasible *and* primal feasible, so the
    // dual simplex must also pivot zero times.
    const LpSolution again = SolveLp(m, options, &revised.basis);
    ASSERT_TRUE(again.status.ok());
    EXPECT_TRUE(again.stats.warm_started);
    EXPECT_EQ(again.stats.phase1_pivots, 0);
    EXPECT_EQ(again.stats.phase2_pivots, 0);
    EXPECT_EQ(again.stats.dual_pivots, 0);
    EXPECT_NEAR(again.objective, revised.objective,
                1e-9 + 1e-9 * std::abs(revised.objective));

    // 6. Warm import after a re-weighting plus an rhs shift, under
    // either entry, against a cold solve of the perturbed LP.
    Rng perturb_rng(190000 + seed);
    const Model perturbed = PerturbedLp(m, perturb_rng);
    const LpSolution cold = SolveLp(perturbed);
    ASSERT_NE(cold.status.code(), StatusCode::kInternal)
        << cold.status.ToString();
    if (cold.status.ok()) {
      EXPECT_TRUE(cold.stats.certified);
    }
    // Both entries under this combination's pricing (bit 0 kept).
    for (const int entry : {combo & 1, combo | 2}) {
      const LpSolution warm =
          SolveLp(perturbed, ComboOptions(entry), &revised.basis);
      EXPECT_EQ(warm.status.code(), cold.status.code())
          << ComboLabel(entry) << " warm=" << warm.status.ToString()
          << " cold=" << cold.status.ToString();
      if (!warm.status.ok() || !cold.status.ok()) continue;
      EXPECT_TRUE(warm.stats.certified) << ComboLabel(entry);
      EXPECT_TRUE(LpFeasible(perturbed, warm.x)) << ComboLabel(entry);
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 + 1e-6 * std::abs(cold.objective))
          << ComboLabel(entry);
    }
  }

  if (dense.status.ok()) {
    // 3'. The oracle's solution, mapped back through the free-variable
    // split, must be feasible for the original model.
    std::vector<double> x(m.num_variables());
    for (int j = 0; j < m.num_variables(); ++j) {
      x[j] = dense.x[j];
      if (split_of[j] >= 0) x[j] -= dense.x[split_of[j]];
    }
    EXPECT_TRUE(LpFeasible(m, x)) << "dense oracle solution infeasible";

    if (revised.status.ok()) {
      // 2. Objective agreement within 1e-6.
      EXPECT_NEAR(revised.objective, dense.objective,
                  1e-6 + 1e-6 * std::abs(dense.objective));
    }
  }
}

std::string ComboName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return std::string(ComboLabel(std::get<1>(info.param))) + "_seed" +
         std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PricingEntryMatrix, LpFuzzTest,
    ::testing::Combine(::testing::Range(0, FuzzSeedCount()),
                       ::testing::Range(0, 4)),
    ComboName);

// --- Pathological corpus -------------------------------------------------
//
// Hand-built adversarial instances crossed over the same pricing x
// entry matrix: the classic cycling examples (Beale; Kuhn's degenerate
// origin), a 1e-8..1e8 dynamic-range instance, near-parallel duplicated
// rows, and a singular warm-basis import. Every combination must come
// back Ok, *certified* (the safeguards' independent unscaled
// verification pass), primal feasible, and at the known optimum (or the
// dense oracle's, where the optimum is checked differentially).

class PathologicalLpTest : public ::testing::TestWithParam<int> {};

TEST_P(PathologicalLpTest, BealeCyclingExampleCertifiesAtKnownOptimum) {
  // Beale (1955): the textbook simplex with Dantzig pricing and a
  // naive ratio test cycles forever at the degenerate origin. Optimum
  // -1/20 at x = (1/25, 0, 1, 0).
  Model m;
  const VarId x1 = m.AddVariable(0, kInfinity, -0.75, false);
  const VarId x2 = m.AddVariable(0, kInfinity, 150.0, false);
  const VarId x3 = m.AddVariable(0, kInfinity, -0.02, false);
  const VarId x4 = m.AddVariable(0, kInfinity, 6.0, false);
  m.AddRow({{{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
            Sense::kLe, 0.0, ""});
  m.AddRow({{{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
            Sense::kLe, 0.0, ""});
  m.AddRow({{{x3, 1.0}}, Sense::kLe, 1.0, ""});
  const LpSolution s = SolveLp(m, ComboOptions(GetParam()));
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_TRUE(s.stats.certified);
  EXPECT_TRUE(LpFeasible(m, s.x));
  EXPECT_NEAR(s.objective, -0.05, 1e-7);
}

TEST_P(PathologicalLpTest, KuhnDegenerateOriginMatchesOracle) {
  // Kuhn's cycling example, boxed to keep it bounded: both rows pass
  // through the origin, so the starting vertex is maximally degenerate
  // and every early ratio test ties at zero.
  Model m;
  const VarId x1 = m.AddVariable(0, 1, -2.0, false);
  const VarId x2 = m.AddVariable(0, 1, -3.0, false);
  const VarId x3 = m.AddVariable(0, 1, 1.0, false);
  const VarId x4 = m.AddVariable(0, 1, 12.0, false);
  m.AddRow({{{x1, -2.0}, {x2, -9.0}, {x3, 1.0}, {x4, 9.0}},
            Sense::kLe, 0.0, ""});
  m.AddRow({{{x1, 1.0 / 3.0}, {x2, 1.0}, {x3, -1.0 / 3.0}, {x4, -2.0}},
            Sense::kLe, 0.0, ""});
  const LpSolution s = SolveLp(m, ComboOptions(GetParam()));
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_TRUE(s.stats.certified);
  EXPECT_TRUE(LpFeasible(m, s.x));
  const LpSolution dense = SolveLpDense(m);
  ASSERT_TRUE(dense.status.ok()) << dense.status.ToString();
  EXPECT_NEAR(s.objective, dense.objective,
              1e-6 + 1e-6 * std::abs(dense.objective));
}

TEST_P(PathologicalLpTest, WideDynamicRangeCertifies) {
  // Coefficients spanning 1e-8..1e8 in one instance — the scaling
  // stack's acceptance case. Optimum by construction: a = 1 (the 1e8
  // row binds, forcing c = 0), b = 0.5 (the 1e-8 row binds), so the
  // objective is -(1e8 + 0.5) exactly.
  Model m;
  const VarId a = m.AddVariable(0, 1, -1e8, false);
  const VarId b = m.AddVariable(0, 1, -1.0, false);
  const VarId c = m.AddVariable(0, 1, -1e-8, false);
  m.AddRow({{{a, 1e8}, {c, 1e-8}}, Sense::kLe, 1e8, ""});
  m.AddRow({{{b, 1e-8}}, Sense::kLe, 0.5e-8, ""});
  const LpSolution s = SolveLp(m, ComboOptions(GetParam()));
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_TRUE(s.stats.certified);
  EXPECT_TRUE(LpFeasible(m, s.x));
  EXPECT_NEAR(s.objective, -(1e8 + 0.5), 1e-6 * 1e8);
  EXPECT_NEAR(s.x[b], 0.5, 1e-6);
}

TEST_P(PathologicalLpTest, NearParallelDuplicatedRowsCertify) {
  // Three almost-identical planes (1e-9 apart) through the optimal
  // face: the basis matrix is nearly singular whenever two of them are
  // basic together. The exact optimum is still -1, at (1, 0).
  Model m;
  const VarId x = m.AddVariable(0, 1, -1.0, false);
  const VarId y = m.AddVariable(0, 1, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0, ""});
  m.AddRow({{{x, 1.0}, {y, 1.0 + 1e-9}}, Sense::kLe, 1.0, ""});
  m.AddRow({{{x, 1.0 - 1e-9}, {y, 1.0}}, Sense::kLe, 1.0, ""});
  const LpSolution s = SolveLp(m, ComboOptions(GetParam()));
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_TRUE(s.stats.certified);
  EXPECT_TRUE(LpFeasible(m, s.x));
  EXPECT_NEAR(s.objective, -1.0, 1e-6);
}

TEST_P(PathologicalLpTest, SingularWarmImportRecoversOnEveryCombination) {
  // A hand-forged import whose basic columns are exact duplicates: the
  // recovery ladder (Markowitz escalation, then slack substitution)
  // must absorb it on every pricing x entry combination and still land
  // certified on the true optimum.
  Model m;
  const VarId x = m.AddVariable(0, 3, -1.0, false);
  const VarId y = m.AddVariable(0, 3, -1.0, false);
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  m.AddRow({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, ""});
  LpBasis sick;
  sick.variables = {VarStatus::kBasic, VarStatus::kBasic};
  sick.slacks = {VarStatus::kAtLower, VarStatus::kAtLower};
  const LpSolution s = SolveLp(m, ComboOptions(GetParam()), &sick);
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  EXPECT_GE(s.stats.singular_repairs, 1);
  EXPECT_TRUE(s.stats.certified);
  EXPECT_TRUE(LpFeasible(m, s.x));
  EXPECT_NEAR(s.objective, -4.0, 1e-6);
}

std::string PathologyComboName(const ::testing::TestParamInfo<int>& info) {
  return ComboLabel(info.param);
}

INSTANTIATE_TEST_SUITE_P(PricingEntryMatrix, PathologicalLpTest,
                         ::testing::Range(0, 4), PathologyComboName);

}  // namespace
}  // namespace cophy::lp
