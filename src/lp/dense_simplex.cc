// The seed dense two-phase tableau simplex, preserved verbatim in
// behavior: every finite bound span becomes an explicit x' <= hi - lo
// row, and every reduced cost is re-derived from the full tableau each
// iteration. Kept only as a differential-test oracle and as the
// baseline side of the bench_micro solver comparison.
#include "lp/dense_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace cophy::lp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kFeasEps = 1e-7;

/// Dense tableau state for the two-phase method.
struct Tableau {
  int m = 0;                      // rows
  int n = 0;                      // columns (structural + slack + artificial)
  std::vector<std::vector<double>> a;  // m x n
  std::vector<double> b;          // m (kept nonnegative)
  std::vector<int> basis;         // basis[r] = column basic in row r
  std::vector<bool> allowed;      // column may enter

  void Pivot(int r, int j) {
    const double p = a[r][j];
    COPHY_CHECK(std::abs(p) > kEps);
    const double inv = 1.0 / p;
    for (int k = 0; k < n; ++k) a[r][k] *= inv;
    b[r] *= inv;
    a[r][j] = 1.0;  // fight roundoff
    for (int i = 0; i < m; ++i) {
      if (i == r) continue;
      const double f = a[i][j];
      if (std::abs(f) < kEps) continue;
      for (int k = 0; k < n; ++k) a[i][k] -= f * a[r][k];
      a[i][j] = 0.0;
      b[i] -= f * b[r];
    }
    basis[r] = j;
  }
};

enum class IterStatus { kOptimal, kUnbounded, kIterLimit };

/// Runs primal simplex iterations for cost vector `c`, returning on
/// optimality or unboundedness. Dantzig rule with a Bland fallback.
IterStatus Iterate(Tableau& t, const std::vector<double>& c) {
  const int iter_limit = 200 * (t.m + t.n) + 2000;
  for (int iter = 0; iter < iter_limit; ++iter) {
    const bool bland = iter > iter_limit / 2;
    // Reduced costs: c_j - c_B' T_j.
    int enter = -1;
    double best = -kFeasEps;
    for (int j = 0; j < t.n; ++j) {
      if (!t.allowed[j]) continue;
      double red = c[j];
      for (int r = 0; r < t.m; ++r) {
        const double cb = c[t.basis[r]];
        if (cb != 0.0) red -= cb * t.a[r][j];
      }
      if (red < best) {
        if (bland) {  // first improving column
          enter = j;
          break;
        }
        best = red;
        enter = j;
      }
    }
    if (enter < 0) return IterStatus::kOptimal;
    // Ratio test.
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < t.m; ++r) {
      if (t.a[r][enter] > kEps) {
        const double ratio = t.b[r] / t.a[r][enter];
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave >= 0 &&
             t.basis[r] < t.basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave < 0) return IterStatus::kUnbounded;
    t.Pivot(leave, enter);
  }
  return IterStatus::kIterLimit;
}

}  // namespace

LpSolution SolveLpDense(const Model& model) {
  const int nv = model.num_variables();
  std::vector<double> lo(nv), hi(nv);
  for (int i = 0; i < nv; ++i) {
    lo[i] = model.variable(i).lower;
    hi[i] = model.variable(i).upper;
    if (lo[i] > hi[i]) {
      LpSolution bad;
      bad.status = Status::Infeasible("contradictory variable bounds");
      return bad;
    }
  }

  // Shift x = lo + x'; upper bounds become explicit rows x' <= hi - lo.
  struct NormRow {
    std::vector<std::pair<int, double>> terms;
    Sense sense;
    double rhs;
  };
  std::vector<NormRow> rows;
  rows.reserve(model.num_rows() + nv);
  for (int r = 0; r < model.num_rows(); ++r) {
    const RowView rv = model.row(r);
    NormRow nr{{}, rv.sense, rv.rhs};
    nr.terms.reserve(rv.nnz);
    for (int k = 0; k < rv.nnz; ++k) {
      nr.terms.push_back({rv.cols[k], rv.vals[k]});
      nr.rhs -= rv.vals[k] * lo[rv.cols[k]];
    }
    rows.push_back(std::move(nr));
  }
  for (int i = 0; i < nv; ++i) {
    const double span = hi[i] - lo[i];
    if (std::isfinite(span)) {
      rows.push_back(NormRow{{{i, 1.0}}, Sense::kLe, span});
    }
  }

  const int m = static_cast<int>(rows.size());
  // Column layout: [0, nv) structural, then one slack/surplus per
  // inequality, then artificials as needed.
  int n = nv;
  std::vector<int> slack_col(m, -1);
  for (int r = 0; r < m; ++r) {
    // Normalize rhs >= 0.
    if (rows[r].rhs < 0) {
      rows[r].rhs = -rows[r].rhs;
      for (auto& [v, c] : rows[r].terms) c = -c;
      if (rows[r].sense == Sense::kLe) {
        rows[r].sense = Sense::kGe;
      } else if (rows[r].sense == Sense::kGe) {
        rows[r].sense = Sense::kLe;
      }
    }
    if (rows[r].sense != Sense::kEq) slack_col[r] = n++;
  }
  const int art_begin = n;  // columns >= art_begin are artificial
  std::vector<int> art_col(m, -1);
  for (int r = 0; r < m; ++r) {
    // kLe rows with slack start basic; kGe and kEq need artificials.
    if (rows[r].sense != Sense::kLe) art_col[r] = n++;
  }

  Tableau t;
  t.m = m;
  t.n = n;
  t.a.assign(m, std::vector<double>(n, 0.0));
  t.b.resize(m);
  t.basis.resize(m);
  t.allowed.assign(n, true);
  for (int r = 0; r < m; ++r) {
    for (const auto& [v, c] : rows[r].terms) t.a[r][v] += c;
    t.b[r] = rows[r].rhs;
    if (slack_col[r] >= 0) {
      t.a[r][slack_col[r]] = rows[r].sense == Sense::kLe ? 1.0 : -1.0;
    }
    if (art_col[r] >= 0) {
      t.a[r][art_col[r]] = 1.0;
      t.basis[r] = art_col[r];
    } else {
      t.basis[r] = slack_col[r];
    }
  }

  // Phase 1: minimize the sum of artificials.
  bool need_phase1 = false;
  std::vector<double> c1(n, 0.0);
  for (int r = 0; r < m; ++r) {
    if (art_col[r] >= 0) {
      c1[art_col[r]] = 1.0;
      need_phase1 = true;
    }
  }
  if (need_phase1) {
    const IterStatus st = Iterate(t, c1);
    if (st == IterStatus::kIterLimit) {
      LpSolution bad;
      bad.status = Status::Internal("simplex iteration limit (phase 1)");
      return bad;
    }
    double art_sum = 0;
    for (int r = 0; r < m; ++r) {
      if (c1[t.basis[r]] != 0.0) art_sum += t.b[r];
    }
    if (art_sum > 1e-6) {
      LpSolution bad;
      bad.status = Status::Infeasible("phase-1 optimum positive");
      return bad;
    }
    // Drive remaining (degenerate) artificials out of the basis through
    // any structural *or slack* column (largest |pivot| for stability).
    // Pivoting only on structural columns used to leave artificials
    // basic whenever the row's nonzeros sat in slack columns; such an
    // artificial could drift to a nonzero value during phase 2 and
    // silently violate its row.
    for (int r = 0; r < m; ++r) {
      if (t.basis[r] >= art_begin && c1[t.basis[r]] != 0.0) {
        int piv = -1;
        double best_piv = kEps;
        for (int j = 0; j < art_begin; ++j) {
          const double a = std::abs(t.a[r][j]);
          if (a > best_piv) {
            best_piv = a;
            piv = j;
          }
        }
        if (piv >= 0) t.Pivot(r, piv);
        // No pivot means the row is zero in every non-artificial
        // column; its rhs is 0 and stays 0 through phase-2 pivots
        // (every update scales by this row's zero entries), so the
        // basic artificial is genuinely harmless.
      }
    }
    // Artificials may not re-enter.
    for (int r = 0; r < m; ++r) {
      if (art_col[r] >= 0) t.allowed[art_col[r]] = false;
    }
  }

  // Phase 2: the real objective (on shifted variables).
  std::vector<double> c2(n, 0.0);
  for (int i = 0; i < nv; ++i) c2[i] = model.variable(i).objective;
  const IterStatus st = Iterate(t, c2);
  if (st == IterStatus::kIterLimit) {
    LpSolution bad;
    bad.status = Status::Internal("simplex iteration limit (phase 2)");
    return bad;
  }
  if (st == IterStatus::kUnbounded) {
    LpSolution bad;
    bad.status = Status::Unbounded("LP relaxation unbounded");
    return bad;
  }

  LpSolution sol;
  sol.status = Status::Ok();
  sol.x.assign(nv, 0.0);
  for (int r = 0; r < m; ++r) {
    if (t.basis[r] < nv) sol.x[t.basis[r]] = t.b[r];
  }
  for (int i = 0; i < nv; ++i) sol.x[i] += lo[i];
  sol.objective = model.ObjectiveValue(sol.x);
  return sol;
}

}  // namespace cophy::lp
