// Bounded-variable revised simplex (primal and dual) over the CSR/CSC
// model.
//
// Internal layout: columns [0, nv) are the structural variables, column
// nv + r is the slack of row r with coefficient +1 and sense encoded in
// its bounds (kLe: [0, inf), kGe: (-inf, 0], kEq: [0, 0]), so every row
// is an equality A'x' = b over bounded variables and the slack basis is
// the identity. The basis is held as a sparse LU factorization
// (lp/lu_factor.h): Markowitz-ordered threshold-pivoted LU with sparse
// FTRAN/BTRAN through the factors and a Forrest–Tomlin update per
// pivot. Refactorization is driven by the factorization's own
// fill/stability trigger (plus a large backstop interval) — FT keeps
// the factors compact, so the old fixed 96-pivot interval is gone.
//
// Both simplex variants price over the *sparse pivot row*: after the
// unit BTRAN for row r, alpha_j = rho . a_j is accumulated only for
// the columns intersecting rho's nonzero rows (CSR row walk), so a
// pivot costs O(nnz of the active rows), not O(nnz of the model).
//
// Primal phase 2 prices with devex by default (reference-framework
// weights updated from the same sparse pivot row, reset when they
// outgrow their trusted range), confirms every candidate against its
// exact reduced cost c_j - c_B . w after FTRAN, and falls back to
// Bland's rule late in the iteration budget to guard against cycling.
//
// Phase 1 is artificial-free: starting from any basis (slack or
// imported), it minimizes the total bound violation of the basic
// variables with the composite-objective rule — an infeasible-below
// basic prices with sigma = -1 and blocks the ratio test at its lower
// bound, an infeasible-above basic with sigma = +1 at its upper bound.
//
// The dual simplex (SolveLp with SimplexEntry::kDual) is the warm
// re-solve path: an optimal basis re-imported under tightened bounds or
// a changed rhs (same objective) is still dual feasible, so the dual
// ratio test walks the primal infeasibility out in a few pivots with
// *zero* primal phase-1 work. Boxed nonbasics whose reduced cost has
// the wrong sign are repaired by bound flips on entry; the dual ratio
// test itself takes bound-flipping long steps (skipping boxed blockers
// by flipping them, absorbing |alpha| * range of infeasibility each)
// before committing to an entering column.
#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/stopwatch.h"
#include "lp/lu_factor.h"

namespace cophy::lp {

namespace {

constexpr double kLeaveEps = 1e-7;  // min |w_r| to accept a pivot element
constexpr double kDualEps = 1e-7;
// The dual simplex tolerates wrong-sign reduced costs up to this band
// on columns it cannot flip-repair (free / one-sided): recomputing d on
// a warm imported basis routinely lands a hair past kDualEps, and bailing
// out to primal phase 1 over recompute noise throws the warm start
// away. Within the band the dual solve proceeds (the column surfaces as
// a zero-ratio candidate and is fixed by a degenerate pivot); the final
// optimality verdict still requires the strict kDualEps.
constexpr double kDualRepairEps = 1e-5;
constexpr double kFeasEps = 1e-7;
constexpr double kInfeasTotal = 1e-6;
// Forced refactorization backstop. The working trigger is the
// factorization's own fill/stability signal (LuFactor::
// NeedsRefactorization); this bound only caps drift accumulation on
// solves where Forrest–Tomlin updates stay unusually clean.
constexpr int kRefactorBackstop = 1024;
// Devex weights above this have outgrown the reference framework the
// run started from; reset the framework to the current nonbasic set.
constexpr double kDevexWeightCap = 1e7;
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Numerical-safeguard tuning (LpOptions::safeguards). ---
// EXPAND working tolerance for the Harris two-pass ratio tests: bounds
// are treated as relaxed by expand_tol_, which starts at half the
// feasibility tolerance, creeps up per pivot, and snaps back at every
// refactorization. The creep guarantees strictly positive steps
// through long degenerate stretches.
constexpr double kExpandBase = 0.5 * kFeasEps;
constexpr double kExpandInc = 2e-11;
constexpr double kExpandMax = 1e-7;
// Degeneracy perturbation magnitudes (deterministic per-column jitter
// in [0.5, 1) times these): bounds for the primal, costs for the dual.
constexpr double kBoundPerturb = 1e-9;
constexpr double kCostPerturb = 1e-9;
// Perturbation rounds per solve before escalating to Bland instead.
constexpr int kMaxPerturbRounds = 3;
// A pivot step below this counts as degenerate for the stall watchdog.
constexpr double kDegenStep = 1e-12;
// Certification tolerances (relative, in the unscaled space).
constexpr double kCertTol = 1e-6;

enum class IterStatus {
  kOptimal,
  kUnbounded,
  kStalled,
  kIterLimit,
  kNumericalFailure,  // basis factorization lost and unrecoverable
  kDualInfeasible,    // dual simplex proved the LP primal infeasible
  kNotDualFeasible,   // start not flip-repairable; run the primal phases
  kFeasibilityLost,   // basis repair broke primal feasibility; rerun phase 1
};

// splitmix64-style column hash for the basis-revisit detector and the
// deterministic perturbation jitter.
uint64_t ColHash(uint64_t j) {
  uint64_t h = j + 0x9E3779B97F4A7C15ull;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

// Deterministic jitter in [0.5, 1): breaks ties differently per column
// and per perturbation round without any global random state.
double Jitter(int j, int round) {
  const uint64_t h = ColHash(static_cast<uint64_t>(j) * 0x10001u + round);
  return 0.5 + static_cast<double>(h >> 40) * (0.5 / 16777216.0);
}

class RevisedSimplex {
 public:
  RevisedSimplex(const Model& model, const LpOptions& options)
      : model_(model),
        options_(options),
        nv_(model.num_variables()),
        m_(model.num_rows()),
        n_(nv_ + m_) {
    lo_.resize(n_);
    hi_.resize(n_);
    cost_.assign(n_, 0.0);
    b_.resize(m_);
    // Scaling. The solver works on A' = R A C with positive diagonal R
    // (rows) and C (columns): internal variables are x' = C^{-1} x,
    // bounds lo/C <= x' <= hi/C, costs c' = C c (so c'.x' = c.x), and
    // exports map back with x = C x', y = R y', d = C^{-1} d'. With
    // LpScaling::kGeometricMean two alternating geometric-mean passes
    // balance each row's and column's magnitude spread first, every
    // factor snapped to a power of two so the transform is exact in
    // floating point; a final row equilibration (the legacy scaling,
    // and the whole story under kRowEquilibrate) then pins each row's
    // largest |coefficient| at 1 for the factorization. Scaling depends
    // only on the model, so warm-started solves of the same model see
    // bit-identical scaled problems.
    col_scale_.assign(nv_, 1.0);
    row_scale_.assign(m_, 1.0);
    if (options.scaling == LpScaling::kGeometricMean && m_ > 0) {
      const auto snap = [](double s) {
        return s > 0.0 && std::isfinite(s) ? std::exp2(std::round(std::log2(s)))
                                           : 1.0;
      };
      for (int pass = 0; pass < 2; ++pass) {
        for (int r = 0; r < m_; ++r) {
          const RowView row = model.row(r);
          double small = kInf, big = 0.0;
          for (int k = 0; k < row.nnz; ++k) {
            const double a =
                std::abs(row.vals[k]) * col_scale_[row.cols[k]] * row_scale_[r];
            if (a > 0) {
              small = std::min(small, a);
              big = std::max(big, a);
            }
          }
          if (big > 0) row_scale_[r] = snap(row_scale_[r] / std::sqrt(small * big));
        }
        for (int j = 0; j < nv_; ++j) {
          const ColumnView col = model.column(j);
          double small = kInf, big = 0.0;
          for (int k = 0; k < col.nnz; ++k) {
            const double a =
                std::abs(col.vals[k]) * row_scale_[col.rows[k]] * col_scale_[j];
            if (a > 0) {
              small = std::min(small, a);
              big = std::max(big, a);
            }
          }
          if (big > 0) col_scale_[j] = snap(col_scale_[j] / std::sqrt(small * big));
        }
      }
    }
    // Row equilibration: divide each (column-scaled) row by its largest
    // |coefficient| so rows of wildly different magnitude (storage bytes
    // next to 0/1 linking rows) don't wreck the conditioning of the
    // factorization. Slack bounds are 0 / +-inf, so they are invariant
    // under positive row scaling and the structural solution is
    // unchanged.
    for (int r = 0; r < m_; ++r) {
      const RowView row = model.row(r);
      double big = 0;
      for (int k = 0; k < row.nnz; ++k) {
        big = std::max(big, std::abs(row.vals[k]) * col_scale_[row.cols[k]]);
      }
      row_scale_[r] = big > 0 ? 1.0 / big : 1.0;
    }
    for (int j = 0; j < nv_; ++j) {
      lo_[j] = model.variable(j).lower / col_scale_[j];
      hi_[j] = model.variable(j).upper / col_scale_[j];
      cost_[j] = model.variable(j).objective * col_scale_[j];
    }
    for (int r = 0; r < m_; ++r) {
      const RowView row = model.row(r);
      b_[r] = row.rhs * row_scale_[r];
      const int s = nv_ + r;
      switch (row.sense) {
        case Sense::kLe:
          lo_[s] = 0.0;
          hi_[s] = kInf;
          break;
        case Sense::kGe:
          lo_[s] = -kInf;
          hi_[s] = 0.0;
          break;
        case Sense::kEq:
          lo_[s] = 0.0;
          hi_[s] = 0.0;
          break;
      }
    }
    basis_.resize(m_);
    vstat_.assign(n_, VarStatus::kAtLower);
    xval_.assign(n_, 0.0);
    d_.assign(n_, 0.0);
    w_.resize(m_);
    rho_.resize(m_);
    y_.resize(m_);
    scratch_.resize(m_);
    alpha_.assign(n_, 0.0);
    alpha_mark_.assign(n_, 0);
    in_cand_.assign(n_, 0);
  }

  /// Installs the all-slack basis with structurals at their nearest
  /// finite bound.
  void ColdStart() {
    for (int j = 0; j < nv_; ++j) SetNonbasicAtBound(j, VarStatus::kAtLower);
    std::vector<int> cols(m_);
    for (int r = 0; r < m_; ++r) cols[r] = nv_ + r;
    const bool ok = Factorize(cols);  // slack basis: identity, can't fail
    COPHY_CHECK(ok);
    ComputeBasicValues();
    ResetWatchdog();
  }

  /// Installs an imported basis; false if it is unusable (wrong shape,
  /// wrong basic count, or singular basis matrix).
  bool WarmStart(const LpBasis& wb) {
    if (static_cast<int>(wb.variables.size()) != nv_ ||
        static_cast<int>(wb.slacks.size()) != m_) {
      return false;
    }
    std::vector<int> basic_cols;
    basic_cols.reserve(m_);
    for (int j = 0; j < nv_; ++j) {
      if (wb.variables[j] == VarStatus::kBasic) basic_cols.push_back(j);
    }
    for (int r = 0; r < m_; ++r) {
      if (wb.slacks[r] == VarStatus::kBasic) basic_cols.push_back(nv_ + r);
    }
    if (static_cast<int>(basic_cols.size()) != m_) return false;
    if (!Factorize(basic_cols)) return false;
    // Keyed on the *installed* statuses, not the imported ones: a
    // singular-basis repair may have ejected an imported basic column
    // (now nonbasic) and promoted a slack the import held at a bound.
    for (int j = 0; j < n_; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;  // set by Factorize
      SetNonbasicAtBound(j, j < nv_ ? wb.variables[j] : wb.slacks[j - nv_]);
    }
    ComputeBasicValues();
    ResetWatchdog();
    // A repaired import is a valid (if different) start; the primal or
    // dual loop re-establishes its own invariants from here.
    basis_repaired_ = false;
    return true;
  }

  /// Restores primal feasibility of the current basis (phase 1).
  IterStatus Phase1(LpSolveStats* stats) {
    return Iterate(/*phase1=*/true, stats);
  }
  /// Optimizes the real objective from a primal-feasible basis.
  IterStatus Phase2(LpSolveStats* stats) {
    RecomputeReducedCosts();
    if (options_.pricing == Pricing::kDevex) devex_w_.assign(n_, 1.0);
    return Iterate(/*phase1=*/false, stats);
  }

  /// Bounded-variable dual simplex with bound-flipping long steps, from
  /// the currently installed basis. Returns
  ///  - kOptimal: primal and dual feasible (LP solved),
  ///  - kDualInfeasible: the LP is primal infeasible (a violated basic
  ///    row admits no entering column — a dual ray),
  ///  - kNotDualFeasible: the start cannot be flip-repaired into dual
  ///    feasibility (wrong-sign reduced cost on a free or one-sided
  ///    nonbasic); the basis is left valid for the primal phases,
  ///  - kIterLimit / kNumericalFailure as in the primal loop.
  IterStatus DualSolve(LpSolveStats* stats) {
    RecomputeReducedCosts();
    if (!RestoreDualFeasibility(stats)) return IterStatus::kNotDualFeasible;
    const int64_t iter_limit = 200 * (static_cast<int64_t>(m_) + n_) + 2000;
    int64_t pivots_since_refresh = 0;
    int64_t pivots_since_factor = 0;
    for (int64_t iter = 0; iter < iter_limit; ++iter) {
      if (pivots_since_factor >= kRefactorBackstop ||
          (pivots_since_factor > 0 && lu_.NeedsRefactorization())) {
        if (Refactorize()) {
          // A slack repair changes the basis but never the dual loop's
          // contract (it re-establishes dual feasibility right here).
          basis_repaired_ = false;
          ComputeBasicValues(/*measure_drift=*/true);
          RecomputeReducedCosts();
          if (!RestoreDualFeasibility(stats)) {
            return IterStatus::kNotDualFeasible;
          }
          pivots_since_refresh = 0;
        } else if (options_.safeguards) {
          return IterStatus::kNumericalFailure;
        }
        pivots_since_factor = 0;
      } else if (pivots_since_refresh >= 64) {
        ComputeBasicValues(/*measure_drift=*/true);
        RecomputeReducedCosts();
        if (!RestoreDualFeasibility(stats)) return IterStatus::kNotDualFeasible;
        pivots_since_refresh = 0;
      }

      // --- Dual pricing: the most-violated basic variable leaves. ---
      int leave = -1;
      double best_viol = kFeasEps;
      bool above = false;
      for (int r = 0; r < m_; ++r) {
        const int j = basis_[r];
        const double below_by = lo_[j] - xval_[j];
        const double above_by = xval_[j] - hi_[j];
        if (below_by > best_viol) {
          best_viol = below_by;
          leave = r;
          above = false;
        }
        if (above_by > best_viol) {
          best_viol = above_by;
          leave = r;
          above = true;
        }
      }
      if (leave < 0) {
        if (pivots_since_refresh > 0) {
          // The incremental values say "primal feasible" — confirm
          // against freshly recomputed values before declaring
          // optimality (guards against drift).
          ComputeBasicValues(/*measure_drift=*/true);
          RecomputeReducedCosts();
          if (!RestoreDualFeasibility(stats)) {
            return IterStatus::kNotDualFeasible;
          }
          pivots_since_refresh = 0;
          continue;
        }
        // Primal feasible on fresh values. kOptimal additionally needs
        // strict dual feasibility: if a band-level wrong-sign residual
        // survived the whole dual solve, hand the basis to the primal
        // phases instead — it is primal feasible, so phase 1 passes
        // through pivot-free and phase 2 does the exact cleanup.
        return dual_wrong_sign_ > kDualEps ? IterStatus::kNotDualFeasible
                                           : IterStatus::kOptimal;
      }
      const int leaving_var = basis_[leave];
      const double sign = above ? 1.0 : -1.0;
      const double bound_target = above ? hi_[leaving_var] : lo_[leaving_var];

      BtranUnit(leave);
      ComputePivotRow();

      // --- Dual ratio test over the sparse pivot row. An at-lower
      // column blocks when sign * alpha > 0 (its reduced cost falls as
      // the dual step grows), an at-upper column when sign * alpha < 0,
      // a free column immediately (d ~ 0). ---
      dual_cands_.clear();
      bool weak_candidate = false;
      for (const int j : alpha_touched_) {
        if (vstat_[j] == VarStatus::kBasic || lo_[j] == hi_[j]) continue;
        const double a = alpha_[j];
        const double abar = sign * a;
        const VarStatus st = vstat_[j];
        const bool eligible =
            st == VarStatus::kFree ||
            (st == VarStatus::kAtLower && abar > 0) ||
            (st == VarStatus::kAtUpper && abar < 0);
        if (!eligible) continue;
        if (std::abs(a) <= kLeaveEps) {
          // Too small to pivot on, but real enough that this row is
          // not a clean infeasibility certificate.
          if (std::abs(a) > 1e-11) weak_candidate = true;
          continue;
        }
        double ratio = d_[j] / abar;
        if (ratio < 0) ratio = 0;  // dual-degenerate / tolerance noise
        dual_cands_.push_back(DualCand{ratio, std::abs(a), j});
      }
      if (dual_cands_.empty()) {
        if (pivots_since_refresh > 0) {
          ComputeBasicValues(/*measure_drift=*/true);
          RecomputeReducedCosts();
          if (!RestoreDualFeasibility(stats)) {
            return IterStatus::kNotDualFeasible;
          }
          pivots_since_refresh = 0;
          continue;
        }
        // No entering column can repair the violated row: with clean
        // candidates ruled out this is a dual ray — the LP is primal
        // infeasible. If only tolerance-sized pivots were rejected,
        // hand the verdict to the primal phases instead of certifying
        // infeasibility off numerical dust.
        return weak_candidate ? IterStatus::kNotDualFeasible
                              : IterStatus::kDualInfeasible;
      }
      std::sort(dual_cands_.begin(), dual_cands_.end(),
                [](const DualCand& x, const DualCand& y) {
                  if (x.ratio != y.ratio) return x.ratio < y.ratio;
                  if (x.abs_alpha != y.abs_alpha) {
                    return x.abs_alpha > y.abs_alpha;
                  }
                  return x.j < y.j;
                });

      // --- Bound-flipping long step: a boxed blocker whose whole range
      // absorbs less than the remaining infeasibility flips to its
      // other bound (no pivot) and the dual step marches past it to
      // the next candidate. ---
      double remaining = best_viol;
      size_t pick = dual_cands_.size() - 1;
      flip_scratch_.clear();
      for (size_t k = 0; k < dual_cands_.size(); ++k) {
        const DualCand& c = dual_cands_[k];
        const double range = hi_[c.j] - lo_[c.j];
        if (k + 1 < dual_cands_.size() && std::isfinite(range) &&
            remaining - c.abs_alpha * range > kFeasEps) {
          flip_scratch_.push_back(c.j);
          remaining -= c.abs_alpha * range;
          continue;
        }
        pick = k;
        break;
      }
      if (options_.safeguards) {
        // Harris pass 2 under EXPAND: later candidates whose exact
        // ratio still fits under every earlier candidate's relaxed
        // bound (ratio + expand_tol_/|alpha|) are admissible — any
        // skipped column's reduced cost goes wrong-sign by at most
        // expand_tol_, inside the dual repair band. Take the largest
        // pivot element in the window.
        double window = dual_cands_[pick].ratio +
                        expand_tol_ / dual_cands_[pick].abs_alpha;
        for (size_t k = pick + 1; k < dual_cands_.size(); ++k) {
          const DualCand& c = dual_cands_[k];
          if (c.ratio > window) break;
          window = std::min(window, c.ratio + expand_tol_ / c.abs_alpha);
          if (c.abs_alpha > dual_cands_[pick].abs_alpha) pick = k;
        }
        expand_tol_ = std::min(expand_tol_ + kExpandInc, kExpandMax);
      }
      const int enter = dual_cands_[pick].j;
      if (!flip_scratch_.empty()) {
        // One combined FTRAN over the flipped columns' deltas, through
        // the same hyper-sparse path as the entering column.
        for (const int32_t i : w_pattern_) w_[i] = 0.0;
        w_pattern_.clear();
        for (const int j : flip_scratch_) {
          const double delta = vstat_[j] == VarStatus::kAtLower
                                   ? hi_[j] - lo_[j]
                                   : lo_[j] - hi_[j];
          ForEachEntry(j, [&](int row, double v) {
            if (w_[row] == 0.0 && v != 0.0) w_pattern_.push_back(row);
            w_[row] += v * delta;
          });
          vstat_[j] = vstat_[j] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                       : VarStatus::kAtLower;
          xval_[j] = vstat_[j] == VarStatus::kAtLower ? lo_[j] : hi_[j];
        }
        const Stopwatch timer;
        lu_.FtranSparse(w_, w_pattern_);
        ftran_btran_seconds_ += timer.Elapsed();
        for (const int32_t r : w_pattern_) {
          xval_[basis_[r]] -= w_[r];
        }
        stats->bound_flips += static_cast<int64_t>(flip_scratch_.size());
        GlobalSolverCounters().bound_flips.fetch_add(
            static_cast<int64_t>(flip_scratch_.size()),
            std::memory_order_relaxed);
      }

      Ftran(enter);
      const double wr = w_[leave];
      if (std::abs(wr) <= kLeaveEps) {
        // The FTRAN image disagrees with the pivot row badly enough
        // that this pivot would poison the update: refresh everything
        // and re-price the row (bounded by the iteration budget).
        if (!Refactorize()) return IterStatus::kNumericalFailure;
        ComputeBasicValues(/*measure_drift=*/true);
        RecomputeReducedCosts();
        if (!RestoreDualFeasibility(stats)) return IterStatus::kNotDualFeasible;
        pivots_since_refresh = 0;
        pivots_since_factor = 0;
        continue;
      }

      // --- Pivot: primal step to the leaving bound, dual step by the
      // entering ratio, incremental d over the sparse pivot row. ---
      const double dx = (xval_[leaving_var] - bound_target) / wr;
      for (const int32_t r : w_pattern_) {
        xval_[basis_[r]] -= w_[r] * dx;
      }
      xval_[enter] += dx;
      xval_[leaving_var] = bound_target;  // snap exactly onto its bound
      vstat_[leaving_var] = lo_[leaving_var] == hi_[leaving_var]
                                ? VarStatus::kAtLower
                                : (above ? VarStatus::kAtUpper
                                         : VarStatus::kAtLower);
      const double theta_d = d_[enter] / wr;
      if (theta_d != 0.0) {
        for (const int j : alpha_touched_) {
          if (vstat_[j] == VarStatus::kBasic || j == enter) continue;
          d_[j] -= theta_d * alpha_[j];
        }
      }
      d_[leaving_var] = -theta_d;
      d_[enter] = 0.0;
      vstat_[enter] = VarStatus::kBasic;
      basis_[leave] = enter;
      stats->dual_pivots += 1;
      GlobalSolverCounters().dual_pivots.fetch_add(1,
                                                   std::memory_order_relaxed);
      ++pivots_since_refresh;
      ++pivots_since_factor;
      if (!lu_.Update(w_, w_pattern_, leave)) {
        // Same contract as the primal loop: the factors still describe
        // the pre-pivot basis, so refactorize immediately or fail.
        if (!Refactorize()) return IterStatus::kNumericalFailure;
        basis_repaired_ = false;
        ComputeBasicValues();
        RecomputeReducedCosts();
        if (!RestoreDualFeasibility(stats)) return IterStatus::kNotDualFeasible;
        pivots_since_refresh = 0;
        pivots_since_factor = 0;
      }
      // Watchdog last: a cost-perturbation escalation re-prices
      // through the factors, which now include this pivot.
      if (WatchdogTripped(theta_d, enter, leaving_var)) {
        if (perturb_rounds_ < kMaxPerturbRounds) {
          // Dual stall: split the dual-degenerate ties with a
          // sign-safe cost perturbation and keep going.
          PerturbCosts();
          if (!RestoreDualFeasibility(stats)) {
            return IterStatus::kNotDualFeasible;
          }
          pivots_since_refresh = 0;
        } else {
          // Out of perturbation rounds: hand the basis to the primal
          // phases, whose own ladder ends in Bland's rule.
          return IterStatus::kNotDualFeasible;
        }
      }
    }
    return IterStatus::kIterLimit;
  }

  /// Total bound violation of the basic variables.
  double Infeasibility() const {
    double total = 0;
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[r];
      if (xval_[j] < lo_[j]) total += lo_[j] - xval_[j];
      if (xval_[j] > hi_[j]) total += xval_[j] - hi_[j];
    }
    return total;
  }

  /// Largest single bound violation among the basic variables.
  double MaxViolation() const {
    double worst = 0;
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[r];
      worst = std::max(worst, lo_[j] - xval_[j]);
      worst = std::max(worst, xval_[j] - hi_[j]);
    }
    return worst;
  }

  std::vector<double> ExtractPrimal() const {
    std::vector<double> x(nv_);
    for (int j = 0; j < nv_; ++j) {
      x[j] = xval_[j] * col_scale_[j];
      if (std::isfinite(lo_[j])) x[j] = std::max(x[j], lo_[j] * col_scale_[j]);
      if (std::isfinite(hi_[j])) x[j] = std::min(x[j], hi_[j] * col_scale_[j]);
    }
    return x;
  }

  LpBasis ExportBasis() const {
    LpBasis basis;
    basis.variables.assign(vstat_.begin(), vstat_.begin() + nv_);
    basis.slacks.assign(vstat_.begin() + nv_, vstat_.end());
    return basis;
  }

  /// Row duals (unscaled back to the model's original rows) and
  /// structural reduced costs at the final basis. One BTRAN plus a full
  /// pricing pass — called once per solve, after optimality.
  void ExportDuals(std::vector<double>* duals,
                   std::vector<double>* reduced_costs) {
    RecomputeReducedCosts();  // leaves y_ = c_B B^{-1} (scaled rows)
    duals->resize(m_);
    for (int r = 0; r < m_; ++r) (*duals)[r] = y_[r] * row_scale_[r];
    reduced_costs->resize(nv_);
    for (int j = 0; j < nv_; ++j) (*reduced_costs)[j] = d_[j] / col_scale_[j];
  }

  /// Copies the factorization accounting into `stats` and charges the
  /// process-wide counters. Called once per solve, on every exit path.
  void ExportFactorStats(LpSolveStats* stats) {
    stats->refactorizations = refactorizations_;
    stats->ft_updates = lu_.total_updates();
    stats->eta_nnz = lu_.total_eta_nnz();
    stats->lu_fill_nnz = lu_.fill_nnz();
    stats->max_drift = max_drift_;
    stats->ftran_btran_seconds = ftran_btran_seconds_;
    stats->perturbations_applied = perturbations_applied_;
    stats->perturbations_removed = perturbations_removed_;
    stats->bland_escalations = bland_escalations_;
    stats->markowitz_escalations = markowitz_escalations_;
    stats->singular_repairs = singular_repairs_;
    AtomicSolverCounters& counters = GlobalSolverCounters();
    const auto add = [](std::atomic<int64_t>& f, int64_t v) {
      f.fetch_add(v, std::memory_order_relaxed);
    };
    add(counters.ft_updates, lu_.total_updates());
    add(counters.eta_nnz, lu_.total_eta_nnz());
    counters.AddSeconds(ftran_btran_seconds_);
    add(counters.perturbations_applied, perturbations_applied_);
    add(counters.perturbations_removed, perturbations_removed_);
    add(counters.bland_escalations, bland_escalations_);
    add(counters.markowitz_escalations, markowitz_escalations_);
    add(counters.singular_repairs, singular_repairs_);
  }

  /// True while a degeneracy perturbation (bounds or costs) is
  /// installed. The driver must remove it (and make the cleanup
  /// pivots) before certifying or exporting a verdict.
  bool PerturbationActive() const { return bounds_perturbed_ || cost_perturbed_; }

  /// Takes any installed perturbation back out: restores the original
  /// bounds/costs, snaps nonbasics onto their true bounds, and
  /// recomputes the basic values. The caller re-runs its optimality
  /// loop — the cleanup pivots — before the final verdict.
  void RemovePerturbation() {
    if (bounds_perturbed_) {
      lo_ = lo_base_;
      hi_ = hi_base_;
      bounds_perturbed_ = false;
    }
    if (cost_perturbed_) {
      cost_ = cost_base_;
      cost_perturbed_ = false;
    }
    perturbations_removed_ += active_perturb_rounds_;
    active_perturb_rounds_ = 0;
    for (int j = 0; j < n_; ++j) {
      if (vstat_[j] != VarStatus::kBasic) SetNonbasicAtBound(j, vstat_[j]);
    }
    ComputeBasicValues();
  }

  /// Clears every escalation artifact (perturbations, forced Bland,
  /// EXPAND creep) without touching the — possibly broken — factors or
  /// basic values, so a ColdStart right after restarts from a clean
  /// slate. The raised Markowitz threshold stays raised: it failed at
  /// the lower setting. Discarded perturbations are not counted as
  /// removed (nothing was cleaned up at the true data).
  void PrepareColdRestart() {
    if (bounds_perturbed_) {
      lo_ = lo_base_;
      hi_ = hi_base_;
      bounds_perturbed_ = false;
    }
    if (cost_perturbed_) {
      cost_ = cost_base_;
      cost_perturbed_ = false;
    }
    active_perturb_rounds_ = 0;
    perturb_rounds_ = 0;
    force_bland_ = false;
    basis_repaired_ = false;
    expand_tol_ = kExpandBase;
  }

  /// Independent verification of the final basis in the *unscaled*
  /// space: row feasibility, bound feasibility, reduced-cost signs,
  /// and primal-vs-dual objective agreement, each as a relative
  /// residual checked against kCertTol. One round of iterative
  /// refinement (a residual FTRAN correcting the basic values) runs
  /// first when the row residual warrants it. Requires any
  /// perturbation to be removed. Fills the certification stats and
  /// charges the process-wide certified/uncertified counters.
  bool Certify(LpSolveStats* stats) {
    double row_resid = ComputeRowResidual();
    if (row_resid > kCertTol / 8) {
      // x_B += B^{-1} r moves the basic values by exactly the row
      // residual (up to the factors' own error).
      std::copy(resid_.begin(), resid_.end(), y_.begin());
      const Stopwatch timer;
      lu_.Ftran(y_);
      ftran_btran_seconds_ += timer.Elapsed();
      for (int r = 0; r < m_; ++r) xval_[basis_[r]] += y_[r];
      stats->refinement_rounds += 1;
      row_resid = ComputeRowResidual();
    }
    double bound_resid = 0.0;
    for (int j = 0; j < n_; ++j) {
      const double s = ColScale(j);
      if (std::isfinite(lo_[j]) && xval_[j] < lo_[j]) {
        bound_resid = std::max(bound_resid, (lo_[j] - xval_[j]) * s /
                                                (1.0 + std::abs(lo_[j] * s)));
      }
      if (std::isfinite(hi_[j]) && xval_[j] > hi_[j]) {
        bound_resid = std::max(bound_resid, (xval_[j] - hi_[j]) * s /
                                                (1.0 + std::abs(hi_[j] * s)));
      }
    }
    RecomputeReducedCosts();  // exact d_ and y_ at the final basis
    double dual_resid = 0.0;
    for (int j = 0; j < n_; ++j) {
      const VarStatus st = vstat_[j];
      if (st == VarStatus::kBasic || lo_[j] == hi_[j]) continue;
      double wrong = 0.0;
      if (st == VarStatus::kAtLower) {
        wrong = -d_[j];
      } else if (st == VarStatus::kAtUpper) {
        wrong = d_[j];
      } else {
        wrong = std::abs(d_[j]);
      }
      if (wrong <= 0) continue;
      const double s = ColScale(j);
      dual_resid =
          std::max(dual_resid, (wrong / s) / (1.0 + std::abs(cost_[j] / s)));
    }
    // Objective agreement. Scaling preserves inner products (c'.x' =
    // c.x, y'.b' = y.b), so both objectives are computed directly in
    // the scaled space.
    double pobj = 0.0;
    for (int j = 0; j < n_; ++j) {
      if (cost_[j] != 0.0 && xval_[j] != 0.0) pobj += cost_[j] * xval_[j];
    }
    double dobj = 0.0;
    for (int r = 0; r < m_; ++r) dobj += y_[r] * b_[r];
    for (int j = 0; j < n_; ++j) {
      if (vstat_[j] == VarStatus::kBasic || d_[j] == 0.0 || xval_[j] == 0.0) {
        continue;
      }
      dobj += d_[j] * xval_[j];
    }
    const double gap = std::abs(pobj - dobj) / (1.0 + std::abs(pobj));
    stats->primal_residual = std::max(row_resid, bound_resid);
    stats->dual_residual = dual_resid;
    stats->objective_gap = gap;
    stats->certified = stats->primal_residual <= kCertTol &&
                       dual_resid <= kCertTol && gap <= kCertTol;
    AtomicSolverCounters& counters = GlobalSolverCounters();
    counters.refinement_rounds.fetch_add(stats->refinement_rounds,
                                         std::memory_order_relaxed);
    if (stats->certified) {
      counters.certified_solves.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters.uncertified_solves.fetch_add(1, std::memory_order_relaxed);
    }
    return stats->certified;
  }

 private:
  struct DualCand {
    double ratio;      // d_j / (sign * alpha_j), clamped at 0
    double abs_alpha;  // |pivot element| (stability tie-break)
    int j;
  };

  /// Applies `f(row, value)` to every nonzero of internal column `j`,
  /// in the fully scaled space (row and column scaling applied).
  template <typename F>
  void ForEachEntry(int j, F&& f) const {
    if (j < nv_) {
      const ColumnView col = model_.column(j);
      const double cs = col_scale_[j];
      for (int k = 0; k < col.nnz; ++k) {
        f(col.rows[k], col.vals[k] * row_scale_[col.rows[k]] * cs);
      }
    } else {
      f(j - nv_, 1.0);
    }
  }

  /// Column scale of internal column j: structurals carry their
  /// geometric-mean factor, the slack of row r carries 1/row_scale so
  /// its internal value maps back to the original row's slack.
  double ColScale(int j) const {
    return j < nv_ ? col_scale_[j] : 1.0 / row_scale_[j - nv_];
  }

  void SetNonbasicAtBound(int j, VarStatus preferred) {
    const bool lo_finite = std::isfinite(lo_[j]);
    const bool hi_finite = std::isfinite(hi_[j]);
    VarStatus st = preferred;
    if (st == VarStatus::kBasic) st = VarStatus::kAtLower;
    if (st == VarStatus::kAtLower && !lo_finite) {
      st = hi_finite ? VarStatus::kAtUpper : VarStatus::kFree;
    } else if (st == VarStatus::kAtUpper && !hi_finite) {
      st = lo_finite ? VarStatus::kAtLower : VarStatus::kFree;
    } else if (st == VarStatus::kFree && (lo_finite || hi_finite)) {
      st = lo_finite ? VarStatus::kAtLower : VarStatus::kAtUpper;
    }
    vstat_[j] = st;
    xval_[j] = st == VarStatus::kAtLower   ? lo_[j]
               : st == VarStatus::kAtUpper ? hi_[j]
                                           : 0.0;
  }

  /// w = B^{-1} * (column j): scatter the column by row, then one
  /// hyper-sparse LU solve through the update chain. Output indexed by
  /// basis position; w_ stays all-zero outside w_pattern_, so every
  /// consumer (ratio test, value update, FT spike) walks the pattern
  /// instead of all m rows.
  void Ftran(int j) {
    for (const int32_t i : w_pattern_) w_[i] = 0.0;
    w_pattern_.clear();
    ForEachEntry(j, [&](int row, double v) {
      if (w_[row] == 0.0 && v != 0.0) w_pattern_.push_back(row);
      w_[row] += v;
    });
    const Stopwatch timer;
    lu_.FtranSparse(w_, w_pattern_);
    ftran_btran_seconds_ += timer.Elapsed();
  }

  /// y^T = cb^T * B^{-1} (cb indexed by basis position, y by row).
  void Btran(const std::vector<double>& cb) {
    y_ = cb;
    const Stopwatch timer;
    lu_.Btran(y_);
    ftran_btran_seconds_ += timer.Elapsed();
  }

  /// rho = e_pos^T B^{-1}, the pivot row of the (pre-update) basis
  /// inverse, via a hyper-sparse unit-vector BTRAN. rho_ stays
  /// all-zero outside rho_pattern_.
  void BtranUnit(int pos) {
    for (const int32_t r : rho_pattern_) rho_[r] = 0.0;
    rho_pattern_.assign(1, pos);
    rho_[pos] = 1.0;
    const Stopwatch timer;
    lu_.BtranSparse(rho_, rho_pattern_);
    ftran_btran_seconds_ += timer.Elapsed();
  }

  /// Sparse pivot row from rho_: alpha_j = rho . a_j accumulated by
  /// walking the CSR rows where rho is nonzero (plus the slack of each
  /// such row), so only columns that can change are touched. Fills
  /// alpha_ (stamped) and alpha_touched_.
  void ComputePivotRow() {
    ++alpha_stamp_;
    const int32_t stamp = alpha_stamp_;
    alpha_touched_.clear();
    for (const int32_t r : rho_pattern_) {
      const double rr = rho_[r];
      if (rr == 0.0) continue;
      const RowView row = model_.row(r);
      const double scaled = rr * row_scale_[r];
      for (int k = 0; k < row.nnz; ++k) {
        const int j = row.cols[k];
        if (alpha_mark_[j] != stamp) {
          alpha_mark_[j] = stamp;
          alpha_[j] = 0.0;
          alpha_touched_.push_back(j);
        }
        alpha_[j] += scaled * row.vals[k] * col_scale_[j];
      }
      const int s = nv_ + r;  // slack column of row r: coefficient 1
      if (alpha_mark_[s] != stamp) {
        alpha_mark_[s] = stamp;
        alpha_[s] = 0.0;
        alpha_touched_.push_back(s);
      }
      alpha_[s] += rr;
    }
  }

  /// x_B = B^{-1} (b - N x_N); nonbasic values are already in xval_.
  /// With `measure_drift`, the largest |old - new| over the basic
  /// values — the update-chain drift caught by this refresh — feeds
  /// the solve's max_drift statistic.
  void ComputeBasicValues(bool measure_drift = false) {
    std::copy(b_.begin(), b_.end(), scratch_.begin());
    for (int j = 0; j < n_; ++j) {
      if (vstat_[j] == VarStatus::kBasic || xval_[j] == 0.0) continue;
      const double xj = xval_[j];
      ForEachEntry(j, [&](int row, double v) { scratch_[row] -= v * xj; });
    }
    std::copy(scratch_.begin(), scratch_.end(), y_.begin());
    const Stopwatch timer;
    lu_.Ftran(y_);
    ftran_btran_seconds_ += timer.Elapsed();
    if (measure_drift) {
      double worst = 0;
      for (int r = 0; r < m_; ++r) {
        worst = std::max(worst, std::abs(xval_[basis_[r]] - y_[r]));
      }
      max_drift_ = std::max(max_drift_, worst);
    }
    for (int r = 0; r < m_; ++r) xval_[basis_[r]] = y_[r];
  }

  /// Scaled-space row residual r = b' - A'x' over *all* columns into
  /// resid_ (independent of the factorization). Returns the worst
  /// unscaled relative residual max_r |r_r / R_r| / (1 + |rhs_r|).
  double ComputeRowResidual() {
    resid_ = b_;
    for (int j = 0; j < n_; ++j) {
      const double xj = xval_[j];
      if (xj == 0.0) continue;
      ForEachEntry(j, [&](int row, double v) { resid_[row] -= v * xj; });
    }
    double worst = 0.0;
    for (int r = 0; r < m_; ++r) {
      const double unscaled = std::abs(resid_[r]) / row_scale_[r];
      worst =
          std::max(worst, unscaled / (1.0 + std::abs(model_.row(r).rhs)));
    }
    return worst;
  }

  /// Degenerate pivots the watchdog tolerates before escalating.
  int64_t StallLimit() const {
    return options_.stall_pivot_limit > 0 ? options_.stall_pivot_limit
                                          : 100 + m_ / 4;
  }

  /// Re-seeds the stall/cycling watchdog from the installed basis.
  void ResetWatchdog() {
    stall_pivots_ = 0;
    basis_hash_ = 0;
    for (int r = 0; r < m_; ++r) basis_hash_ ^= ColHash(basis_[r]);
    recent_basis_.assign(64, basis_hash_);
    recent_pos_ = 0;
  }

  /// Folds one pivot into the watchdog: maintains the XOR basis hash,
  /// counts the degenerate streak (|step| <= kDegenStep — no objective
  /// progress), and checks degenerate pivots against the ring of
  /// recently visited basis hashes (a revisit while degenerate is the
  /// cycling signature; a productive pivot can never legally revisit,
  /// so the check is skipped there to dodge hash-collision noise).
  /// True means the caller must escalate; the streak restarts.
  bool WatchdogTripped(double step, int entered, int left) {
    if (!options_.safeguards) return false;
    basis_hash_ ^= ColHash(entered) ^ ColHash(left);
    bool tripped = false;
    if (std::abs(step) <= kDegenStep) {
      ++stall_pivots_;
      tripped = stall_pivots_ >= StallLimit();
      if (!tripped) {
        for (const uint64_t h : recent_basis_) {
          if (h == basis_hash_) {
            tripped = true;
            break;
          }
        }
      }
    } else {
      stall_pivots_ = 0;
    }
    recent_basis_[recent_pos_] = basis_hash_;
    recent_pos_ = (recent_pos_ + 1) & 63;
    if (tripped) stall_pivots_ = 0;
    return tripped;
  }

  /// Installs one round of outward bound perturbation (primal
  /// degeneracy breaker): every finite non-fixed bound moves outward
  /// by a deterministic per-column jitter, so the ratio-test ties that
  /// pinned the degenerate vertex split apart. Feasibility can only
  /// improve (the box grows). Removed by RemovePerturbation.
  void PerturbBounds() {
    if (!bounds_perturbed_) {
      lo_base_ = lo_;
      hi_base_ = hi_;
      bounds_perturbed_ = true;
    }
    ++perturb_rounds_;
    ++active_perturb_rounds_;
    ++perturbations_applied_;
    for (int j = 0; j < n_; ++j) {
      if (lo_[j] == hi_[j]) continue;  // fixed stays fixed
      const double eps = kBoundPerturb * Jitter(j, perturb_rounds_);
      if (std::isfinite(lo_[j])) lo_[j] -= eps * (1.0 + std::abs(lo_[j]));
      if (std::isfinite(hi_[j])) hi_[j] += eps * (1.0 + std::abs(hi_[j]));
    }
    for (int j = 0; j < n_; ++j) {
      if (vstat_[j] != VarStatus::kBasic) SetNonbasicAtBound(j, vstat_[j]);
    }
    ComputeBasicValues();
  }

  /// Dual analogue: sign-safe cost perturbation. An at-lower nonbasic
  /// needs d >= 0, so *raising* its cost only deepens dual
  /// feasibility; at-upper symmetrically. Dual-degenerate zero ratios
  /// turn into distinct positive ones. Removed by RemovePerturbation.
  void PerturbCosts() {
    if (!cost_perturbed_) {
      cost_base_ = cost_;
      cost_perturbed_ = true;
    }
    ++perturb_rounds_;
    ++active_perturb_rounds_;
    ++perturbations_applied_;
    for (int j = 0; j < n_; ++j) {
      if (lo_[j] == hi_[j]) continue;
      const double eps = kCostPerturb * Jitter(j, perturb_rounds_) *
                         (1.0 + std::abs(cost_[j]));
      if (vstat_[j] == VarStatus::kAtLower) {
        cost_[j] += eps;
      } else if (vstat_[j] == VarStatus::kAtUpper) {
        cost_[j] -= eps;
      }
    }
    RecomputeReducedCosts();
  }

  /// Entering direction of column j under the phase-2 reduced costs,
  /// or 0 if j cannot improve (basic, fixed, or dual feasible).
  int PriceDir(int j) const {
    const VarStatus st = vstat_[j];
    if (st == VarStatus::kBasic) return 0;
    const double dj = d_[j];
    int jdir = 0;
    if (st == VarStatus::kAtLower && dj < -kDualEps) {
      jdir = 1;
    } else if (st == VarStatus::kAtUpper && dj > kDualEps) {
      jdir = -1;
    } else if (st == VarStatus::kFree && std::abs(dj) > kDualEps) {
      jdir = dj < 0 ? 1 : -1;
    } else {
      return 0;
    }
    if (lo_[j] == hi_[j]) return 0;  // fixed: can never move
    return jdir;
  }

  /// Adds j to the phase-2 pricing candidate list if it improves and
  /// is not already listed. Stale entries are dropped lazily during
  /// the pricing scan, so the list is always a superset of the
  /// improving columns.
  void UpdateCandidate(int j) {
    if (!in_cand_[j] && PriceDir(j) != 0) {
      in_cand_[j] = 1;
      price_cand_.push_back(j);
    }
  }

  /// Full re-pricing of the phase-2 reduced-cost row (also the periodic
  /// numerical refresh). Rebuilds the pricing candidate list: every
  /// global d refresh invalidates the incremental maintenance.
  void RecomputeReducedCosts() {
    for (int r = 0; r < m_; ++r) scratch_[r] = cost_[basis_[r]];
    Btran(scratch_);
    for (int j = 0; j < n_; ++j) {
      if (vstat_[j] == VarStatus::kBasic) {
        d_[j] = 0.0;
        continue;
      }
      double acc = cost_[j];
      ForEachEntry(j, [&](int row, double v) { acc -= y_[row] * v; });
      d_[j] = acc;
    }
    price_cand_.clear();
    for (int j = 0; j < n_; ++j) {
      in_cand_[j] = PriceDir(j) != 0;
      if (in_cand_[j]) price_cand_.push_back(j);
    }
  }

  /// Phase-1 pricing: reduced costs of the composite infeasibility
  /// objective (sigma on violating basics, zero elsewhere).
  void RecomputePhase1Costs() {
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[r];
      if (xval_[j] < lo_[j] - kFeasEps) {
        scratch_[r] = -1.0;
      } else if (xval_[j] > hi_[j] + kFeasEps) {
        scratch_[r] = 1.0;
      } else {
        scratch_[r] = 0.0;
      }
    }
    Btran(scratch_);
    for (int j = 0; j < n_; ++j) {
      d_[j] = 0.0;
      if (vstat_[j] == VarStatus::kBasic) continue;
      double acc = 0;
      ForEachEntry(j, [&](int row, double v) { acc -= y_[row] * v; });
      d_[j] = acc;
    }
  }

  /// Repairs wrong-sign reduced costs on boxed nonbasics by flipping
  /// them to the opposite bound (where that sign is the correct one).
  /// A free or one-sided nonbasic with a wrong-sign reduced cost is not
  /// flip-repairable: beyond kDualRepairEps the function returns false
  /// and the basis stays valid (any flips already applied are legal
  /// nonbasic states) for the primal phases. Within kDualRepairEps —
  /// recompute noise on an optimal imported basis, the common warm-start
  /// case — the dual solve proceeds anyway: such a column surfaces in
  /// the ratio test as a zero-ratio candidate and is repaired by a
  /// degenerate pivot, and dual_wrong_sign_ records the worst residual
  /// so the optimality verdict can stay strict. Requires d_ freshly
  /// computed.
  bool RestoreDualFeasibility(LpSolveStats* stats) {
    bool restorable = true;
    int64_t flips = 0;
    dual_wrong_sign_ = 0.0;
    for (int j = 0; j < n_; ++j) {
      const VarStatus st = vstat_[j];
      if (st == VarStatus::kBasic || lo_[j] == hi_[j]) continue;
      if (st == VarStatus::kAtLower && d_[j] < -kDualEps) {
        if (!std::isfinite(hi_[j])) {
          if (-d_[j] > kDualRepairEps) {
            restorable = false;
            break;
          }
          dual_wrong_sign_ = std::max(dual_wrong_sign_, -d_[j]);
          continue;
        }
        vstat_[j] = VarStatus::kAtUpper;
        xval_[j] = hi_[j];
        ++flips;
      } else if (st == VarStatus::kAtUpper && d_[j] > kDualEps) {
        if (!std::isfinite(lo_[j])) {
          if (d_[j] > kDualRepairEps) {
            restorable = false;
            break;
          }
          dual_wrong_sign_ = std::max(dual_wrong_sign_, d_[j]);
          continue;
        }
        vstat_[j] = VarStatus::kAtLower;
        xval_[j] = lo_[j];
        ++flips;
      } else if (st == VarStatus::kFree && std::abs(d_[j]) > kDualEps) {
        if (std::abs(d_[j]) > kDualRepairEps) {
          restorable = false;
          break;
        }
        dual_wrong_sign_ = std::max(dual_wrong_sign_, std::abs(d_[j]));
      }
    }
    if (flips > 0) {
      stats->bound_flips += flips;
      GlobalSolverCounters().bound_flips.fetch_add(flips,
                                                   std::memory_order_relaxed);
      ComputeBasicValues();
    }
    return restorable;
  }

  /// Gathers the basis matrix given by `basic_cols` into the CSC
  /// scratch arrays.
  void GatherBasis(const std::vector<int>& basic_cols) {
    col_start_scratch_.assign(1, 0);
    col_rows_scratch_.clear();
    col_vals_scratch_.clear();
    for (int c = 0; c < m_; ++c) {
      ForEachEntry(basic_cols[c], [&](int row, double v) {
        col_rows_scratch_.push_back(row);
        col_vals_scratch_.push_back(v);
      });
      col_start_scratch_.push_back(
          static_cast<int32_t>(col_rows_scratch_.size()));
    }
  }

  bool TryFactorize(const std::vector<int>& basic_cols) {
    GatherBasis(basic_cols);
    return lu_.Factorize(m_, col_start_scratch_, col_rows_scratch_,
                         col_vals_scratch_);
  }

  /// Commits `basic_cols` as the installed basis after a successful
  /// factorization, and resets the EXPAND creep (fresh factors, fresh
  /// working tolerance).
  void CommitBasis(const std::vector<int>& basic_cols) {
    for (int c = 0; c < m_; ++c) {
      basis_[c] = basic_cols[c];
      vstat_[basic_cols[c]] = VarStatus::kBasic;
    }
    expand_tol_ = kExpandBase;
    ++refactorizations_;
    GlobalSolverCounters().factorizations.fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Rung 2 of the singular-basis ladder: re-run the elimination in
  /// skip-and-report mode, eject each dependent basic column, and
  /// substitute the slack of an uncovered row (its unit column covers
  /// that row by construction). Ejected columns become nonbasic at a
  /// bound; the repaired basis is refactorized for real. False when no
  /// pairing exists (an uncovered row's slack is itself among the
  /// dependent columns) or the repaired matrix still fails — the
  /// caller's next rung is a cold restart.
  bool RepairSingularBasis(const std::vector<int>& basic_cols) {
    std::vector<int> cols = basic_cols;  // basic_cols may alias basis_
    GatherBasis(cols);
    std::vector<int32_t> deficient, uncovered;
    if (lu_.FactorizeDeficient(m_, col_start_scratch_, col_rows_scratch_,
                               col_vals_scratch_, &deficient, &uncovered)) {
      CommitBasis(cols);  // not singular after all under skip mode
      return true;
    }
    if (deficient.empty() || deficient.size() != uncovered.size()) {
      return false;
    }
    std::vector<uint8_t> slack_basic(m_, 0);
    for (const int c : cols) {
      if (c >= nv_) slack_basic[c - nv_] = 1;
    }
    size_t u = 0;
    for (const int32_t pos : deficient) {
      while (u < uncovered.size() && slack_basic[uncovered[u]]) ++u;
      if (u == uncovered.size()) return false;  // no free slack to swap in
      const int ejected = cols[pos];
      const int slack = nv_ + uncovered[u];
      cols[pos] = slack;
      slack_basic[uncovered[u]] = 1;
      SetNonbasicAtBound(ejected, VarStatus::kAtLower);
      ++singular_repairs_;
      ++u;
    }
    if (!TryFactorize(cols)) return false;
    CommitBasis(cols);
    basis_repaired_ = true;
    return true;
  }

  /// Sparse LU factorization of the basis matrix given by `basic_cols`
  /// (in basis-position order, which stays stable across pivots).
  /// With safeguards on, a singular factorization walks the recovery
  /// ladder before giving up: the Markowitz pivot threshold is raised
  /// (0.1 -> 0.5 -> 0.99, sticky for the rest of the solve), then the
  /// dependent columns are swapped for slacks (RepairSingularBasis).
  /// False only when the ladder is exhausted (or safeguards are off);
  /// the previous factors stay intact in that case.
  bool Factorize(const std::vector<int>& basic_cols) {
    if (TryFactorize(basic_cols)) {
      CommitBasis(basic_cols);
      return true;
    }
    if (!options_.safeguards) return false;
    while (lu_.pivot_threshold() < 0.99) {
      lu_.SetPivotThreshold(lu_.pivot_threshold() < 0.5 ? 0.5 : 0.99);
      ++markowitz_escalations_;
      if (TryFactorize(basic_cols)) {
        CommitBasis(basic_cols);
        return true;
      }
    }
    return RepairSingularBasis(basic_cols);
  }

  /// Refactorizes the current basis from scratch. The update chain
  /// accumulates roundoff with every pivot; a fresh factorization
  /// (fill/stability-triggered, or at the backstop interval) keeps the
  /// factors and everything priced through them healthy. Keeps the
  /// previous factors if the matrix has gone numerically singular.
  bool Refactorize() { return Factorize(basis_); }

  /// Shared primal iteration loop. In phase 1 the composite objective
  /// is re-priced each iteration (it changes whenever a violation
  /// clears); in phase 2 the reduced-cost row is updated incrementally
  /// from the sparse pivot row, with a periodic full refresh.
  IterStatus Iterate(bool phase1, LpSolveStats* stats) {
    const int64_t iter_limit = 200 * (static_cast<int64_t>(m_) + n_) + 2000;
    const bool use_devex = !phase1 && options_.pricing == Pricing::kDevex;
    int64_t pivots_since_refresh = 0;
    int64_t pivots_since_factor = 0;
    for (int64_t iter = 0; iter < iter_limit; ++iter) {
      const bool bland = force_bland_ || iter > iter_limit / 2;
      if (pivots_since_factor >= kRefactorBackstop ||
          (pivots_since_factor > 0 && lu_.NeedsRefactorization())) {
        if (Refactorize()) {
          ComputeBasicValues(/*measure_drift=*/true);
          if (!phase1) RecomputeReducedCosts();
          pivots_since_refresh = 0;
          if (basis_repaired_) {
            // A slack swap mid-phase-2 may have broken primal
            // feasibility; hand control back to phase 1 if so.
            basis_repaired_ = false;
            if (!phase1 && MaxViolation() > kFeasEps) {
              return IterStatus::kFeasibilityLost;
            }
          }
        } else if (options_.safeguards) {
          // The whole ladder failed: the factors describe a stale
          // basis. Fail loudly — the driver's last rung is a cold
          // restart from the slack basis.
          return IterStatus::kNumericalFailure;
        }
        pivots_since_factor = 0;
      }
      if (phase1) {
        // Done when no basic variable violates its bounds beyond the
        // per-variable tolerance (the same criterion that assigns the
        // composite sigma costs).
        if (MaxViolation() <= kFeasEps) return IterStatus::kOptimal;
        RecomputePhase1Costs();
      } else if (pivots_since_refresh >= 64) {
        RecomputeReducedCosts();
        ComputeBasicValues(/*measure_drift=*/true);
        pivots_since_refresh = 0;
      }

      // --- Pricing: pick the entering variable. Devex scores
      // d^2 / weight (approximate steepest edge); Dantzig (and phase 1)
      // scores |d|. Phase 2 scans the incrementally-maintained
      // candidate list (compacting stale entries in place); phase 1
      // re-prices d every iteration and Bland needs the lowest
      // eligible index, so both scan every column. ---
      int enter = -1;
      double best_score = 0.0;
      int dir = 0;
      if (!phase1 && !bland) {
        size_t keep = 0;
        for (size_t k = 0; k < price_cand_.size(); ++k) {
          const int j = price_cand_[k];
          const int jdir = PriceDir(j);
          if (jdir == 0) {
            in_cand_[j] = 0;
            continue;
          }
          price_cand_[keep++] = j;
          const double dj = d_[j];
          if (use_devex) {
            // dj^2 / w_j > best is evaluated cross-multiplied so the
            // divide only runs when the leader actually changes.
            const double dj2 = dj * dj;
            if (dj2 > best_score * devex_w_[j]) {
              best_score = dj2 / devex_w_[j];
              enter = j;
              dir = jdir;
            }
          } else if (std::abs(dj) > best_score) {
            best_score = std::abs(dj);
            enter = j;
            dir = jdir;
          }
        }
        price_cand_.resize(keep);
      } else {
        for (int j = 0; j < n_; ++j) {
          const int jdir = PriceDir(j);
          if (jdir == 0) continue;
          if (bland) {  // first eligible column
            enter = j;
            dir = jdir;
            break;
          }
          if (std::abs(d_[j]) > best_score) {
            best_score = std::abs(d_[j]);
            enter = j;
            dir = jdir;
          }
        }
      }
      if (enter < 0) {
        if (phase1 && MaxViolation() > kInfeasTotal) {
          return IterStatus::kStalled;
        }
        if (!phase1 && pivots_since_refresh > 0) {
          // The incremental reduced costs say "optimal" — confirm with a
          // from-scratch re-pricing before accepting (guards against
          // drift-induced premature termination).
          RecomputeReducedCosts();
          ComputeBasicValues(/*measure_drift=*/true);
          pivots_since_refresh = 0;
          continue;
        }
        return IterStatus::kOptimal;
      }

      Ftran(enter);

      if (!phase1) {
        // Confirm the candidate against its exact reduced cost
        // c_j - c_B . w (O(m), w is already available). The incremental
        // d row can drift badly after a small-pivot update; a pivot
        // driven by a phantom reduced cost stalls convergence. Columns
        // that fail the check get their entry corrected in place and
        // pricing just runs again.
        double exact = cost_[enter];
        for (const int32_t i : w_pattern_) {
          exact -= cost_[basis_[i]] * w_[i];
        }
        d_[enter] = exact;
        const bool improving = dir > 0 ? exact < -kDualEps : exact > kDualEps;
        if (!improving) continue;
      }

      // --- Bounded-variable ratio test. ---
      // The entering variable moves by t >= 0 in direction `dir`; basic
      // variable in row i changes at rate -dir * w_[i]. The blocking
      // bound of row i (phase 1 treats an infeasible basic's *violated*
      // bound as the block, so the step drives the violation out):
      const auto classify = [&](int i, double wi, double* rate,
                                double* target, VarStatus* tstat) -> bool {
        const int j = basis_[i];
        *rate = -dir * wi;
        if (phase1 && xval_[j] < lo_[j] - kFeasEps) {
          // Infeasible below: blocks only when rising to its lower bound.
          if (*rate <= 0) return false;
          *target = lo_[j];
          *tstat = VarStatus::kAtLower;
        } else if (phase1 && xval_[j] > hi_[j] + kFeasEps) {
          if (*rate >= 0) return false;
          *target = hi_[j];
          *tstat = VarStatus::kAtUpper;
        } else if (*rate > 0) {
          *target = hi_[j];
          *tstat = VarStatus::kAtUpper;
        } else {
          *target = lo_[j];
          *tstat = VarStatus::kAtLower;
        }
        return std::isfinite(*target);
      };
      double t_flip = kInf;  // entering reaches its opposite bound
      if (std::isfinite(lo_[enter]) && std::isfinite(hi_[enter])) {
        t_flip = hi_[enter] - lo_[enter];
      }
      double t = t_flip;
      int leave = -1;
      double leave_target = 0;
      VarStatus leave_stat = VarStatus::kAtLower;
      double leave_w = 0;
      if (options_.safeguards && !bland) {
        // Harris two-pass ratio test under the EXPAND working
        // tolerance. Pass 1: the largest step any blocker allows when
        // its bound is relaxed by expand_tol_ (each candidate's
        // relaxed ratio is its exact ratio + expand_tol_/|rate|).
        // Pass 2: among rows whose *exact* ratio fits under that
        // relaxed cap, pivot on the largest |w_i| — stability instead
        // of the accidental order of near-ties. Any overshot row is
        // violated by at most expand_tol_ <= kFeasEps, inside the
        // solver's feasibility tolerance.
        double theta_max = t_flip;
        for (const int32_t i : w_pattern_) {
          const double wi = w_[i];
          if (std::abs(wi) <= kLeaveEps) continue;
          double rate, target;
          VarStatus tstat;
          if (!classify(i, wi, &rate, &target, &tstat)) continue;
          double ti = (target - xval_[basis_[i]]) / rate +
                      expand_tol_ / std::abs(rate);
          if (ti < 0) ti = 0;
          theta_max = std::min(theta_max, ti);
        }
        if (!std::isfinite(theta_max)) {
          return phase1 ? IterStatus::kStalled : IterStatus::kUnbounded;
        }
        for (const int32_t i : w_pattern_) {
          const double wi = w_[i];
          if (std::abs(wi) <= kLeaveEps) continue;
          double rate, target;
          VarStatus tstat;
          if (!classify(i, wi, &rate, &target, &tstat)) continue;
          double ti = (target - xval_[basis_[i]]) / rate;
          if (ti < 0) ti = 0;
          if (ti <= theta_max &&
              (leave < 0 || std::abs(wi) > std::abs(leave_w))) {
            t = ti;
            leave = i;
            leave_target = target;
            leave_stat = tstat;
            leave_w = wi;
          }
        }
        // Pass 1's argmin row always qualifies in pass 2 (its exact
        // ratio <= its relaxed one), so leave < 0 means no blocker at
        // all and theta_max == t_flip (finite): a bound flip.
        if (leave < 0) t = t_flip;
        expand_tol_ = std::min(expand_tol_ + kExpandInc, kExpandMax);
      } else {
        // Exact single-pass test (safeguards off, or Bland mode —
        // Bland's anti-cycling argument needs the exact lowest-index
        // blocker, not a Harris window).
        for (const int32_t i : w_pattern_) {
          const double wi = w_[i];
          // A pivot element this small would poison the basis update;
          // treat the row as non-blocking instead.
          if (std::abs(wi) <= kLeaveEps) continue;
          double rate, target;
          VarStatus tstat;
          if (!classify(i, wi, &rate, &target, &tstat)) continue;
          double ti = (target - xval_[basis_[i]]) / rate;
          if (ti < 0) ti = 0;  // degenerate (or tiny violation) pivot
          // Near-tied ratios (within the feasibility tolerance) resolve
          // toward the largest pivot element — small pivots poison both
          // the basis update and the incremental reduced costs.
          const bool take =
              ti < t - kFeasEps ||
              (ti < t + kFeasEps && leave >= 0 &&
               (bland ? basis_[i] < basis_[leave]
                      : std::abs(wi) > std::abs(leave_w)));
          if (take) {
            t = ti;
            leave = i;
            leave_target = target;
            leave_stat = tstat;
            leave_w = wi;
          }
        }
        if (!std::isfinite(t)) {
          return phase1 ? IterStatus::kStalled : IterStatus::kUnbounded;
        }
      }

      if (leave < 0) {
        // Bound flip: the entering variable crosses to its other bound;
        // no basis change, reduced costs unchanged.
        for (const int32_t i : w_pattern_) {
          xval_[basis_[i]] += -dir * w_[i] * t;
        }
        vstat_[enter] = vstat_[enter] == VarStatus::kAtLower
                            ? VarStatus::kAtUpper
                            : VarStatus::kAtLower;
        xval_[enter] =
            vstat_[enter] == VarStatus::kAtLower ? lo_[enter] : hi_[enter];
        stats->bound_flips += 1;
        GlobalSolverCounters().bound_flips.fetch_add(
            1, std::memory_order_relaxed);
        continue;
      }

      // --- Pivot: update values, statuses, factorization, reduced
      // costs. ---
      for (const int32_t i : w_pattern_) {
        xval_[basis_[i]] += -dir * w_[i] * t;
      }
      xval_[enter] += dir * t;
      const int leaving_var = basis_[leave];
      xval_[leaving_var] = leave_target;  // snap exactly onto its bound
      vstat_[leaving_var] = lo_[leaving_var] == hi_[leaving_var]
                                ? VarStatus::kAtLower
                                : leave_stat;
      vstat_[enter] = VarStatus::kBasic;
      basis_[leave] = enter;

      if (!phase1) {
        // Incremental reduced-cost row update from the (pre-update)
        // sparse pivot row rho = e_r B^{-1}:
        // d_j -= (d_q / w_r) * (rho . a_j), only for the columns the
        // row actually touches. The devex weights ride the same row:
        // w_j = max(w_j, (alpha_j / alpha_q)^2 * gamma_q) — columns
        // with alpha_j = 0 keep their weight, so the sparse walk is
        // exact.
        BtranUnit(leave);
        ComputePivotRow();
        const double theta = d_[enter] / w_[leave];
        if (use_devex) {
          double gamma = devex_w_[enter];
          if (gamma > kDevexWeightCap) {
            // The reference framework has drifted too far from the
            // current nonbasic set for the weights to be trusted:
            // restart devex from here.
            std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
            gamma = 1.0;
            stats->devex_resets += 1;
            GlobalSolverCounters().devex_resets.fetch_add(
                1, std::memory_order_relaxed);
          }
          const double wratio = gamma / (w_[leave] * w_[leave]);
          for (const int j : alpha_touched_) {
            if (vstat_[j] == VarStatus::kBasic || j == enter) continue;
            const double cand = alpha_[j] * alpha_[j] * wratio;
            if (cand > devex_w_[j]) devex_w_[j] = cand;
          }
          devex_w_[leaving_var] = std::max(wratio, 1.0);
        }
        if (theta != 0.0) {
          for (const int j : alpha_touched_) {
            if (vstat_[j] == VarStatus::kBasic || j == enter) continue;
            if (alpha_[j] != 0.0) {
              d_[j] -= theta * alpha_[j];
              UpdateCandidate(j);
            }
          }
        }
        d_[leaving_var] = -theta;
        d_[enter] = 0.0;
        UpdateCandidate(leaving_var);
        stats->phase2_pivots += 1;
        GlobalSolverCounters().phase2_pivots.fetch_add(
            1, std::memory_order_relaxed);
        ++pivots_since_refresh;
      } else {
        stats->phase1_pivots += 1;
        GlobalSolverCounters().phase1_pivots.fetch_add(
            1, std::memory_order_relaxed);
      }
      ++pivots_since_factor;
      if (!lu_.Update(w_, w_pattern_, leave)) {
        // Unusable update pivot (the ratio test's kLeaveEps floor keeps
        // this out of reach in practice): refactorize the
        // already-updated basis immediately. If even that fails, the
        // factors still describe the *pre-pivot* basis while basis_ /
        // xval_ moved on — continuing would price every later
        // iteration against the wrong basis, so fail the solve loudly
        // instead of returning a silently wrong optimum.
        if (!Refactorize()) return IterStatus::kNumericalFailure;
        ComputeBasicValues();
        if (!phase1) RecomputeReducedCosts();
        pivots_since_refresh = 0;
        pivots_since_factor = 0;
        if (basis_repaired_) {
          basis_repaired_ = false;
          if (!phase1 && MaxViolation() > kFeasEps) {
            return IterStatus::kFeasibilityLost;
          }
        }
      }
      // Watchdog last: its escalations (perturb / Bland) solve through
      // the factors, which now include this pivot.
      if (WatchdogTripped(t, enter, leaving_var)) {
        if (!phase1 && perturb_rounds_ < kMaxPerturbRounds) {
          // Escalation rung 1 (phase 2 only): break the degenerate
          // vertex apart with an outward bound perturbation.
          PerturbBounds();
        } else if (!force_bland_) {
          // Rung 2 (and all of phase 1): Bland's rule — slower, but
          // finite termination is guaranteed.
          force_bland_ = true;
          ++bland_escalations_;
        }
      }
    }
    return IterStatus::kIterLimit;
  }

  const Model& model_;
  const LpOptions options_;
  const int nv_;  // structural variables
  const int m_;   // rows
  const int n_;   // structural + slacks

  std::vector<double> lo_, hi_;   // per internal column (scaled)
  std::vector<double> cost_;      // phase-2 objective (scaled; slacks zero)
  std::vector<double> b_;         // scaled rhs
  std::vector<double> row_scale_; // row scale R (geometric mean + equilibrate)
  std::vector<double> col_scale_; // structural column scale C (powers of two)
  LuFactor lu_;                   // sparse LU + Forrest–Tomlin basis
  std::vector<int> basis_;        // basis_[pos] = column basic at pos
  std::vector<VarStatus> vstat_;  // per internal column
  std::vector<double> xval_;      // all variable values
  std::vector<double> d_;         // reduced costs
  std::vector<double> w_;         // FTRAN scratch (basis-position space)
  std::vector<int32_t> w_pattern_;    // nonzero pattern of w_
  std::vector<double> rho_;       // pivot-row scratch (row space)
  std::vector<int32_t> rho_pattern_;  // nonzero pattern of rho_
  std::vector<double> y_;         // BTRAN scratch (row space)
  std::vector<double> scratch_;   // cb / residual scratch

  // Sparse pivot-row scratch (stamped accumulator over all columns).
  std::vector<double> alpha_;
  std::vector<int32_t> alpha_mark_;
  std::vector<int> alpha_touched_;
  int32_t alpha_stamp_ = 0;

  std::vector<double> devex_w_;      // devex reference weights
  std::vector<DualCand> dual_cands_; // dual ratio-test candidates
  std::vector<int> flip_scratch_;    // long-step flips this pivot

  // Worst wrong-sign reduced cost left unrepaired (within
  // kDualRepairEps) by the latest RestoreDualFeasibility.
  double dual_wrong_sign_ = 0.0;

  // Phase-2 pricing candidate list: a superset of the improving
  // nonbasic columns, rebuilt on every global re-price and maintained
  // incrementally from the pivot row in between.
  std::vector<int> price_cand_;
  std::vector<uint8_t> in_cand_;

  // Basis-column gather scratch for Factorize.
  std::vector<int32_t> col_start_scratch_;
  std::vector<int32_t> col_rows_scratch_;
  std::vector<double> col_vals_scratch_;

  // Factorization accounting for LpSolveStats.
  int64_t refactorizations_ = 0;
  double max_drift_ = 0.0;
  double ftran_btran_seconds_ = 0.0;

  // --- Numerical-safeguard state (LpOptions::safeguards). ---
  double expand_tol_ = kExpandBase;  // EXPAND working tolerance (creeps)
  // Stall/cycling watchdog.
  int64_t stall_pivots_ = 0;            // consecutive degenerate pivots
  uint64_t basis_hash_ = 0;             // XOR of ColHash over the basis
  std::vector<uint64_t> recent_basis_;  // ring of recent basis hashes
  int recent_pos_ = 0;
  bool force_bland_ = false;
  // Degeneracy perturbation: saved true data while installed.
  bool bounds_perturbed_ = false;
  bool cost_perturbed_ = false;
  int perturb_rounds_ = 0;         // lifetime rounds (caps escalation)
  int active_perturb_rounds_ = 0;  // rounds currently installed
  std::vector<double> lo_base_, hi_base_, cost_base_;
  // Singular-basis repair: set when a slack swap changed the basis,
  // consumed at the next refactorization's feasibility check.
  bool basis_repaired_ = false;
  // Certification scratch (row residual, also the refinement rhs).
  std::vector<double> resid_;
  // Safeguard accounting for LpSolveStats.
  int64_t perturbations_applied_ = 0;
  int64_t perturbations_removed_ = 0;
  int64_t bland_escalations_ = 0;
  int64_t markowitz_escalations_ = 0;
  int64_t singular_repairs_ = 0;
};

}  // namespace

SolverCounters AtomicSolverCounters::Snapshot() const {
  SolverCounters s;
  s.lp_solves = lp_solves.load(std::memory_order_relaxed);
  s.phase1_pivots = phase1_pivots.load(std::memory_order_relaxed);
  s.phase2_pivots = phase2_pivots.load(std::memory_order_relaxed);
  s.dual_pivots = dual_pivots.load(std::memory_order_relaxed);
  s.bound_flips = bound_flips.load(std::memory_order_relaxed);
  s.devex_resets = devex_resets.load(std::memory_order_relaxed);
  s.warm_starts = warm_starts.load(std::memory_order_relaxed);
  s.cold_starts = cold_starts.load(std::memory_order_relaxed);
  s.factorizations = factorizations.load(std::memory_order_relaxed);
  s.ft_updates = ft_updates.load(std::memory_order_relaxed);
  s.eta_nnz = eta_nnz.load(std::memory_order_relaxed);
  s.ftran_btran_seconds = ftran_btran_seconds.load(std::memory_order_relaxed);
  s.certified_solves = certified_solves.load(std::memory_order_relaxed);
  s.uncertified_solves = uncertified_solves.load(std::memory_order_relaxed);
  s.refinement_rounds = refinement_rounds.load(std::memory_order_relaxed);
  s.perturbations_applied =
      perturbations_applied.load(std::memory_order_relaxed);
  s.perturbations_removed =
      perturbations_removed.load(std::memory_order_relaxed);
  s.bland_escalations = bland_escalations.load(std::memory_order_relaxed);
  s.markowitz_escalations =
      markowitz_escalations.load(std::memory_order_relaxed);
  s.singular_repairs = singular_repairs.load(std::memory_order_relaxed);
  s.cold_restarts = cold_restarts.load(std::memory_order_relaxed);
  return s;
}

void AtomicSolverCounters::Reset() {
  lp_solves.store(0, std::memory_order_relaxed);
  phase1_pivots.store(0, std::memory_order_relaxed);
  phase2_pivots.store(0, std::memory_order_relaxed);
  dual_pivots.store(0, std::memory_order_relaxed);
  bound_flips.store(0, std::memory_order_relaxed);
  devex_resets.store(0, std::memory_order_relaxed);
  warm_starts.store(0, std::memory_order_relaxed);
  cold_starts.store(0, std::memory_order_relaxed);
  factorizations.store(0, std::memory_order_relaxed);
  ft_updates.store(0, std::memory_order_relaxed);
  eta_nnz.store(0, std::memory_order_relaxed);
  ftran_btran_seconds.store(0.0, std::memory_order_relaxed);
  certified_solves.store(0, std::memory_order_relaxed);
  uncertified_solves.store(0, std::memory_order_relaxed);
  refinement_rounds.store(0, std::memory_order_relaxed);
  perturbations_applied.store(0, std::memory_order_relaxed);
  perturbations_removed.store(0, std::memory_order_relaxed);
  bland_escalations.store(0, std::memory_order_relaxed);
  markowitz_escalations.store(0, std::memory_order_relaxed);
  singular_repairs.store(0, std::memory_order_relaxed);
  cold_restarts.store(0, std::memory_order_relaxed);
}

AtomicSolverCounters& GlobalSolverCounters() {
  static AtomicSolverCounters counters;
  return counters;
}

void ResetSolverCounters() { GlobalSolverCounters().Reset(); }

SolverCounters SolverCountersSnapshot() {
  return GlobalSolverCounters().Snapshot();
}

SolverCounters SolverCountersSince(const SolverCounters& snapshot) {
  const SolverCounters now = SolverCountersSnapshot();
  SolverCounters delta;
  delta.lp_solves = now.lp_solves - snapshot.lp_solves;
  delta.phase1_pivots = now.phase1_pivots - snapshot.phase1_pivots;
  delta.phase2_pivots = now.phase2_pivots - snapshot.phase2_pivots;
  delta.dual_pivots = now.dual_pivots - snapshot.dual_pivots;
  delta.bound_flips = now.bound_flips - snapshot.bound_flips;
  delta.devex_resets = now.devex_resets - snapshot.devex_resets;
  delta.warm_starts = now.warm_starts - snapshot.warm_starts;
  delta.cold_starts = now.cold_starts - snapshot.cold_starts;
  delta.factorizations = now.factorizations - snapshot.factorizations;
  delta.ft_updates = now.ft_updates - snapshot.ft_updates;
  delta.eta_nnz = now.eta_nnz - snapshot.eta_nnz;
  delta.ftran_btran_seconds =
      now.ftran_btran_seconds - snapshot.ftran_btran_seconds;
  delta.certified_solves = now.certified_solves - snapshot.certified_solves;
  delta.uncertified_solves =
      now.uncertified_solves - snapshot.uncertified_solves;
  delta.refinement_rounds = now.refinement_rounds - snapshot.refinement_rounds;
  delta.perturbations_applied =
      now.perturbations_applied - snapshot.perturbations_applied;
  delta.perturbations_removed =
      now.perturbations_removed - snapshot.perturbations_removed;
  delta.bland_escalations = now.bland_escalations - snapshot.bland_escalations;
  delta.markowitz_escalations =
      now.markowitz_escalations - snapshot.markowitz_escalations;
  delta.singular_repairs = now.singular_repairs - snapshot.singular_repairs;
  delta.cold_restarts = now.cold_restarts - snapshot.cold_restarts;
  return delta;
}

LpSolution SolveLp(const Model& model, const LpOptions& options,
                   const LpBasis* warm_basis) {
  if (!model.input_status().ok()) {
    // A NaN/Inf slipped into the model at build time; refuse to run it
    // through the factorization rather than propagate the poison.
    LpSolution bad;
    bad.status = model.input_status();
    return bad;
  }
  // Bounds written straight through Model::variable() bypass the
  // latched validation of SetVariableBounds; check them here too.
  for (const Variable& v : model.variables()) {
    if (std::isnan(v.lower) || std::isnan(v.upper)) {
      LpSolution bad;
      bad.status = Status::InvalidArgument("NaN variable bound");
      return bad;
    }
    if (v.lower > v.upper) {
      LpSolution bad;
      bad.status = Status::Infeasible("contradictory variable bounds");
      return bad;
    }
  }

  AtomicSolverCounters& counters = GlobalSolverCounters();
  counters.lp_solves.fetch_add(1, std::memory_order_relaxed);

  RevisedSimplex simplex(model, options);
  LpSolution sol;
  const auto finish = [&]() -> LpSolution {
    simplex.ExportFactorStats(&sol.stats);
    return std::move(sol);
  };
  const auto succeed = [&]() -> LpSolution {
    sol.status = Status::Ok();
    if (options.safeguards) simplex.Certify(&sol.stats);
    sol.x = simplex.ExtractPrimal();
    sol.objective = model.ObjectiveValue(sol.x);
    sol.basis = simplex.ExportBasis();
    simplex.ExportDuals(&sol.duals, &sol.reduced_costs);
    return finish();
  };
  // The last rung of the recovery ladder: rebuild from the slack basis
  // with every escalation artifact cleared (once per solve).
  const auto cold_restart = [&]() {
    sol.stats.cold_restarts += 1;
    counters.cold_restarts.fetch_add(1, std::memory_order_relaxed);
    simplex.PrepareColdRestart();
    simplex.ColdStart();
  };
  // Primal phases with safeguard plumbing: a basis repair that broke
  // feasibility reruns phase 1, and a perturbed optimum is cleaned up
  // (perturbation out, a few exact pivots) before it counts. Bounded
  // rounds — each retry either clears a perturbation (at most
  // kMaxPerturbRounds installs per solve) or follows a repair.
  const char* phase_tag = "phase 1";
  const auto run_primal = [&]() -> IterStatus {
    for (int round = 0; round < 8; ++round) {
      phase_tag = "phase 1";
      IterStatus st = simplex.Phase1(&sol.stats);
      if (st != IterStatus::kOptimal) return st;
      if (simplex.MaxViolation() > kInfeasTotal) return IterStatus::kStalled;
      phase_tag = "phase 2";
      st = simplex.Phase2(&sol.stats);
      if (st == IterStatus::kFeasibilityLost) continue;
      if (st == IterStatus::kOptimal && simplex.PerturbationActive()) {
        simplex.RemovePerturbation();
        continue;
      }
      return st;
    }
    return IterStatus::kIterLimit;
  };

  if (warm_basis != nullptr && !warm_basis->empty() &&
      simplex.WarmStart(*warm_basis)) {
    sol.stats.warm_started = true;
    counters.warm_starts.fetch_add(1, std::memory_order_relaxed);
  } else {
    simplex.ColdStart();
    counters.cold_starts.fetch_add(1, std::memory_order_relaxed);
  }

  bool restarted = false;
  if (options.entry == SimplexEntry::kDual) {
    IterStatus dst = simplex.DualSolve(&sol.stats);
    // A perturbed dual optimum is not a verdict: take the costs back
    // out and let the dual loop make the exact cleanup pivots.
    for (int cleanup = 0;
         dst == IterStatus::kOptimal && simplex.PerturbationActive() &&
         cleanup < 4;
         ++cleanup) {
      simplex.RemovePerturbation();
      dst = simplex.DualSolve(&sol.stats);
    }
    if (dst == IterStatus::kNumericalFailure && options.safeguards &&
        !restarted) {
      restarted = true;
      cold_restart();
      dst = IterStatus::kNotDualFeasible;  // fall through to the primal path
    }
    if (dst == IterStatus::kOptimal && !simplex.PerturbationActive() &&
        simplex.MaxViolation() <= kInfeasTotal) {
      sol.stats.dual_entered = true;
      return succeed();
    }
    if (dst == IterStatus::kDualInfeasible) {
      sol.stats.dual_entered = true;
      sol.status = Status::Infeasible("dual simplex: dual ray found");
      return finish();
    }
    if (dst == IterStatus::kNumericalFailure) {
      sol.status = Status::Internal("basis factorization failed (dual)");
      return finish();
    }
    // kNotDualFeasible or kIterLimit (or a feasibility check the dual
    // optimum failed, or a perturbation that would not clean up): fall
    // back to the primal phases from the current basis, with any
    // leftover perturbation removed so the verdict is exact.
    if (simplex.PerturbationActive()) simplex.RemovePerturbation();
  }

  IterStatus st = run_primal();
  if (st == IterStatus::kNumericalFailure && options.safeguards &&
      !restarted) {
    restarted = true;
    cold_restart();
    st = run_primal();
  }
  if (st == IterStatus::kStalled) {
    sol.status = Status::Infeasible("phase-1 optimum positive");
    return finish();
  }
  if (st == IterStatus::kIterLimit) {
    sol.status = Status::Internal(std::string("simplex iteration limit (") +
                                  phase_tag + ")");
    return finish();
  }
  if (st == IterStatus::kNumericalFailure) {
    sol.status = Status::Internal(std::string("basis factorization failed (") +
                                  phase_tag + ")");
    return finish();
  }
  if (st == IterStatus::kUnbounded) {
    sol.status = Status::Unbounded("LP relaxation unbounded");
    return finish();
  }

  return succeed();
}

}  // namespace cophy::lp
