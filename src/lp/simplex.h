// A sparse bounded-variable revised simplex for the LP relaxations the
// advisor solves: the structured solver's root LP (ChoiceSolver in
// lp/choice_problem.h) and the differential tests. Variable bounds
// `lo <= x <= hi` are handled implicitly through nonbasic-at-lower /
// nonbasic-at-upper states (no synthetic bound rows), pricing walks the
// model's CSC column views, and the reduced-cost row is maintained
// incrementally from the sparse pivot row across pivots. The basis is
// held as a sparse LU factorization (lp/lu_factor.h: Markowitz-ordered,
// threshold-pivoted, Forrest–Tomlin updated per pivot, refactorized on
// a fill/stability trigger), so FTRAN/BTRAN cost O(factor nnz) instead
// of O(rows^2).
//
// Two entry points, selected by LpOptions::entry:
//  - Primal (default): artificial-free phase 1 restores primal
//    feasibility of an arbitrary starting basis by minimizing the
//    total bound violation of the basic variables, then phase 2
//    optimizes. Phase-2 pricing is devex by default (reference-
//    framework weights with cheap resets, LpOptions::pricing switches
//    back to Dantzig), every candidate is confirmed against its exact
//    reduced cost after FTRAN, and a Bland fallback guards against
//    cycling.
//  - Dual: from a dual-feasible basis (wrong-sign reduced costs on
//    boxed nonbasics are repaired by bound flips first), a dual ratio
//    test with bound-flipping long steps drives the primal
//    infeasibility out without ever entering primal phase 1. This is
//    the warm root-LP path: a basis exported by an earlier solve of
//    the same LP stays dual feasible as long as the objective is
//    unchanged, so a bound or rhs change costs a few dual pivots. A
//    start that cannot be made dual feasible (e.g. a re-weighted
//    objective) falls back to the primal phases transparently.
//
// The old dense tableau implementation survives as SolveLpDense in
// lp/dense_simplex.h (differential-test oracle and benchmark baseline).
#ifndef COPHY_LP_SIMPLEX_H_
#define COPHY_LP_SIMPLEX_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "lp/model.h"

namespace cophy::lp {

/// Simplex status of one variable (structural or row slack).
enum class VarStatus : int8_t {
  kAtLower = 0,  ///< nonbasic at its lower bound
  kAtUpper = 1,  ///< nonbasic at its upper bound
  kBasic = 2,
  kFree = 3,     ///< nonbasic with no finite bound (value 0)
};

/// An exported simplex basis: one status per structural variable and
/// one per row (the row's slack). Feed it back into SolveLp to
/// warm-start a related solve (same model shape, perturbed bounds).
struct LpBasis {
  std::vector<VarStatus> variables;
  std::vector<VarStatus> slacks;
  bool empty() const { return variables.empty() && slacks.empty(); }
};

/// Phase-2 pricing rule for the primal simplex.
enum class Pricing : int8_t {
  /// Largest reduced-cost violation. Cheap per pivot, but blind to the
  /// steepness of the resulting edge — degenerate BIP relaxations pay
  /// for it in pivot count. No advisor path sets it; the differential
  /// tests run it as a second pivot sequence against the same oracle.
  kDantzig = 0,
  /// Devex (Harris '73): approximate steepest-edge weights maintained
  /// from the pivot row against a reference framework, reset to the
  /// current nonbasic set whenever the weights blow past their trusted
  /// range. Nearly Dantzig-cheap per pivot, close to steepest-edge in
  /// pivot count. The default.
  kDevex = 1,
};

/// How SolveLp enters the solve.
enum class SimplexEntry : int8_t {
  /// Phase 1 (restore primal feasibility), then phase 2.
  kPrimal = 0,
  /// Dual simplex from the (possibly flip-repaired) starting basis;
  /// falls back to the primal phases if the basis cannot be made dual
  /// feasible. The right entry when the basis of a *related* solve is
  /// re-imported under changed bounds or rhs but the same objective:
  /// it then skips primal phase 1 entirely.
  kDual = 1,
};

/// How the constraint matrix is conditioned before the solve. Scaling
/// is deterministic from the model alone, so re-imported bases see the
/// same scaled problem on every solve.
enum class LpScaling : int8_t {
  /// Rows divided by their largest |coefficient| (the legacy behavior).
  kRowEquilibrate = 0,
  /// Geometric-mean column scaling (factors snapped to powers of two,
  /// so applying and undoing them is exact) composed with the row
  /// equilibration. The default: wide-dynamic-range columns stop
  /// dictating pivot tolerances for everyone else.
  kGeometricMean = 1,
};

/// Knobs for one SolveLp call.
struct LpOptions {
  Pricing pricing = Pricing::kDevex;
  SimplexEntry entry = SimplexEntry::kPrimal;
  LpScaling scaling = LpScaling::kGeometricMean;
  /// Master switch for the numerical self-defense layer: the
  /// stall/cycling watchdog, degeneracy perturbation, the recovery
  /// ladder (Bland / Markowitz-threshold / slack-repair / cold
  /// restart), and solution certification with iterative refinement.
  /// Off is the baseline the safeguard-overhead CI gate compares
  /// against.
  bool safeguards = true;
  /// Degenerate pivots in a row before the watchdog declares a stall
  /// and escalates (perturb, then Bland). <= 0 picks an adaptive
  /// default; tests pin tiny values to exercise the ladder.
  int64_t stall_pivot_limit = 0;
};

/// Per-solve work counters.
struct LpSolveStats {
  int64_t phase1_pivots = 0;   ///< primal feasibility-restoring pivots
  int64_t phase2_pivots = 0;   ///< primal optimality pivots
  int64_t dual_pivots = 0;     ///< dual-simplex pivots
  int64_t bound_flips = 0;     ///< nonbasic lower<->upper moves (no pivot)
  int64_t devex_resets = 0;    ///< devex reference-framework resets
  bool warm_started = false;   ///< an imported basis was accepted
  bool dual_entered = false;   ///< the dual simplex ran (and did not fall back)
  // Basis-factorization accounting (the sparse LU behind FTRAN/BTRAN).
  int64_t refactorizations = 0;  ///< fresh LU factorizations (incl. imports)
  int64_t ft_updates = 0;        ///< Forrest–Tomlin basis updates applied
  int64_t eta_nnz = 0;           ///< update fill appended (spike + row etas)
  int64_t lu_fill_nnz = 0;       ///< L+U fill-in at the last factorization
  double max_drift = 0.0;        ///< worst basic-value drift caught at a refresh
  double ftran_btran_seconds = 0.0;  ///< wall time inside FTRAN/BTRAN solves
  // Numerical-safeguard accounting (LpOptions::safeguards).
  /// The independent unscaled verification pass (primal/dual
  /// feasibility, complementarity, objective match) accepted the
  /// solution. Only ever true on an Ok status with safeguards on; the
  /// structured solver uses no uncertified root-LP bound.
  bool certified = false;
  double primal_residual = 0.0;  ///< worst relative row/bound violation, unscaled
  double dual_residual = 0.0;    ///< worst relative reduced-cost sign violation
  double objective_gap = 0.0;    ///< relative primal-vs-dual objective mismatch
  int64_t refinement_rounds = 0; ///< residual-FTRAN refinement passes applied
  int64_t perturbations_applied = 0;  ///< degeneracy perturbations installed
  int64_t perturbations_removed = 0;  ///< ... removed before the final verdict
  int64_t bland_escalations = 0;      ///< watchdog forced Bland's rule
  int64_t markowitz_escalations = 0;  ///< LU pivot threshold raised (0.1->0.5->0.99)
  int64_t singular_repairs = 0;       ///< dependent basic columns replaced by slacks
  int64_t cold_restarts = 0;          ///< solve restarted from the slack basis
};

/// Result of an LP solve.
struct LpSolution {
  Status status;          ///< Ok, Infeasible, or Unbounded
  std::vector<double> x;  ///< primal values (valid when status ok)
  double objective = 0.0; ///< includes the model's objective constant
  LpBasis basis;          ///< final basis (valid when status ok)
  /// Row duals y (one per constraint row, in the model's original row
  /// scaling). Sign convention: minimize c'x with row + slack = rhs, so
  /// a binding <= row has y <= 0 and a binding >= row has y >= 0.
  std::vector<double> duals;
  /// Reduced costs d_j = c_j - y'A_j per structural variable (zero for
  /// basic variables; >= 0 at lower bound, <= 0 at upper bound, up to
  /// the dual tolerance). The raw material for reduced-cost fixing.
  std::vector<double> reduced_costs;
  LpSolveStats stats;
};

/// Plain value snapshot of the process-wide pivot/pricing accounting
/// (what benchmarks and reports diff; see AtomicSolverCounters for the
/// live accumulator).
struct SolverCounters {
  int64_t lp_solves = 0;
  int64_t phase1_pivots = 0;
  int64_t phase2_pivots = 0;
  int64_t dual_pivots = 0;     ///< dual-simplex pivots
  int64_t bound_flips = 0;
  int64_t devex_resets = 0;    ///< devex reference-framework resets
  int64_t warm_starts = 0;     ///< solves that accepted an imported basis
  int64_t cold_starts = 0;     ///< solves from the slack basis
  int64_t factorizations = 0;  ///< fresh sparse-LU basis factorizations
  int64_t ft_updates = 0;      ///< Forrest–Tomlin basis updates applied
  int64_t eta_nnz = 0;         ///< update fill appended (spike + row etas)
  double ftran_btran_seconds = 0.0;  ///< wall time inside FTRAN/BTRAN
  // Numerical-safeguard totals (see the LpSolveStats counterparts).
  int64_t certified_solves = 0;    ///< Ok solves that passed certification
  int64_t uncertified_solves = 0;  ///< Ok solves that failed it
  int64_t refinement_rounds = 0;
  int64_t perturbations_applied = 0;
  int64_t perturbations_removed = 0;
  int64_t bland_escalations = 0;
  int64_t markowitz_escalations = 0;
  int64_t singular_repairs = 0;
  int64_t cold_restarts = 0;
};

/// The live process-wide accumulator: every field is a relaxed atomic,
/// so concurrent solves (distinct tenants in the service tier) can bump
/// it without synchronization and observers can Snapshot() a coherent
/// value set while solves are in flight. Counter bumps are relaxed —
/// totals are exact once the writer threads are quiescent or joined, and
/// monotone (never torn) in between; cross-field consistency at a
/// snapshot is best-effort by design.
struct AtomicSolverCounters {
  std::atomic<int64_t> lp_solves{0};
  std::atomic<int64_t> phase1_pivots{0};
  std::atomic<int64_t> phase2_pivots{0};
  std::atomic<int64_t> dual_pivots{0};
  std::atomic<int64_t> bound_flips{0};
  std::atomic<int64_t> devex_resets{0};
  std::atomic<int64_t> warm_starts{0};
  std::atomic<int64_t> cold_starts{0};
  std::atomic<int64_t> factorizations{0};
  std::atomic<int64_t> ft_updates{0};
  std::atomic<int64_t> eta_nnz{0};
  std::atomic<double> ftran_btran_seconds{0.0};
  std::atomic<int64_t> certified_solves{0};
  std::atomic<int64_t> uncertified_solves{0};
  std::atomic<int64_t> refinement_rounds{0};
  std::atomic<int64_t> perturbations_applied{0};
  std::atomic<int64_t> perturbations_removed{0};
  std::atomic<int64_t> bland_escalations{0};
  std::atomic<int64_t> markowitz_escalations{0};
  std::atomic<int64_t> singular_repairs{0};
  std::atomic<int64_t> cold_restarts{0};

  /// Accumulates into the double field (C++17 has no fetch_add for
  /// atomic<double>; this is the standard CAS loop).
  void AddSeconds(double s) {
    double cur = ftran_btran_seconds.load(std::memory_order_relaxed);
    while (!ftran_btran_seconds.compare_exchange_weak(
        cur, cur + s, std::memory_order_relaxed)) {
    }
  }

  SolverCounters Snapshot() const;
  void Reset();
};

AtomicSolverCounters& GlobalSolverCounters();
void ResetSolverCounters();
/// Relaxed-coherent value copy of the global accumulator (safe while
/// solves are running on other threads).
SolverCounters SolverCountersSnapshot();
/// Counter delta since a snapshot (work attribution for one run).
SolverCounters SolverCountersSince(const SolverCounters& snapshot);

/// Solves the LP relaxation of `model` (integrality dropped). Variable
/// bounds are the model's own; to solve under tightened bounds, tighten
/// a copy with Model::SetVariableBounds (scaling reads only the matrix
/// coefficients, so a warm basis sees the same scaled problem).
/// `warm_basis`, if given and structurally compatible, seeds the solve
/// with that basis; an unusable basis silently falls back to a cold
/// start from the slack basis. The entry (primal phases vs dual
/// simplex) is set through `options`. Row duals and reduced costs are
/// always exported.
LpSolution SolveLp(const Model& model, const LpOptions& options = {},
                   const LpBasis* warm_basis = nullptr);

}  // namespace cophy::lp

#endif  // COPHY_LP_SIMPLEX_H_
