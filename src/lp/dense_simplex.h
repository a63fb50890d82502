// The original dense two-phase tableau simplex, kept as a reference
// oracle for differential tests and as the "before" side of the
// revised-simplex benchmarks. It materializes every finite upper bound
// as an explicit row and re-prices the full tableau each iteration —
// do not use it on large models; call lp::SolveLp instead.
#ifndef COPHY_LP_DENSE_SIMPLEX_H_
#define COPHY_LP_DENSE_SIMPLEX_H_

#include "lp/simplex.h"

namespace cophy::lp {

/// Solves the LP relaxation of `model` with the dense tableau method.
/// Semantics match SolveLp; only the algorithm differs.
LpSolution SolveLpDense(const Model& model);

}  // namespace cophy::lp

#endif  // COPHY_LP_DENSE_SIMPLEX_H_
