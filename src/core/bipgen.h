// BIPGen (§4, Fig. 2): turns the INUM caches into the binary integer
// program of Theorem 1. Two materializations are provided:
//
//  * BuildChoiceProblem — the structured form the scalable solver
//    consumes (identical solution space; the y/x/z variables are
//    implicit in the per-query choice structure).
//  * BuildModel — the literal Theorem-1 BIP (explicit y_qk, x_qkia,
//    z_a variables and rows) as an lp::Model. Exponentially clearer,
//    linearly bigger; used to validate the structured form and as an
//    LP benchmark instance.
//
// Both accept the DBA constraint set: index constraints become linear
// z-rows (§3.2), query-cost constraints become per-query caps/rows.
#ifndef COPHY_CORE_BIPGEN_H_
#define COPHY_CORE_BIPGEN_H_

#include <vector>

#include "constraints/constraints.h"
#include "inum/inum.h"
#include "lp/choice_problem.h"
#include "lp/model.h"

namespace cophy {

/// Statistics about the generated BIP (the paper's compactness story:
/// variables grow linearly in |W|, |S|, and ΣK_q).
struct BipStats {
  int64_t y_variables = 0;     ///< Σ_q K_q
  int64_t x_variables = 0;     ///< Σ γ entries (pre-pruning count)
  int64_t z_variables = 0;     ///< |S|
  int64_t linking_rows = 0;    ///< z_a ≥ x_qkia rows
  int64_t assignment_rows = 0; ///< Σ y = 1 and Σ x = y rows
  int64_t constraint_rows = 0; ///< DBA constraint rows
};

/// Builds the structured problem over dense ids (candidates[i] ↦ i).
/// `baseline_shell_cost[q]` must hold cost(q, X0) for statements with
/// query-cost constraints (pass {} when none are used).
lp::ChoiceProblem BuildChoiceProblem(
    const Inum& inum, const std::vector<IndexId>& candidates,
    const ConstraintSet& constraints,
    const std::vector<double>& baseline_shell_cost = {});

/// One shard's contribution to a merged BIP: its INUM caches plus, per
/// query block owned by the shard, the shard-local statement id, the
/// block's global (canonical) position, the re-aggregated f_q weight of
/// the block's live members, and the intersected per-block cost cap.
/// Shards never share a block — the session routes whole
/// cost-equivalence classes to one shard.
struct ShardBlockView {
  const Inum* inum = nullptr;
  std::vector<QueryId> stmt;     ///< shard-local compressed statement ids
  std::vector<int> block;        ///< global block position of each stmt
  std::vector<double> weight;    ///< Σ f_q over each block's live members
  std::vector<double> cost_cap;  ///< intersected cap (lp::kInf = none)
};

/// The BipGen merge path: assembles the per-shard prepared views into
/// one canonical ChoiceProblem — indexes deduped through the shared
/// `candidates` list, f_q weights and update costs re-aggregated in
/// global block order. For any shard count (including 1) the result is
/// bit-identical to BuildChoiceProblem over the equivalent unsharded
/// PreparedWorkload (session_test pins this through Tune).
/// Query-cost constraints must already be folded into the views'
/// cost_cap entries; only the z-level constraints of `constraints`
/// (storage budget, index constraints) are read here.
lp::ChoiceProblem BuildMergedChoiceProblem(
    const std::vector<ShardBlockView>& shards,
    const std::vector<IndexId>& candidates, const ConstraintSet& constraints);

/// Variable/row statistics of the merged BIP (mirrors ComputeBipStats).
/// `translated_query_constraint_rows` is the number of query-cost
/// constraint rows that survived translation onto live blocks (the
/// session counts them while folding caps), so constraint_rows matches
/// the unsharded ComputeBipStats over the translated constraint set.
BipStats ComputeMergedBipStats(const std::vector<ShardBlockView>& shards,
                               const std::vector<IndexId>& candidates,
                               const ConstraintSet& constraints,
                               int64_t translated_query_constraint_rows);

/// Builds the literal Theorem-1 model (y/x/z variables and rows).
lp::Model BuildModel(const Inum& inum, const std::vector<IndexId>& candidates,
                     const ConstraintSet& constraints,
                     const std::vector<double>& baseline_shell_cost = {});

/// Variable/row statistics without materializing the model.
BipStats ComputeBipStats(const Inum& inum,
                         const std::vector<IndexId>& candidates,
                         const ConstraintSet& constraints);

}  // namespace cophy

#endif  // COPHY_CORE_BIPGEN_H_
