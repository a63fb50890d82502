#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/strings.h"

namespace cophy {

TuningReport AnalyzeRecommendation(const Inum& inum,
                                   const Recommendation& rec) {
  TuningReport report;
  const Workload& w = inum.workload();
  const Configuration& x = rec.configuration;
  const Configuration empty;
  const IndexPool& pool = inum.whatif().pool();
  const Catalog& cat = inum.whatif().catalog();

  std::unordered_map<IndexId, IndexImpact> index_impacts;
  for (IndexId id : x.ids()) {
    IndexImpact impact;
    impact.index = id;
    impact.size_bytes = IndexSizeBytes(pool[id], cat);
    report.storage_bytes += impact.size_bytes;
    for (QueryId uid : w.UpdateIds()) {
      impact.update_penalty += w[uid].weight * inum.UpdateCost(id, uid);
    }
    index_impacts.emplace(id, impact);
  }

  for (const Query& q : w.statements()) {
    StatementImpact si;
    si.query = q.id;
    si.weight = q.weight;
    si.cost_before = inum.Cost(q.id, empty);
    si.cost_after = inum.Cost(q.id, x);
    si.indexes_used = inum.ChosenIndexes(q.id, x);
    report.total_before += q.weight * si.cost_before;
    report.total_after += q.weight * si.cost_after;

    // Attribute the statement's gain evenly across the indexes its
    // plan uses (a simple, explainable split).
    const double gain = q.weight * (si.cost_before - si.cost_after);
    if (!si.indexes_used.empty()) {
      const double share = gain / static_cast<double>(si.indexes_used.size());
      for (IndexId id : si.indexes_used) {
        auto it = index_impacts.find(id);
        if (it != index_impacts.end()) {
          ++it->second.statements_served;
          it->second.weighted_benefit += share;
        }
      }
    }
    report.statements.push_back(std::move(si));
  }

  std::sort(report.statements.begin(), report.statements.end(),
            [](const StatementImpact& a, const StatementImpact& b) {
              return a.weight * (a.cost_before - a.cost_after) >
                     b.weight * (b.cost_before - b.cost_after);
            });
  for (auto& [id, impact] : index_impacts) {
    report.indexes.push_back(impact);
  }
  std::sort(report.indexes.begin(), report.indexes.end(),
            [](const IndexImpact& a, const IndexImpact& b) {
              return a.weighted_benefit > b.weighted_benefit;
            });
  return report;
}

SolverActivity CaptureSolverActivity() {
  SolverActivity activity;
  activity.lp = lp::SolverCountersSnapshot();
  return activity;
}

SolverActivity SolverActivitySince(const SolverActivity& snapshot) {
  SolverActivity activity;
  activity.lp = lp::SolverCountersSince(snapshot.lp);
  // nodes / bound_evaluations are per-run values the caller fills in
  // from its Recommendation / ChoiceSolution; they are not global.
  return activity;
}

std::string RenderSolverActivity(const SolverActivity& activity) {
  const lp::SolverCounters& c = activity.lp;
  std::string out;
  const int64_t all_pivots =
      c.phase1_pivots + c.phase2_pivots + c.dual_pivots;
  const double per_solve =
      c.lp_solves > 0 ? static_cast<double>(all_pivots) /
                            static_cast<double>(c.lp_solves)
                      : 0.0;
  out += StrFormat(
      "LP solves %lld (warm %lld / cold %lld), pivots %lld "
      "(phase-1 %lld, phase-2 %lld, dual %lld, flips %lld), "
      "%.1f pivots/solve\n",
      static_cast<long long>(c.lp_solves),
      static_cast<long long>(c.warm_starts),
      static_cast<long long>(c.cold_starts),
      static_cast<long long>(all_pivots),
      static_cast<long long>(c.phase1_pivots),
      static_cast<long long>(c.phase2_pivots),
      static_cast<long long>(c.dual_pivots),
      static_cast<long long>(c.bound_flips), per_solve);
  if (c.lp_solves > 0) {
    out += StrFormat(
        "Basis factorization: %lld LU factorizations, %lld FT updates, "
        "%lld eta nnz, %.1f ms in FTRAN/BTRAN\n",
        static_cast<long long>(c.factorizations),
        static_cast<long long>(c.ft_updates),
        static_cast<long long>(c.eta_nnz), 1e3 * c.ftran_btran_seconds);
    if (c.devex_resets > 0) {
      out += StrFormat("Devex: %lld reference-framework resets\n",
                       static_cast<long long>(c.devex_resets));
    }
  }
  if (c.certified_solves + c.uncertified_solves > 0) {
    out += StrFormat(
        "Numerical safety: %lld/%lld solves certified, %lld refinement "
        "rounds, perturbations %lld applied / %lld removed, escalations: "
        "%lld Bland, %lld Markowitz, %lld singular repairs, %lld cold "
        "restarts\n",
        static_cast<long long>(c.certified_solves),
        static_cast<long long>(c.certified_solves + c.uncertified_solves),
        static_cast<long long>(c.refinement_rounds),
        static_cast<long long>(c.perturbations_applied),
        static_cast<long long>(c.perturbations_removed),
        static_cast<long long>(c.bland_escalations),
        static_cast<long long>(c.markowitz_escalations),
        static_cast<long long>(c.singular_repairs),
        static_cast<long long>(c.cold_restarts));
  }
  if (activity.nodes > 0 || activity.bound_evaluations > 0) {
    out += StrFormat("B&B nodes %lld, bound evaluations %lld\n",
                     static_cast<long long>(activity.nodes),
                     static_cast<long long>(activity.bound_evaluations));
  }
  const lp::PresolveStats& ps = activity.presolve;
  if (ps.plans_in > 0) {
    out += StrFormat(
        "Presolve: plans %lld -> %lld (%lld dup, %lld dominated), "
        "options %lld -> %lld, indexes %lld -> %lld\n",
        static_cast<long long>(ps.plans_in),
        static_cast<long long>(ps.plans_out),
        static_cast<long long>(ps.duplicate_plans),
        static_cast<long long>(ps.dominated_plans),
        static_cast<long long>(ps.options_in),
        static_cast<long long>(ps.options_out),
        static_cast<long long>(ps.indexes_in),
        static_cast<long long>(ps.indexes_out));
  }
  const bool has_lp_bound = std::isfinite(activity.root_lp_bound);
  const bool has_lagr_bound = std::isfinite(activity.root_lagrangian_bound);
  if (has_lp_bound || has_lagr_bound) {
    out += "Root bounds:";
    if (has_lp_bound) {
      out += StrFormat(" LP %.6g", activity.root_lp_bound);
      const lp::LpSolveStats& rs = activity.root_lp_stats;
      if (rs.refactorizations > 0) {
        out += StrFormat(
            " (%s%s, %lld refactorizations, drift %.2g)",
            rs.warm_started ? "warm" : "cold",
            rs.dual_entered ? " dual" : "",
            static_cast<long long>(rs.refactorizations), rs.max_drift);
      }
    }
    if (has_lagr_bound) {
      out += StrFormat("%s Lagrangian %.6g", has_lp_bound ? " |" : "",
                       activity.root_lagrangian_bound);
    }
    out += StrFormat(", %lld z fixed by reduced costs\n",
                     static_cast<long long>(activity.variables_fixed));
  }
  if (activity.shards_quarantined > 0 || activity.coverage < 1.0) {
    out += StrFormat(
        "DEGRADED: %d shard%s quarantined, recommendation covers %.1f%% "
        "of live statement weight\n",
        activity.shards_quarantined,
        activity.shards_quarantined == 1 ? "" : "s",
        100.0 * activity.coverage);
  }
  return out;
}

std::string RenderPrepareStats(const PrepareStats& stats) {
  std::string out;
  const CompressionStats& c = stats.compression;
  out += StrFormat(
      "Compression: %d -> %d statements (%.1fx, %s), weight %.4g -> %.4g\n",
      c.input_statements, c.output_statements, c.Ratio(),
      c.lossless ? "lossless" : "lossy", c.input_weight, c.output_weight);
  if (stats.shards > 1) {
    out += StrFormat(
        "Shards: %d, largest %d statements (skew %.2fx vs balanced)\n",
        stats.shards, stats.max_shard_statements, stats.ShardSkew());
  }
  out += StrFormat(
      "INUM: %d thread%s, %d cache%s cloned from cost-equivalent leaders\n",
      stats.num_threads, stats.num_threads == 1 ? "" : "s",
      stats.shared_statements, stats.shared_statements == 1 ? "" : "s");
  out += StrFormat(
      "Prepare: compress %.3fs + cgen %.3fs + inum %.3fs = %.3fs\n",
      stats.compression.seconds, stats.cgen_seconds, stats.inum_seconds,
      stats.Total());
  if (stats.whatif_retries > 0 || stats.whatif_failures > 0 ||
      stats.whatif_degraded > 0 || stats.whatif_fast_fails > 0 ||
      stats.breaker_trips > 0) {
    out += StrFormat(
        "What-if boundary: %lld retries, %lld failures, %lld degraded "
        "answers, %lld breaker fast-fails, %d breaker trips\n",
        static_cast<long long>(stats.whatif_retries),
        static_cast<long long>(stats.whatif_failures),
        static_cast<long long>(stats.whatif_degraded),
        static_cast<long long>(stats.whatif_fast_fails),
        stats.breaker_trips);
  }
  if (stats.plan_cache_template_hits + stats.plan_cache_template_misses +
          stats.plan_cache_gamma_hits + stats.plan_cache_gamma_misses >
      0) {
    out += StrFormat(
        "Shared plan cache: templates %lld hit / %lld miss, "
        "gammas %lld hit / %lld miss\n",
        static_cast<long long>(stats.plan_cache_template_hits),
        static_cast<long long>(stats.plan_cache_template_misses),
        static_cast<long long>(stats.plan_cache_gamma_hits),
        static_cast<long long>(stats.plan_cache_gamma_misses));
  }
  if (stats.drift_score > 0 || stats.drift_new_classes > 0 ||
      stats.drift_retired_classes > 0) {
    out += StrFormat(
        "Drift: score %.3f, %d new / %d retired class%s since last retune\n",
        stats.drift_score, stats.drift_new_classes,
        stats.drift_retired_classes,
        stats.drift_new_classes + stats.drift_retired_classes == 1 ? ""
                                                                   : "es");
  }
  return out;
}

std::string RenderTuningReport(const TuningReport& report, const Inum& inum,
                               int top_k) {
  const Catalog& cat = inum.whatif().catalog();
  const IndexPool& pool = inum.whatif().pool();
  const Workload& w = inum.workload();

  std::string out;
  const double reduction =
      report.total_before > 0
          ? 100.0 * (1.0 - report.total_after / report.total_before)
          : 0.0;
  out += StrFormat(
      "Estimated workload cost: %.4g -> %.4g (%.1f%% reduction)\n",
      report.total_before, report.total_after, reduction);
  out += StrFormat("Storage used: %.1f MB across %zu indexes\n\n",
                   report.storage_bytes / 1e6, report.indexes.size());

  out += "Top improved statements:\n";
  int listed = 0;
  for (const StatementImpact& si : report.statements) {
    if (top_k > 0 && listed >= top_k) break;
    if (si.cost_before <= si.cost_after) break;  // sorted: rest are flat
    std::string stmt = w[si.query].ToString(cat);
    if (stmt.size() > 68) stmt = stmt.substr(0, 65) + "...";
    out += StrFormat("  [q%03d] -%5.1f%%  %s\n", si.query,
                     100.0 * si.Improvement(), stmt.c_str());
    ++listed;
  }

  out += "\nSelected indexes by contribution:\n";
  listed = 0;
  for (const IndexImpact& ii : report.indexes) {
    if (top_k > 0 && listed >= top_k) break;
    out += StrFormat("  %7.1f MB  serves %3d stmt  benefit %.3g%s  %s\n",
                     ii.size_bytes / 1e6, ii.statements_served,
                     ii.weighted_benefit,
                     ii.update_penalty > 0
                         ? StrFormat(" (upkeep %.3g)", ii.update_penalty).c_str()
                         : "",
                     pool[ii.index].ToString(cat).c_str());
    ++listed;
  }
  return out;
}

}  // namespace cophy
