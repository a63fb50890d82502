#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/stopwatch.h"
#include "index/candidates.h"

namespace cophy {

AdvisorSession::AdvisorSession(WhatIfOptimizer* whatif, IndexPool* pool,
                               SessionOptions options)
    : whatif_(whatif),
      pool_(pool),
      options_(std::move(options)),
      router_(options_.num_shards > 0
                  ? options_.num_shards
                  : ResolveThreadCount(options_.tuning.prepare.num_threads)) {
  COPHY_CHECK(whatif != nullptr);
  COPHY_CHECK(pool != nullptr);
  COPHY_CHECK_EQ(&whatif->pool(), pool);
  COPHY_CHECK(options_.tuning.prepare.compression.mode !=
              CompressionMode::kLossy);
  scheduler_ = HysteresisScheduler(options_.drift.materialize_after,
                                   options_.drift.drop_after);
  shards_.resize(router_.num_shards());
  // Every shard gets a (possibly empty) prepared view at the first
  // Refresh, so consumers of shard_prepared() never see an unprepared
  // workload — an empty session behaves like an empty PreparedWorkload.
  for (Shard& sh : shards_) sh.dirty = true;
  structure_dirty_ = true;
}

ThreadPool* AdvisorSession::Workers() {
  const int n = ResolveThreadCount(options_.tuning.prepare.num_threads);
  if (n <= 1) return nullptr;
  if (workers_ == nullptr || workers_->size() != n) {
    workers_ = std::make_unique<ThreadPool>(n);
  }
  return workers_.get();
}

std::vector<QueryId> AdvisorSession::AddStatements(
    const std::vector<Query>& stmts) {
  Stopwatch watch;
  std::vector<QueryId> ids;
  ids.reserve(stmts.size());
  for (const Query& in : stmts) {
    const QueryId sid = static_cast<QueryId>(statements_.size());
    StatementState st;
    st.q = in;
    st.q.id = sid;
    st.live = true;
    st.arrival_epoch = epoch_;
    const ShardRouter::Route route = router_.Insert(
        st.q, whatif_->catalog(),
        [this](int cls) -> const Query& { return classes_[cls].exemplar; });
    st.cls = route.cls;
    if (route.is_new) {
      COPHY_CHECK_EQ(route.cls, static_cast<int>(classes_.size()));
      ClassState c;
      c.exemplar = st.q;
      c.shard = route.shard;
      classes_.push_back(std::move(c));
      // Appended last: class ids ascend with arrival, so each shard's
      // class list stays in canonical (first-occurrence) order.
      shards_[route.shard].classes.push_back(route.cls);
      shards_[route.shard].dirty = true;
      structure_dirty_ = true;
    }
    classes_[st.cls].members.push_back(sid);
    statements_.push_back(std::move(st));
    ++live_statements_;
    ids.push_back(sid);
  }
  route_seconds_total_ += watch.Elapsed();
  return ids;
}

std::vector<QueryId> AdvisorSession::AddWorkload(const Workload& w) {
  return AddStatements(w.statements());
}

Status AdvisorSession::RemoveStatements(const std::vector<QueryId>& ids) {
  std::unordered_set<QueryId> seen;
  for (QueryId sid : ids) {
    if (sid < 0 || sid >= static_cast<QueryId>(statements_.size()) ||
        !statements_[sid].live || !seen.insert(sid).second) {
      return Status::InvalidArgument("unknown or already-removed statement");
    }
  }
  Stopwatch watch;
  for (QueryId sid : ids) {
    StatementState& st = statements_[sid];
    st.live = false;
    --live_statements_;
    ClassState& c = classes_[st.cls];
    c.members.erase(std::find(c.members.begin(), c.members.end(), sid));
    if (c.members.empty()) {
      // Last member gone: retire the class. A later equivalent arrival
      // opens a fresh class, exactly as a cold run over the surviving
      // stream would.
      // A stale bucket entry here would glue a future equivalent
      // arrival onto this dead class id; Erase reporting the entry
      // missing means the routing table already diverged.
      COPHY_CHECK(router_.Erase(c.exemplar, whatif_->catalog(), st.cls));
      Shard& sh = shards_[c.shard];
      sh.classes.erase(
          std::find(sh.classes.begin(), sh.classes.end(), st.cls));
      sh.dirty = true;
      structure_dirty_ = true;
    }
  }
  route_seconds_total_ += watch.Elapsed();
  return Status::Ok();
}

void AdvisorSession::SetDbaIndexes(std::vector<Index> dba_indexes) {
  dba_indexes_ = std::move(dba_indexes);
  structure_dirty_ = true;
}

Status AdvisorSession::SetExplicitCandidates(std::vector<IndexId> ids) {
  for (IndexId id : ids) {
    if (id < 0 || id >= pool_->size()) {
      return Status::InvalidArgument("candidate id outside the pool");
    }
  }
  explicit_candidates_ = std::move(ids);
  for (Shard& sh : shards_) sh.dirty = true;
  structure_dirty_ = true;
  return Status::Ok();
}

void AdvisorSession::AdvanceEpoch(int64_t ticks) {
  COPHY_CHECK_GE(ticks, 0);
  // Decay is lazy: moving the clock re-weights every live statement at
  // the next merge without dirtying a single shard.
  epoch_ += ticks;
}

Status AdvisorSession::Accept(IndexId id) {
  if (id < 0 || id >= pool_->size()) {
    return Status::InvalidArgument("feedback id outside the pool");
  }
  feedback_.Accept(id);
  scheduler_.ForceInclude(id);
  // An accepted id carries a z == 1 row, so it must be in the candidate
  // set; Refresh force-appends missing accepted ids (clean shards pick
  // up the γ entries incrementally).
  if (std::find(candidates_.begin(), candidates_.end(), id) ==
      candidates_.end()) {
    structure_dirty_ = true;
  }
  return Status::Ok();
}

Status AdvisorSession::Veto(IndexId id) {
  if (id < 0 || id >= pool_->size()) {
    return Status::InvalidArgument("feedback id outside the pool");
  }
  feedback_.Veto(id);
  scheduler_.ForceDrop(id);
  return Status::Ok();
}

Status AdvisorSession::ClearFeedback(IndexId id) {
  if (id < 0 || id >= pool_->size()) {
    return Status::InvalidArgument("feedback id outside the pool");
  }
  feedback_.Clear(id);
  return Status::Ok();
}

std::vector<int> AdvisorSession::LiveClasses() const {
  std::vector<int> live;
  live.reserve(classes_.size());
  for (int cls = 0; cls < static_cast<int>(classes_.size()); ++cls) {
    if (!classes_[cls].members.empty()) live.push_back(cls);
  }
  return live;
}

int AdvisorSession::num_classes() const {
  return static_cast<int>(LiveClasses().size());
}

double AdvisorSession::StatementLiveWeight(QueryId sid) const {
  const StatementState& st = statements_[sid];
  // The early return (not a multiply by DecayFactor() == 1.0) is what
  // guarantees the disabled path never touches the FPU: decay off is
  // byte-for-byte the pre-drift session.
  if (options_.drift.half_life_epochs <= 0) return st.q.weight;
  return st.q.weight * DecayFactor(epoch_ - st.arrival_epoch,
                                   options_.drift.half_life_epochs);
}

double AdvisorSession::ClassWeight(int cls) const {
  double w = 0;
  for (QueryId sid : classes_[cls].members) w += StatementLiveWeight(sid);
  return w;
}

CompressedWorkload AdvisorSession::BuildShardView(int shard) const {
  CompressedWorkload cw;
  cw.map.assign(statements_.size(), -1);
  cw.stats.lossless = true;
  for (int cls : shards_[shard].classes) {
    const ClassState& c = classes_[cls];
    Query rep = c.exemplar;
    rep.weight = ClassWeight(cls);
    const QueryId local = cw.workload.Add(std::move(rep));
    cw.representative_of.push_back(c.members.front());
    for (QueryId sid : c.members) {
      cw.map[sid] = local;
      cw.stats.input_weight += StatementLiveWeight(sid);
    }
    cw.stats.input_statements += static_cast<int>(c.members.size());
    cw.stats.output_weight += cw.workload[local].weight;
  }
  cw.stats.output_statements = cw.workload.size();
  return cw;
}

Status AdvisorSession::Refresh() {
  // Preparation-work counters always describe the *last* Refresh: a
  // pure re-weighting (no structural change) reports zero of both —
  // the observable half of the fast-path guarantee.
  drift_stats_.full_prepares = 0;
  drift_stats_.incremental_prepares = 0;
  if (!structure_dirty_) return Status::Ok();
  Stopwatch wall;
  // The catalog's lazy statistics cache must be warm before shards fan
  // out: workers may only read shared state.
  whatif_->catalog().WarmStatistics();

  // CGen over the merged representative view (one statement per live
  // class, canonical order). Cheap — it scales with classes, not
  // statements — and it is what dedups candidates across shards: the
  // pool collapses re-generated indexes onto their existing ids, so
  // surviving candidates keep their dense order across deltas.
  std::vector<IndexId> cands;
  Stopwatch cgen_watch;
  if (!explicit_candidates_.empty()) {
    cands = explicit_candidates_;
  } else {
    Workload reps;
    for (int cls : LiveClasses()) reps.Add(classes_[cls].exemplar);
    cands = GenerateCandidates(reps, whatif_->catalog(),
                               options_.tuning.prepare.candidates, *pool_,
                               dba_indexes_);
  }
  // DBA-accepted ids are pinned with z == 1 rows, which would surface
  // as infeasibility were the id outside the candidate set. Append any
  // CGen missed; shards absorb them like any newly discovered
  // candidate (incremental γ entries on clean shards).
  for (IndexId id : feedback_.accepted()) {
    if (std::find(cands.begin(), cands.end(), id) == cands.end()) {
      cands.push_back(id);
    }
  }
  cgen_seconds_total_ += cgen_watch.Elapsed();

  // Work items: full re-preparation for structure-dirty shards,
  // incremental γ entries for clean shards that are missing candidates
  // another shard's classes introduced.
  struct Task {
    int shard = 0;
    bool full = false;
    std::vector<IndexId> missing;
  };
  std::vector<Task> tasks;
  for (int s = 0; s < num_shards(); ++s) {
    Shard& sh = shards_[s];
    if (sh.dirty) {
      tasks.push_back({s, true, {}});
      continue;
    }
    if (!sh.prepared.prepared()) continue;  // never had a class
    const std::vector<IndexId>& have = sh.prepared.inum().candidates();
    std::unordered_set<IndexId> have_set(have.begin(), have.end());
    Task t{s, false, {}};
    for (IndexId id : cands) {
      if (have_set.find(id) == have_set.end()) t.missing.push_back(id);
    }
    if (!t.missing.empty()) tasks.push_back(std::move(t));
  }

  std::vector<Status> results(tasks.size());
  ThreadPool* workers = Workers();  // created on the session thread
  auto run_task = [&](int64_t i) {
    const Task& t = tasks[i];
    Shard& sh = shards_[t.shard];
    PrepareOptions popts = options_.tuning.prepare;
    popts.workers = workers;
    if (t.full) {
      results[i] = sh.prepared.PrepareCompressed(whatif_, pool_,
                                                 BuildShardView(t.shard),
                                                 popts, cands);
    } else {
      results[i] = sh.prepared.AddCandidates(t.missing);
    }
  };
  if (tasks.size() == 1) {
    // Run on the session thread, outside any parallel region, so the
    // single shard's own per-statement fan-out still parallelizes.
    run_task(0);
  } else if (!tasks.empty()) {
    ParallelFor(workers, static_cast<int64_t>(tasks.size()), run_task);
  }
  Status first_error;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].full) {
      ++drift_stats_.full_prepares;
    } else {
      ++drift_stats_.incremental_prepares;
    }
    Shard& sh = shards_[tasks[i].shard];
    if (results[i].ok()) {
      sh.dirty = false;
      sh.health = Status::Ok();
      sh.consecutive_failures = 0;
    } else {
      // Quarantine. The shard stays dirty — a failed incremental append
      // reverted its view to unprepared, so the retry is a full rebuild
      // — and Tune excludes its classes until a Refresh heals it.
      sh.dirty = true;
      sh.health = results[i];
      ++sh.consecutive_failures;
      if (first_error.ok()) first_error = results[i];
    }
  }
  // Healthy shards were prepared against the merged candidate set even
  // when a sibling failed; quarantined shards re-run CGen-fresh later.
  candidates_ = std::move(cands);
  bool any_quarantined = false;
  for (const Shard& sh : shards_) {
    if (sh.quarantined()) any_quarantined = true;
  }
  // Quarantined shards are retried at every Refresh until they heal.
  structure_dirty_ = any_quarantined;
  prepare_wall_seconds_ += wall.Elapsed();
  if (!any_quarantined) return Status::Ok();
  // Degraded mode: the session still serves recommendations while the
  // healthy shards cover part of the live workload. Only a fully
  // uncovered session surfaces the failure as its own.
  if (Coverage() > 0.0) return Status::Ok();
  return first_error;
}

double AdvisorSession::Coverage() const {
  double total = 0, healthy = 0;
  for (int cls = 0; cls < static_cast<int>(classes_.size()); ++cls) {
    if (classes_[cls].members.empty()) continue;
    const double w = ClassWeight(cls);
    total += w;
    if (!shards_[classes_[cls].shard].quarantined()) healthy += w;
  }
  return total > 0 ? healthy / total : 1.0;
}

std::vector<ShardHealth> AdvisorSession::ShardHealthReport() const {
  std::vector<ShardHealth> out(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& sh = shards_[s];
    ShardHealth& h = out[s];
    h.shard = s;
    h.healthy = !sh.quarantined();
    h.classes = static_cast<int>(sh.classes.size());
    for (int cls : sh.classes) {
      h.statements += static_cast<int>(classes_[cls].members.size());
    }
    h.consecutive_failures = sh.consecutive_failures;
    h.status = sh.health;
  }
  return out;
}

PrepareStats AdvisorSession::prepare_stats() const {
  PrepareStats agg;
  bool first = true;
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& sh = shards_[s];
    if (!sh.prepared.prepared()) continue;
    PrepareStats stats = sh.prepared.stats();
    // Weight-only deltas never re-prepare a shard, so the prepare-time
    // counts go stale; report the live routing truth instead (the
    // timing fields keep their prepare-time meaning).
    CompressionStats& c = stats.compression;
    c.input_statements = 0;
    c.input_weight = 0;
    c.output_weight = 0;
    for (int cls : sh.classes) {
      c.input_statements += static_cast<int>(classes_[cls].members.size());
      const double w = ClassWeight(cls);
      c.input_weight += w;
      c.output_weight += w;
    }
    c.output_statements = static_cast<int>(sh.classes.size());
    stats.max_shard_statements = c.input_statements;
    if (first) {
      agg = stats;
      first = false;
    } else {
      agg += stats;
    }
  }
  agg.compression.seconds += route_seconds_total_;
  agg.cgen_seconds += cgen_seconds_total_;
  agg.drift_score = drift_stats_.score;
  agg.drift_new_classes = drift_stats_.new_classes;
  agg.drift_retired_classes = drift_stats_.retired_classes;
  return agg;
}

const PreparedWorkload& AdvisorSession::shard_prepared(int shard) const {
  COPHY_CHECK_GE(shard, 0);
  COPHY_CHECK_LT(shard, num_shards());
  return shards_[shard].prepared;
}

Recommendation AdvisorSession::Tune(const ConstraintSet& constraints) {
  return TuneInternal(constraints, /*warm=*/false);
}

Recommendation AdvisorSession::Retune(const ConstraintSet& constraints) {
  return TuneInternal(constraints, /*warm=*/true);
}

Recommendation AdvisorSession::TuneInternal(const ConstraintSet& constraints,
                                            bool warm) {
  Recommendation rec;
  Status s = Refresh();
  rec.shard_health = ShardHealthReport();
  rec.coverage = Coverage();
  if (!s.ok()) {
    rec.status = s;
    return rec;
  }
  if (live_statements_ == 0) {
    rec.status = Status::InvalidArgument("session has no statements");
    return rec;
  }
  // Drift reading for this retune: how far the normalized class-weight
  // distribution moved since the previous one (surfaced through
  // prepare_stats / RenderPrepareStats).
  {
    std::vector<std::pair<int, double>> class_weights;
    for (int cls : LiveClasses()) {
      class_weights.emplace_back(cls, ClassWeight(cls));
    }
    const DriftDetector::Reading reading = detector_.Observe(class_weights);
    drift_stats_.epoch = epoch_;
    drift_stats_.score = reading.score;
    drift_stats_.new_classes = reading.new_classes;
    drift_stats_.retired_classes = reading.retired_classes;
  }
  rec.num_candidates = static_cast<int>(candidates_.size());
  rec.prepare = prepare_stats();
  rec.degraded = rec.coverage < 1.0 || rec.prepare.whatif_degraded > 0;
  rec.timings.inum_seconds = prepare_wall_seconds_;
  prepare_wall_seconds_ = 0;  // consumed by this report

  Stopwatch build_watch;
  // Canonical block order across shards (class ids ascend with first
  // occurrence) and per-shard views with live weights re-aggregated.
  // Quarantined shards contribute no blocks: the merged problem covers
  // the healthy subset only, which is what `coverage` reports.
  std::vector<int> canonical;
  canonical.reserve(classes_.size());
  for (int cls : LiveClasses()) {
    if (!shards_[classes_[cls].shard].quarantined()) canonical.push_back(cls);
  }
  if (canonical.empty()) {
    rec.status = Status::Internal("every live class is quarantined");
    return rec;
  }
  std::vector<int> block_of(classes_.size(), -1);
  std::vector<int> local_of(classes_.size(), -1);
  for (int b = 0; b < static_cast<int>(canonical.size()); ++b) {
    block_of[canonical[b]] = b;
  }
  std::vector<ShardBlockView> views(shards_.size());
  for (int sh = 0; sh < num_shards(); ++sh) {
    ShardBlockView& v = views[sh];
    if (shards_[sh].classes.empty() || shards_[sh].quarantined()) continue;
    v.inum = &shards_[sh].prepared.inum();
    const std::vector<int>& cls_list = shards_[sh].classes;
    v.stmt.reserve(cls_list.size());
    for (int i = 0; i < static_cast<int>(cls_list.size()); ++i) {
      const int cls = cls_list[i];
      local_of[cls] = i;
      v.stmt.push_back(i);
      v.block.push_back(block_of[cls]);
      v.weight.push_back(ClassWeight(cls));
      v.cost_cap.push_back(lp::kInf);
    }
  }

  // DBA feedback folds into the solve as ordinary E.1 rows (z == 1 for
  // accepted ids, z == 0 for vetoed) — presolve, warm starts, and the
  // constraint-side digest (so the root LP re-runs when the ledger
  // changes) all see them like any caller constraint.
  const ConstraintSet* active = &constraints;
  ConstraintSet with_feedback;
  if (!feedback_.empty()) {
    with_feedback = constraints;
    feedback_.AppendConstraints(&with_feedback);
    active = &with_feedback;
  }

  // Per-query constraints: session id → class → block cap, folded by
  // min like the unsharded translation (constraints on removed
  // statements are dropped; duplicates constrain their whole block —
  // the documented intersection semantics). Constraints on quarantined
  // statements are dropped with their blocks.
  const Configuration empty;
  int64_t translated_rows = 0;
  for (const QueryCostConstraint& qc : active->query_cost_constraints()) {
    COPHY_CHECK_GE(qc.query, 0);
    COPHY_CHECK_LT(qc.query, static_cast<QueryId>(statements_.size()));
    const StatementState& st = statements_[qc.query];
    if (!st.live) continue;
    if (shards_[classes_[st.cls].shard].quarantined()) continue;
    ++translated_rows;
    const int shard = classes_[st.cls].shard;
    const int local = local_of[st.cls];
    const double baseline = views[shard].inum->ShellCost(local, empty);
    const double cap = qc.factor * baseline + qc.absolute;
    views[shard].cost_cap[local] =
        std::min(views[shard].cost_cap[local], cap);
  }

  lp::ChoiceProblem problem =
      BuildMergedChoiceProblem(views, candidates_, *active);
  rec.bip =
      ComputeMergedBipStats(views, candidates_, *active, translated_rows);
  rec.timings.build_seconds = build_watch.Elapsed();

  Stopwatch solve_watch;
  lp::ChoiceSolveOptions so;
  so.gap_target = options_.tuning.gap_target;
  so.time_limit_seconds = options_.tuning.time_limit_seconds;
  so.node_limit = options_.tuning.node_limit;
  so.lagrangian = options_.tuning.lagrangian;
  so.presolve = options_.tuning.presolve;
  so.root_lp = options_.tuning.root_lp;
  so.callback = options_.tuning.callback;
  so.resolve = &resolve_;
  const uint64_t constraint_digest = lp::ChoiceConstraintSideDigest(problem);
  if (!warm) {
    // Cold semantics: ignore any previous state (it is still refreshed
    // below, so a later Retune warm-starts from this solve).
    resolve_.valid = false;
  } else {
    // The incumbent repair survives candidate-set changes: pool ids are
    // stable, so the previous selection re-expresses over the current
    // dense order even when the resolve state's digest no longer
    // matches.
    if (!last_chosen_.empty()) {
      std::vector<uint8_t> start(candidates_.size(), 0);
      for (IndexId id : last_chosen_) {
        auto it = std::find(candidates_.begin(), candidates_.end(), id);
        if (it != candidates_.end()) start[it - candidates_.begin()] = 1;
      }
      so.warm_start = std::move(start);
    }
    so.structure_digest_hint = lp::ChoiceStructureDigest(problem);
    if (resolve_.valid &&
        resolve_.structure_digest == so.structure_digest_hint) {
      // Delta budget: the BIP kept its structure, so the solver only
      // has to account for the re-weighting (§4.2, Fig. 6(b)) and the
      // subgradient restarts from the previous duals (or the warm root
      // LP's) — a short polish suffices. When the root LP does run (a
      // budget or cap change, below), the retained exit basis in
      // `resolve_` seeds it through the *dual* simplex. Phase 1 is
      // skipped only when the objective is unchanged: the old optimum
      // stays dual feasible under new bounds, but a re-weighting breaks
      // its dual feasibility, and with both changes the dual entry
      // falls back to the primal phases. A structural change skips all
      // of this and re-solves with the full cold budget (the resolve
      // state falls back automatically inside SolveChoiceProblem).
      so.node_limit = std::max<int64_t>(500, options_.tuning.node_limit / 8);
      so.lagrangian_iterations = std::max(40, so.lagrangian_iterations / 8);
      if (std::isfinite(options_.tuning.time_limit_seconds)) {
        so.time_limit_seconds =
            std::max(1.0, options_.tuning.time_limit_seconds / 8);
      }
      // On a pure re-weighting — same constraint picture too (the
      // structure digest is deliberately blind to budgets, caps, and
      // right-hand sides) — the root LP, the dominant root cost, buys
      // almost nothing over the seeded duals: skip it. A budget or cap
      // change keeps the full PR-3 root machinery (fresh LP bound,
      // reduced-cost fixing) for bound quality.
      if (so.lagrangian && !resolve_.mu.empty() &&
          constraint_digest == last_constraint_digest_) {
        so.root_lp = false;
      }
    }
  }
  lp::ChoiceSolution sol =
      lp::SolveChoiceProblem(problem, so, &rec.presolve, Workers());
  rec.timings.solve_seconds = solve_watch.Elapsed();

  rec.status = sol.status;
  if (!sol.status.ok()) return rec;
  last_constraint_digest_ = constraint_digest;

  std::vector<IndexId> chosen;
  for (size_t i = 0; i < sol.selected.size(); ++i) {
    if (sol.selected[i]) chosen.push_back(candidates_[i]);
  }
  last_chosen_ = chosen;
  // One hysteresis tick per successful solve: the raw recommendation
  // feeds the streaks, the stabilized applied set rides along in the
  // report. With the default windows (1/1) applied == recommended.
  rec.materialization = scheduler_.Update(chosen);
  rec.configuration = Configuration(std::move(chosen));
  rec.objective = sol.objective;
  rec.lower_bound = sol.lower_bound;
  rec.gap = sol.gap;
  rec.nodes = sol.nodes;
  rec.bound_evaluations = sol.bound_evaluations;
  rec.root_lp_bound = sol.root_lp_bound;
  rec.root_lagrangian_bound = sol.root_lagrangian_bound;
  rec.variables_fixed = sol.variables_fixed;
  rec.root_lp_stats = sol.root_lp_stats;
  return rec;
}

}  // namespace cophy
