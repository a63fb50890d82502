#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

ThreadSpan& CurrentThreadSpan() {
  thread_local ThreadSpan current;
  return current;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const std::string& layer,
                       const std::string& name)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  saved_ = CurrentThreadSpan();
  if (saved_.parent == 0 && !rec_->accepting()) {
    rec_ = nullptr;
    return;
  }
  id_ = rec_->Open(layer, name, saved_.parent, 0);
  op_ = saved_.op != 0 ? saved_.op : id_;  // a root span starts an op
  rec_->SetOp(id_, op_);
  CurrentThreadSpan() = {id_, op_};
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  rec_->Close(id_);
  CurrentThreadSpan() = saved_;
}

void SpanRecorder::DeriveStages(
    int64_t parent, int64_t op,
    const std::vector<std::pair<std::string, double>>& stages,
    const std::vector<std::string>& layers) {
  if (parent == 0) return;  // the parent was not recorded
  const int64_t end = EndOf(parent);
  int64_t at = StartOf(parent);
  for (size_t i = 0; i < stages.size(); ++i) {
    const int64_t len = static_cast<int64_t>(stages[i].second * 1e9);
    const int64_t stop = std::min(end, at + std::max<int64_t>(0, len));
    if (stop > at) {
      Record(layers[i], stages[i].first, at, stop, parent, op,
             /*derived=*/true);
    }
    at = stop;
  }
}

namespace {

// Length of the union of [a, b) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
                  int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) covered += cur_b - cur_a;
  return covered;
}

}  // namespace

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  // Derived stage children of each parent, for reparenting real spans
  // (what-if calls) into the stage whose interval holds them.
  std::unordered_map<int64_t, std::vector<int64_t>> derived_kids;
  for (const Span& s : spans) {
    if (s.derived && s.parent != 0) derived_kids[s.parent].push_back(s.id);
  }
  std::vector<int64_t> parent(spans.size() + 1, 0);
  for (const Span& s : spans) {
    parent[s.id] = s.parent;
    if (s.derived || s.parent == 0) continue;
    auto it = derived_kids.find(s.parent);
    if (it == derived_kids.end()) continue;
    const int64_t mid = s.start_ns + (s.end_ns - s.start_ns) / 2;
    for (int64_t d : it->second) {
      const Span& ds = spans[d - 1];
      if (ds.start_ns <= mid && mid < ds.end_ns) {
        parent[s.id] = d;
        break;
      }
    }
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size() + 1);
  for (const Span& s : spans) {
    if (parent[s.id] != 0) {
      kids[parent[s.id]].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  double orphan_whatif = 0;
  for (const Span& s : spans) {
    const int64_t dur = std::max<int64_t>(0, s.end_ns - s.start_ns);
    const int64_t covered = CoveredNs(kids[s.id], s.start_ns, s.end_ns);
    const double sec = static_cast<double>(dur - covered) * 1e-9;
    self[s.layer] += sec;
    if (s.layer == "optimizer" && parent[s.id] == 0) orphan_whatif += sec;
  }
  if (orphan_whatif > 0 && self.count("inum") != 0) {
    self["inum"] = std::max(0.0, self["inum"] - orphan_whatif);
  }
  return self;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"op\": %lld, "
                 "\"layer\": \"%s\", \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"derived\": %s}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), s.layer.c_str(),
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
