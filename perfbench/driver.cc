// The advisor benchmark driver: runs one workload for a fixed time from
// a seed, checks every output, and prints its metrics by name with
// their units, ending with one JSON line:
//
//   perfbench_driver --workload het_cold|service_churn
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// With --trace 0 the line carries the end-to-end metrics (measured with
// tracing off); with --trace 1 the per-layer metrics of a traced run,
// which keeps every span in memory and writes them to FILE at exit.
// The exit code is nonzero when any correctness check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Units per metric; BENCHMARK.json lists the same names and units.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tune_ms_p50", "ms"},
    {"tune_ms_tail", "ms"},
    {"fast_path_ms", "ms"},
    {"throughput_ops_s", "1/s"},
    {"whatif_calls_per_op", "calls"},
    {"cost_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"lp.solve_s", "s"},
    {"lp.root_lp_pivots", "count"},
    {"lp.ftran_btran_s", "s"},
    {"lp.refactorizations", "count"},
    {"lp.root_lp_run_rate", "fraction"},
    {"lp.nodes", "count"},
    {"lp.bound_evaluations", "count"},
    {"lp.variables_fixed", "count"},
    {"lp.presolve_s", "s"},
    {"lp.presolve_plans_removed", "count"},
    {"lp.gap", "fraction"},
    {"core.bipgen_s", "s"},
    {"core.warm_reuse_rate", "fraction"},
    {"inum.prepare_s", "s"},
    {"inum.whatif_per_new_class", "calls"},
    {"optimizer.whatif_calls", "calls"},
    {"optimizer.whatif_busy_s", "s"},
    {"optimizer.calls.cost", "calls"},
    {"optimizer.calls.templates", "calls"},
    {"optimizer.calls.access", "calls"},
    {"optimizer.calls.shell", "calls"},
    {"optimizer.calls.update", "calls"},
    {"index.cgen_s", "s"},
    {"index.candidates", "count"},
    {"workload.compress_s", "s"},
    {"workload.compression_ratio", "ratio"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p95", "ms"},
    {"service.exec_ms_p50", "ms"},
    {"service.exec_ms_p95", "ms"},
    {"service.plan_cache.hit_rate", "fraction"},
    {"service.plan_cache.dup_fill_rate", "fraction"},
    {"service.rejected", "count"},
    {"bench.self_s", "s"},
    {"service.self_s", "s"},
    {"core.self_s", "s"},
    {"lp.self_s", "s"},
    {"inum.self_s", "s"},
    {"index.self_s", "s"},
    {"workload.self_s", "s"},
    {"optimizer.self_s", "s"},
    {"trace.overhead_frac", "fraction"},
    {"trace.ops", "count"},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      args->workload = v;
    } else if (key == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(v);
    } else if (key == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (key == "--trace-out") {
      args->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  Report report;
  perfbench::SpanRecorder spans;
  perfbench::SpanRecorder* rec = args.trace ? &spans : nullptr;
  if (args.workload == "het_cold") {
    perfbench::RunHetCold(args, &report, rec);
  } else if (args.workload == "service_churn") {
    perfbench::RunServiceChurn(args, &report, rec);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Every end-to-end metric must be measured, finite and nonzero.
  for (const MetricDef& m : kEndToEnd) {
    auto it = report.end_to_end.find(m.name);
    const bool ok = it != report.end_to_end.end() &&
                    std::isfinite(it->second) && it->second > 0;
    report.Check(ok, std::string("end-to-end metric ") + m.name +
                         " missing or not positive");
  }
  if (args.trace && !args.trace_out.empty()) {
    report.Check(spans.WriteJsonLines(args.trace_out),
                 "cannot write spans to " + args.trace_out);
  }

  const bool traced = args.trace;
  std::printf("%s metrics (%s):\n", args.workload.c_str(),
              traced ? "traced run, per layer" : "untraced run, end to end");
  std::string json = "{";
  bool first = true;
  for (const MetricDef& m : traced ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                              std::end(kPerLayer))
                                   : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                              std::end(kEndToEnd))) {
    const auto& values = traced ? report.per_layer : report.end_to_end;
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0 : it->second;
    std::printf("  %-36s %16.6f %s\n", m.name, v, m.unit);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Num(std::isfinite(v) ? v : 0) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}";
  const bool correct = report.errors.empty();
  std::printf("checks: %s (%lld ops attempted, %lld failed)\n",
              correct ? "all passed" : "FAILED",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& e : report.errors) {
    std::printf("  failed check: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
