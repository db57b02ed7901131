// perfbench: the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload generate|interact|jobs --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--tiny]
//
// Prints progress and a metric table to stderr and, as the last line of
// stdout, one JSON object {"correct","attempted","failed","metrics"}. Exits
// nonzero when an output check fails. The binary doubles as the cluster
// worker of the `jobs` workload (fork+exec with --ifgen-worker).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "common.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Metric names printed by the untraced and the traced run, in order.
const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = {
      "op_ms.p50", "op_ms.tail", "ops_per_s", "interface_cost", "setup_s", "peak_rss_mb"};
  return kNames;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> kNames = {
      // sql, difftree, rules
      "sql.parse_us", "difftree.build_us", "difftree.copy_us",
      "difftree.canonical_hash_us", "difftree.match_us", "difftree.nodes",
      "rules.enumerate_us", "rules.fanout", "rules.apply_us",
      // cost, interface
      "cost.plan_transitions_us", "interface.assign_build_us",
      "cost.evaluate_with_plan_us", "cost.evaluate_recompute_us",
      "cost.sample_cost_us", "cost.evaluations", "cost.eval_cache_hit_ratio",
      "cost.subtree_hit_ratio", "cost.plan_hit_ratio", "cost.find_best_ms",
      // search
      "search.run_ms", "search.iter_us", "search.iterations",
      "search.states_expanded", "search.tt_hits", "search.rollout_steps",
      "generate.stage_share", "search.job_share",
      // http, api, runtime, engine
      "http.floor_us", "api.apply_event_us", "api.step_encode_us",
      "runtime.step_us", "runtime.incremental_ratio", "runtime.memo_hit_ratio",
      "runtime.full_exec_ratio", "engine.execute_us",
      "engine.plan_cache_hit_ratio", "engine.rows_out",
      "interact.send_lag_ms.p99",
      // cluster, service, learn
      "cluster.submit_us", "cluster.probe_hit_ratio", "cluster.rpc_us.p50",
      "cluster.rpc_failures", "service.queued_ms.p50", "service.run_ms.p50",
      "service.result_cache_hit_ratio", "learn.seeded_records",
      // self time per layer, per operation of its workload
      "self.sql_ms", "self.difftree_ms", "self.search_ms", "self.cost_ms",
      "self.client_ms", "self.http_ms", "self.runtime_ms",
      // the traced workload itself
      "trace.overhead_pct", "ops.fail_ratio"};
  return kNames;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload generate|interact|jobs --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--tiny]\n");
  return 2;
}

using RunFn = void (*)(const Args&, bool, Report*);

RunFn Lookup(const std::string& name) {
  if (name == "generate") return RunGenerate;
  if (name == "interact") return RunInteract;
  if (name == "jobs") return RunJobs;
  return nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  if (ifgen::cluster::IsWorkerInvocation(argc, argv)) {
    return ifgen::cluster::RunWorkerMain(argc, argv);
  }
  ifgen::SetLogLevel(ifgen::LogLevel::kError);

  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  RunFn primary = Lookup(args.workload);
  if (!have_workload || primary == nullptr || args.seconds <= 0.0) return Usage();

  Report report;
  primary(args, /*primary=*/true, &report);
  if (args.trace) {
    // Every traced run measures every layer: the other two workloads run
    // briefly after the named one.
    for (const char* other : {"generate", "interact", "jobs"}) {
      if (args.workload != other) Lookup(other)(args, /*primary=*/false, &report);
    }
    const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (ifgen::Status st = SpanLog::Global().WriteChromeTrace(path); !st.ok()) {
      std::fprintf(stderr, "trace file: %s\n", st.ToString().c_str());
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  }
  report.RequireExactly(args.trace ? PerLayerMetricNames() : EndToEndMetricNames());
  std::fprintf(stderr, "%s seed=%llu trace=%d: correct=%s attempted=%zu failed=%zu\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, report.correct() ? "true" : "false",
               report.attempted(), report.failed());
  report.PrintTable();
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
