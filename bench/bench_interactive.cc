// Incremental-vs-full interaction latency per transition class.
//
// An InteractiveRuntime over the columnar backend replays a scripted
// interaction walk — log replays (shape changes + memo revisits), ANY-option
// sweeps up and down (param rebinds; tighten/loosen on directional
// predicates), and OPT toggles. After each step, the full arm executes the
// step's current query from scratch on the same shared backend
// (parameterize, PrepareShape, Execute — what the runtime does when no
// incremental path applies). Per-step latency is bucketed by the step's transition class
// (engine/delta_exec.h), so each JSON row compares incremental maintenance
// against full execution for one class on one workload. Expect
// `tighten`/`loosen`/`rebind` rows to show speedup > 1 (selection deltas
// and memo hits) and `shape_change` to be ~1 (both arms execute fully).
//
// JSON rows (one line each, `"bench":"interactive"`) are documented in
// bench/README.md. IFGEN_BENCH_SMOKE=1 shrinks everything for CI.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/interface_generator.h"
#include "difftree/selection.h"
#include "engine/delta_exec.h"
#include "runtime/interactive.h"
#include "sql/parser.h"
#include "util/timer.h"
#include "workload/loader.h"

using namespace ifgen;  // NOLINT

namespace {

struct ScriptStep {
  enum class Kind : uint8_t { kAny, kOpt, kLoad } kind = Kind::kLoad;
  int choice_id = 0;
  int arg = 0;
  size_t qidx = 0;
};

/// Deterministic interaction script: two log replays, every ANY swept up
/// then down, every OPT toggled off/on. The down-sweep and the second
/// replay revisit states, exercising the memo; monotone numeric ANY options
/// exercise tighten/loosen.
std::vector<ScriptStep> BuildScript(const DiffTree& tree, size_t num_queries) {
  std::vector<ScriptStep> script;
  for (int replay = 0; replay < 2; ++replay) {
    for (size_t q = 0; q < num_queries; ++q) {
      script.push_back({ScriptStep::Kind::kLoad, 0, 0, q});
    }
  }
  ChoiceIndex index(tree);
  for (size_t id = 0; id < index.size(); ++id) {
    const DiffTree* node = index.node(id);
    if (node->kind == DKind::kAny && node->children.size() <= 12) {
      for (size_t opt = 0; opt < node->children.size(); ++opt) {
        script.push_back({ScriptStep::Kind::kAny, static_cast<int>(id),
                          static_cast<int>(opt), 0});
      }
      for (size_t opt = node->children.size(); opt-- > 0;) {
        script.push_back({ScriptStep::Kind::kAny, static_cast<int>(id),
                          static_cast<int>(opt), 0});
      }
    } else if (node->kind == DKind::kOpt) {
      script.push_back({ScriptStep::Kind::kOpt, static_cast<int>(id), 0, 0});
      script.push_back({ScriptStep::Kind::kOpt, static_cast<int>(id), 1, 0});
    }
  }
  return script;
}

Result<InteractiveRuntime::StepReport> ApplyStep(InteractiveRuntime* rt,
                                                 const std::vector<Ast>& queries,
                                                 const ScriptStep& s) {
  switch (s.kind) {
    case ScriptStep::Kind::kAny:
      return rt->SetAnyChoice(s.choice_id, s.arg);
    case ScriptStep::Kind::kOpt:
      return rt->SetOptPresent(s.choice_id, s.arg != 0);
    case ScriptStep::Kind::kLoad:
      return rt->LoadQuery(queries[s.qidx]);
  }
  return Status::Invalid("bad step");
}

/// The full arm: executes `query` from scratch on the shared backend,
/// exactly the path the runtime takes when no incremental path applies. It
/// starts from the runtime's query, not its SQL text: some widget states
/// (an empty projection list) unparse to SQL the parser rejects.
Status ExecuteFully(ExecutionBackend* backend, const Ast& query) {
  IFGEN_ASSIGN_OR_RETURN(ParameterizedQuery pq, ParameterizeQuery(query));
  IFGEN_ASSIGN_OR_RETURN(PreparedQuery * plan, backend->PrepareShape(pq));
  return plan->Execute(pq.params).status();
}

struct ClassBucket {
  size_t steps = 0;
  size_t incremental_steps = 0;
  int64_t inc_us = 0;
  int64_t full_us = 0;
};

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  bench::PrintHeader(
      "Incremental vs full interaction latency per transition class\n"
      "(scripted widget walk; incremental maintenance vs full execution of "
      "each step's query)");

  struct Sized {
    const char* name;
    size_t rows;
  };
  const Sized workloads[] = {{"flights", smoke ? size_t{500} : size_t{20000}},
                             {"sdss", smoke ? size_t{500} : size_t{8000}},
                             {"synthetic", smoke ? size_t{200} : size_t{2000}}};

  GeneratorOptions opt;
  opt.search.seed = 7;
  if (smoke) {
    opt.search.time_budget_ms = 0;
    opt.search.max_iterations = 10;
  } else {
    opt.search.time_budget_ms = bench::BudgetMs(1500);
  }

  for (const Sized& sized : workloads) {
    auto wl = LoadWorkload(sized.name, sized.rows);
    if (!wl.ok()) {
      std::printf("load %s failed: %s\n", sized.name, wl.status().ToString().c_str());
      return 1;
    }
    auto queries = ParseQueries(wl->log);
    if (!queries.ok()) return 1;
    auto iface = GenerateInterface(wl->log, opt);
    if (!iface.ok()) {
      std::printf("generate %s failed: %s\n", sized.name,
                  iface.status().ToString().c_str());
      return 1;
    }

    auto backend = MakeBackendFor(*wl, BackendKind::kColumnar);
    if (!backend.ok()) return 1;
    std::shared_ptr<ExecutionBackend> shared(std::move(*backend));

    auto rt_inc = InteractiveRuntime::Create(*iface, opt.constants, shared);
    if (!rt_inc.ok()) {
      std::printf("runtime create failed on %s: %s\n", sized.name,
                  rt_inc.status().ToString().c_str());
      return 1;
    }

    std::vector<ScriptStep> script =
        BuildScript((*rt_inc)->session().difftree(), queries->size());

    std::map<std::string, ClassBucket> buckets;
    size_t skipped = 0;
    for (const ScriptStep& s : script) {
      Stopwatch inc_watch;
      auto r_inc = ApplyStep(rt_inc->get(), *queries, s);
      int64_t inc_us = inc_watch.ElapsedMicros();
      if (!r_inc.ok()) {
        ++skipped;  // inactive widget in the current derivation
        continue;
      }
      auto query = (*rt_inc)->CurrentQuery();
      if (!query.ok()) return 1;
      Stopwatch full_watch;
      Status full = ExecuteFully(shared.get(), *query);
      int64_t full_us = full_watch.ElapsedMicros();
      if (!full.ok()) {
        std::printf("full execution failed on %s: %s\n", sized.name,
                    full.ToString().c_str());
        return 1;
      }
      ClassBucket& b = buckets[std::string(TransitionClassName(r_inc->transition))];
      ++b.steps;
      if (r_inc->incremental) ++b.incremental_steps;
      b.inc_us += inc_us;
      b.full_us += full_us;
    }

    auto counters = (*rt_inc)->counters();
    std::printf("\n%s (%zu rows/table, %zu script steps, %zu skipped; "
                "incremental: %zu noop, %zu memo, %zu delta, %zu retruncate, "
                "%zu full):\n",
                sized.name, sized.rows, script.size(), skipped, counters.noops,
                counters.cache_hits, counters.delta_execs, counters.retruncates,
                counters.full_execs);
    for (const auto& [cls, b] : buckets) {
      double inc_per = b.steps ? static_cast<double>(b.inc_us) / b.steps : 0.0;
      double full_per = b.steps ? static_cast<double>(b.full_us) / b.steps : 0.0;
      double speedup = inc_per > 0.0 ? full_per / inc_per : 0.0;
      std::printf("  %-13s steps=%4zu  incremental=%4zu  inc=%8.1fus/step  "
                  "full=%8.1fus/step  speedup=%.2fx\n",
                  cls.c_str(), b.steps, b.incremental_steps, inc_per, full_per,
                  speedup);
      std::printf("{\"bench\":\"interactive\",\"workload\":\"%s\","
                  "\"backend\":\"columnar\",\"transition\":\"%s\","
                  "\"rows_db\":%zu,\"steps\":%zu,\"incremental_steps\":%zu,"
                  "\"inc_us_per_step\":%.2f,\"full_us_per_step\":%.2f,"
                  "\"speedup\":%.3f}\n",
                  sized.name, cls.c_str(), sized.rows, b.steps,
                  b.incremental_steps, inc_per, full_per, speedup);
    }
    // The headline claim: incremental maintenance wins on the classes that
    // admit it (param rebinds served by memo/selection deltas).
    for (const char* cls : {"tighten", "loosen", "rebind", "limit_only"}) {
      auto it = buckets.find(cls);
      if (it == buckets.end() || it->second.steps == 0) continue;
      double speedup = it->second.inc_us > 0
                           ? static_cast<double>(it->second.full_us) /
                                 static_cast<double>(it->second.inc_us)
                           : 0.0;
      std::printf("  -> %s incremental beats full: %s (%.2fx)\n", cls,
                  it->second.full_us >= it->second.inc_us ? "yes" : "NO", speedup);
    }
  }
  return 0;
}
