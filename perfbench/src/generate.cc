// Workload `generate`: one client calls GenerateInterface job after job in a
// closed loop. Jobs are serial MCTS with an iteration cap, so a job's result
// and its search counts are a pure function of its inputs.
//
// The job set is SDSS Listing 1, the flights log, and synthetic logs drawn
// from the workload seed. The synthetic logs vary log size, the number of
// predicates per query (Multi), optional WHERE clauses (Optional), and TOP
// variants — the structural variation query-log interface mining relies on.
//
// Traced run: the same jobs are replayed stage by stage through the public
// calls GenerateInterface makes (ParseQueries, BuildInitialTree, RuleEngine,
// StateEvaluator, MakeSearcher(...)->Run, FindBest, CountExpressible), then
// every layer is timed on each state of a saturation walk.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/interface_generator.h"
#include "core/session.h"
#include "cost/cost_model.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "difftree/enumerate.h"
#include "difftree/match.h"
#include "interface/assignment.h"
#include "obs/trace.h"
#include "rules/rule.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/flights.h"
#include "workload/sdss.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {

using ifgen::DiffTree;
using ifgen::GeneratedInterface;
using ifgen::GeneratorOptions;

namespace {

/// One generation job: a query log and iteration-capped serial options.
struct GenJob {
  std::string label;
  std::vector<std::string> sqls;
  ifgen::GeneratorOptions options;
};

/// The tail the untraced run reports (at least ten jobs lie beyond it at
/// the default run length).
constexpr double kJobTail = 0.90;

GeneratorOptions CappedOptions(size_t iterations, uint64_t seed) {
  GeneratorOptions o;
  o.search.time_budget_ms = 0;  // iteration-capped: deterministic
  o.search.max_iterations = iterations;
  o.search.seed = seed;
  return o;
}

struct JobOutcome {
  double wall_ms = 0.0;
  size_t iterations = 0;
  double cost = 0.0;
  uint64_t tree_hash = 0;
};

/// GenerateInterface on one job, timed from outside.
ifgen::Result<JobOutcome> RunJob(const GenJob& job, GeneratedInterface* out) {
  ifgen::Stopwatch watch;
  auto iface = ifgen::GenerateInterface(job.sqls, job.options);
  const double wall_ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;
  if (!iface.ok()) return iface.status();
  JobOutcome o;
  o.wall_ms = wall_ms;
  o.iterations = iface->stats.iterations;
  o.cost = iface->cost.total();
  o.tree_hash = iface->difftree.CanonicalHash();
  *out = std::move(*iface);
  return o;
}

/// Every log query round-trips through the generated interface: loading it
/// moves the widgets so that the current SQL is the query's canonical text.
void CheckRoundTrip(const GenJob& job, const GeneratedInterface& iface, Report* report) {
  auto session = ifgen::InterfaceSession::Create(iface, job.options.constants);
  if (!session.ok()) {
    report->CheckFailed(job.label + ": session: " + session.status().ToString());
    return;
  }
  if (auto replay = session->ReplayLog(iface.queries); !replay.ok()) {
    report->CheckFailed(job.label + ": ReplayLog: " + replay.status().ToString());
    return;
  }
  for (size_t i = 0; i < iface.queries.size(); ++i) {
    auto canonical = ifgen::Unparse(iface.queries[i]);
    auto step = session->LoadQuery(iface.queries[i]);
    auto current = session->CurrentSql();
    if (!canonical.ok() || !step.ok() || !current.ok() || *current != *canonical) {
      report->CheckFailed(job.label + ": query " + std::to_string(i) +
                          " does not round-trip through the interface");
      return;
    }
  }
}

struct CycleResult {
  std::vector<JobOutcome> jobs;
  /// The first cycle keeps its interfaces for the round-trip check.
  std::vector<GeneratedInterface> interfaces;
};

/// One pass over the job set; checks each result against `first` (same job,
/// same seed) when given, and keeps the interfaces otherwise.
bool RunCycle(const std::vector<GenJob>& jobs, const CycleResult* first, Report* report,
              CycleResult* out) {
  for (size_t j = 0; j < jobs.size(); ++j) {
    GeneratedInterface iface;
    auto o = RunJob(jobs[j], &iface);
    report->Count(1, o.ok() ? 0 : 1);
    if (!o.ok()) {
      report->CheckFailed(jobs[j].label + ": " + o.status().ToString());
      return false;
    }
    if (!std::isfinite(o->cost)) report->CheckFailed(jobs[j].label + ": cost is not finite");
    if (first == nullptr) {
      out->interfaces.push_back(std::move(iface));
    } else if (first->jobs[j].cost != o->cost || first->jobs[j].tree_hash != o->tree_hash) {
      report->CheckFailed(jobs[j].label + ": repeated job changed its result");
    }
    out->jobs.push_back(*o);
  }
  return true;
}

struct LoopResult {
  std::vector<CycleResult> cycles;
  /// Time inside GenerateInterface calls only; checks are not counted.
  double job_seconds = 0.0;
};

/// Whole cycles until `seconds` have passed (at least one), so every run
/// measures the same job mix. The round trips of the first cycle's
/// interfaces are checked after the loop.
LoopResult RunLoop(const std::vector<GenJob>& jobs, double seconds, Report* report) {
  LoopResult r;
  ifgen::Stopwatch watch;
  do {
    CycleResult c;
    if (!RunCycle(jobs, r.cycles.empty() ? nullptr : &r.cycles.front(), report, &c)) break;
    r.cycles.push_back(std::move(c));
  } while (watch.ElapsedSeconds() < seconds);
  if (r.cycles.empty()) return r;
  for (const CycleResult& c : r.cycles) {
    for (const JobOutcome& o : c.jobs) r.job_seconds += o.wall_ms / 1000.0;
  }
  const CycleResult& first = r.cycles.front();
  for (size_t j = 0; j < jobs.size(); ++j) {
    CheckRoundTrip(jobs[j], first.interfaces[j], report);
    std::fprintf(stderr, "  %-14s %8.1f ms  %3zu iterations  cost %.3f\n",
                 jobs[j].label.c_str(), first.jobs[j].wall_ms, first.jobs[j].iterations,
                 first.jobs[j].cost);
  }
  return r;
}

// ------------------------------------------------------------ traced replay

struct StageTotals {
  double job_us = 0.0;
  double stage_us = 0.0;  ///< parse + build + search + find_best + count
  size_t jobs = 0;
  std::vector<double> run_ms;
  std::vector<double> find_best_ms;
  // Counts over the first pass of the job set.
  double run_us_counted = 0.0;
  size_t iterations = 0;
  size_t states_expanded = 0;
  size_t tt_hits = 0;
  size_t rollout_steps = 0;
  size_t evaluations = 0;
  size_t eval_cache_hits = 0;
  size_t subtree_hits = 0;
  size_t subtree_recomputes = 0;
  size_t plan_hits = 0;
  size_t plan_recomputes = 0;
};

/// GenerateInterface, stage by stage, with a span around each stage.
/// Mirrors core/interface_generator.cc so the result equals the untraced
/// job's (checked by the caller).
ifgen::Result<double> ReplayStages(const GenJob& job, bool count, StageTotals* t) {
  const int64_t start = NowUs();
  int64_t stage_us = 0;
  auto timed = [&](auto&& fn) {
    const int64_t s = NowUs();
    auto r = fn();
    stage_us += NowUs() - s;
    return r;
  };
  double cost = 0.0;
  {
    ScopedSpan job_span("generate.job", "client", NextOpId());
    auto queries = timed([&] {
      ScopedSpan s("sql.parse", "sql");
      return ifgen::ParseQueries(job.sqls);
    });
    if (!queries.ok()) return queries.status();
    auto initial = timed([&] {
      ScopedSpan s("difftree.build", "difftree");
      return ifgen::BuildInitialTree(*queries);
    });
    if (!initial.ok()) return initial.status();
    ifgen::RuleEngine rules(job.options.rules);
    ifgen::StateEvaluator evaluator(job.options.MakeEvalOptions(), *queries);
    std::unique_ptr<ifgen::Searcher> searcher =
        ifgen::MakeSearcher(job.options.algorithm, &rules, &evaluator,
                            job.options.search, job.options.parallel);
    const int64_t run_start = NowUs();
    auto sr = timed([&] {
      ScopedSpan s("search.run", "search");
      return searcher->Run(*initial);
    });
    const double run_us = static_cast<double>(NowUs() - run_start);
    if (!sr.ok()) return sr.status();
    ifgen::Rng rng(job.options.search.seed ^ 0x5eedULL);
    const int64_t fb_start = NowUs();
    auto best = timed([&] {
      ScopedSpan s("cost.find_best", "cost");
      return evaluator.FindBest(sr->best_tree, &rng);
    });
    t->find_best_ms.push_back(static_cast<double>(NowUs() - fb_start) / 1000.0);
    if (!best.ok()) return best.status();
    timed([&] {
      ScopedSpan s("difftree.count", "difftree");
      return ifgen::CountExpressible(sr->best_tree);
    });
    cost = best->cost.total();
    t->run_ms.push_back(run_us / 1000.0);
    if (count) {
      t->run_us_counted += run_us;
      t->iterations += sr->stats.iterations;
      t->states_expanded += sr->stats.states_expanded;
      t->tt_hits += sr->stats.transposition_hits;
      t->rollout_steps += sr->stats.rollout_steps;
      t->evaluations += evaluator.evaluations();
      t->eval_cache_hits += evaluator.cache_hits();
      t->subtree_hits += evaluator.subtree_cache_hits();
      t->subtree_recomputes += evaluator.subtree_recomputes();
      t->plan_hits += evaluator.plan_cache_hits();
      t->plan_recomputes += evaluator.plan_recomputes();
    }
  }
  t->job_us += static_cast<double>(NowUs() - start);
  t->stage_us += static_cast<double>(stage_us);
  ++t->jobs;
  return cost;
}

/// Mean microseconds per call of `fn`, repeated until `min_us` have passed
/// (at least `min_reps` calls).
template <typename Fn>
double TimeUs(Fn&& fn, double min_us = 2000.0, int min_reps = 3) {
  int reps = 0;
  const int64_t start = NowUs();
  int64_t elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = NowUs() - start;
  } while (reps < min_reps || static_cast<double>(elapsed) < min_us);
  return static_cast<double>(elapsed) / reps;
}

struct LayerSamples {
  std::vector<double> parse_us, build_us, copy_us, hash_us, match_us, nodes, enumerate_us,
      fanout, apply_us, plan_us, assign_us, eval_plan_us, eval_recompute_us, sample_us;
};

/// Times each layer on every state of a saturation walk (first forward
/// application, repeated) from the initial tree, plus the search's best
/// tree. These are the cases the google-benchmark micro harness covered.
void ReplayLayers(const GenJob& job, const DiffTree& best_tree, size_t max_states,
                  LayerSamples* s) {
  auto queries = ifgen::ParseQueries(job.sqls);
  if (!queries.ok()) return;
  for (const std::string& sql : job.sqls) {
    s->parse_us.push_back(TimeUs([&] { (void)ifgen::ParseQuery(sql); }, 200.0));
  }
  auto initial = ifgen::BuildInitialTree(*queries);
  if (!initial.ok()) return;
  s->build_us.push_back(TimeUs([&] { (void)ifgen::BuildInitialTree(*queries); }));

  ifgen::RuleEngine engine(job.options.rules);
  std::vector<DiffTree> walk{*initial};
  while (walk.size() < 64) {
    bool advanced = false;
    for (const auto& app : engine.EnumerateApplications(walk.back())) {
      if (!engine.IsForward(app)) continue;
      auto next = engine.Apply(walk.back(), app);
      if (!next.ok()) continue;
      walk.push_back(std::move(*next));
      advanced = true;
      break;
    }
    if (!advanced) break;
  }
  // Evenly spaced states of the walk, always including both ends.
  std::vector<DiffTree> states;
  const size_t take = std::min(max_states, walk.size());
  for (size_t i = 0; i < take; ++i) {
    const size_t idx = take == 1 ? 0 : i * (walk.size() - 1) / (take - 1);
    states.push_back(walk[idx]);
  }
  states.push_back(best_tree);

  const ifgen::CostConstants& constants = job.options.constants;
  ifgen::CostModel model(constants, job.options.screen, job.options.parse_limit);
  ifgen::EvalOptions no_cache = job.options.MakeEvalOptions();
  no_cache.cache_enabled = false;
  for (const DiffTree& state : states) {
    s->nodes.push_back(static_cast<double>(state.NodeCount()));
    s->copy_us.push_back(TimeUs([&] {
      DiffTree copy = state;
      (void)copy.NodeCount();
    }, 500.0));
    s->hash_us.push_back(TimeUs([&] { (void)state.CanonicalHash(); }, 500.0));
    size_t qi = 0;
    s->match_us.push_back(TimeUs([&] {
      (void)ifgen::MatchQuery(state, (*queries)[qi++ % queries->size()]);
    }, 500.0));
    std::vector<ifgen::RuleApplication> apps = engine.EnumerateApplications(state);
    s->fanout.push_back(static_cast<double>(apps.size()));
    s->enumerate_us.push_back(TimeUs([&] { (void)engine.EnumerateApplications(state); }));
    if (!apps.empty()) {
      size_t ai = 0;
      s->apply_us.push_back(TimeUs([&] { (void)engine.Apply(state, apps[ai++ % apps.size()]); }));
    }
    s->plan_us.push_back(TimeUs([&] {
      (void)ifgen::PlanTransitions(state, *queries, job.options.parse_limit);
    }));
    ifgen::WidgetAssigner assigner(state, constants);
    const ifgen::Assignment assignment = assigner.MinAppropriatenessAssignment();
    auto wt = assigner.Build(assignment);
    s->assign_us.push_back(TimeUs([&] {
      ifgen::WidgetAssigner a(state, constants);
      (void)a.Build(a.MinAppropriatenessAssignment());
    }));
    if (wt.ok()) {
      const ifgen::TransitionPlan plan =
          ifgen::PlanTransitions(state, *queries, job.options.parse_limit);
      s->eval_plan_us.push_back(TimeUs([&] {
        ifgen::WidgetTree copy = *wt;
        (void)model.EvaluateWithPlan(plan, &copy);
      }));
      s->eval_recompute_us.push_back(TimeUs([&] {
        ifgen::WidgetTree copy = *wt;
        (void)model.Evaluate(state, &copy, *queries);
      }));
    }
    ifgen::StateEvaluator evaluator(no_cache, *queries);
    ifgen::Rng rng(job.options.search.seed);
    s->sample_us.push_back(TimeUs([&] { (void)evaluator.SampleCost(state, &rng); }));
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The job set for a workload seed: SDSS Listing 1, flights, and synthetic
/// logs of fixed shapes whose literals the seed draws.
std::vector<GenJob> MakeGenJobs(uint64_t seed, bool tiny) {
  // Search seeds are fixed per job; the workload seed draws the synthetic
  // logs' literals, so runs at different seeds search different logs of the
  // same shapes.
  std::vector<GenJob> jobs;
  jobs.push_back({"sdss", ifgen::SdssListing1(), CappedOptions(tiny ? 2 : 40, 101)});
  jobs.push_back({"flights", ifgen::FlightsLog(), CappedOptions(tiny ? 8 : 100, 102)});
  // Many shapes, so that job times spread evenly and the median and tail
  // do not sit in a gap between two job sizes.
  const size_t synthetic = tiny ? 2 : 32;
  for (size_t i = 0; i < synthetic; ++i) {
    ifgen::LogSpec spec;
    spec.num_queries = 6 + i % 7;
    spec.num_tables = 1 + (i / 7) % 3;
    spec.num_predicates = 2 + (i / 3) % 2;
    spec.vary_predicate_count = (i & 1) != 0;  // Multi
    spec.optional_where = (i & 2) != 0;        // Optional
    spec.num_top_variants = (i & 4) != 0 ? 3 : 0;
    spec.num_projection_variants = 1 + (i & 8) / 8;
    spec.seed = seed * 1000003 + i;
    jobs.push_back({"synthetic-" + std::to_string(i), ifgen::GenerateLog(spec),
                    CappedOptions(tiny ? 4 : 24, 103 + i)});
  }
  return jobs;
}

}  // namespace

void RunGenerate(const Args& args, bool primary, Report* report) {
  // Set-up: build the job set and run one warm-up job (lazy statics, the
  // allocator's first growth). Repeated in a timed run; the median is
  // reported. A secondary traced run uses the small job set.
  std::vector<double> setup_s;
  std::vector<GenJob> jobs;
  for (int i = 0; i < (args.trace ? 1 : 5); ++i) {
    ifgen::Stopwatch watch;
    jobs = MakeGenJobs(args.seed, args.tiny || !primary);
    GeneratedInterface warm;
    if (auto w = RunJob(jobs[1], &warm); !w.ok()) {
      report->CheckFailed("warm-up job: " + w.status().ToString());
      return;
    }
    setup_s.push_back(watch.ElapsedSeconds());
  }

  if (!args.trace) {
    LoopResult loop = RunLoop(jobs, args.seconds, report);
    if (loop.cycles.empty()) return;
    std::vector<double> wall_ms;
    for (const CycleResult& c : loop.cycles) {
      for (const JobOutcome& o : c.jobs) wall_ms.push_back(o.wall_ms);
    }
    std::vector<double> costs;
    for (const JobOutcome& o : loop.cycles.front().jobs) costs.push_back(o.cost);
    std::fprintf(stderr, "generate: %zu jobs in %zu cycles, %.2f s inside GenerateInterface\n",
                 wall_ms.size(), loop.cycles.size(), loop.job_seconds);
    report->Set("op_ms.p50", Median(wall_ms), "ms");
    report->Set("op_ms.tail", Tail(wall_ms, kJobTail), "ms");
    report->Set("ops_per_s", static_cast<double>(wall_ms.size()) / loop.job_seconds, "1/s");
    report->Set("interface_cost", Mean(costs), "cost");
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", SelfPeakRssMb(), "MB");
    return;
  }

  // Traced run. Untraced half first (the overhead baseline), then the same
  // jobs stage by stage with spans on.
  const double half = primary ? args.seconds / 2.0 : 0.0;
  LoopResult untraced = RunLoop(jobs, half, report);
  if (untraced.cycles.empty()) return;
  std::vector<double> untraced_ms;
  for (const CycleResult& c : untraced.cycles) {
    for (const JobOutcome& o : c.jobs) untraced_ms.push_back(o.wall_ms);
  }

  SpanLog::Enable(true);
  ifgen::obs::SetTracingEnabled(true);
  StageTotals totals;
  std::vector<double> traced_ms;
  ifgen::Stopwatch watch;
  for (size_t cycle = 0; cycle == 0 || watch.ElapsedSeconds() < half; ++cycle) {
    for (size_t j = 0; j < jobs.size(); ++j) {
      const double before = totals.job_us;
      auto cost = ReplayStages(jobs[j], cycle == 0, &totals);
      SpanLog::Global().ImportProgramSpans();
      report->Count(1, cost.ok() ? 0 : 1);
      if (!cost.ok()) {
        report->CheckFailed(jobs[j].label + " (staged): " + cost.status().ToString());
        continue;
      }
      traced_ms.push_back((totals.job_us - before) / 1000.0);
      if (*cost != untraced.cycles.front().jobs[j].cost) {
        report->CheckFailed(jobs[j].label + ": staged replay changed the result");
      }
    }
  }
  ifgen::obs::SetTracingEnabled(false);
  SpanLog::Enable(false);

  const std::map<std::string, double> self_us =
      SpanLog::Global().SelfUsByCategory({"generate.job"});
  auto self_ms_per_job = [&](const char* cat) {
    auto it = self_us.find(cat);
    return it == self_us.end() ? 0.0 : it->second / 1000.0 / static_cast<double>(totals.jobs);
  };

  // Layer replay on every job of the set.
  LayerSamples layers;
  for (size_t j = 0; j < jobs.size(); ++j) {
    GeneratedInterface iface;
    if (!RunJob(jobs[j], &iface).ok()) continue;
    ReplayLayers(jobs[j], iface.difftree, args.tiny ? 3 : 8, &layers);
  }

  report->Set("sql.parse_us", Median(layers.parse_us), "us");
  report->Set("difftree.build_us", Median(layers.build_us), "us");
  report->Set("difftree.copy_us", Median(layers.copy_us), "us");
  report->Set("difftree.canonical_hash_us", Median(layers.hash_us), "us");
  report->Set("difftree.match_us", Median(layers.match_us), "us");
  report->Set("difftree.nodes", Mean(layers.nodes), "count");
  report->Set("rules.enumerate_us", Median(layers.enumerate_us), "us");
  report->Set("rules.fanout", Mean(layers.fanout), "count");
  report->Set("rules.apply_us", Median(layers.apply_us), "us");
  report->Set("cost.plan_transitions_us", Median(layers.plan_us), "us");
  report->Set("interface.assign_build_us", Median(layers.assign_us), "us");
  report->Set("cost.evaluate_with_plan_us", Median(layers.eval_plan_us), "us");
  report->Set("cost.evaluate_recompute_us", Median(layers.eval_recompute_us), "us");
  report->Set("cost.sample_cost_us", Median(layers.sample_us), "us");
  report->Set("cost.evaluations", static_cast<double>(totals.evaluations), "count");
  report->Set("cost.eval_cache_hit_ratio",
              Ratio(static_cast<double>(totals.eval_cache_hits),
                    static_cast<double>(totals.eval_cache_hits + totals.evaluations)),
              "ratio");
  report->Set("cost.subtree_hit_ratio",
              Ratio(static_cast<double>(totals.subtree_hits),
                    static_cast<double>(totals.subtree_hits + totals.subtree_recomputes)),
              "ratio");
  report->Set("cost.plan_hit_ratio",
              Ratio(static_cast<double>(totals.plan_hits),
                    static_cast<double>(totals.plan_hits + totals.plan_recomputes)),
              "ratio");
  report->Set("cost.find_best_ms", Median(totals.find_best_ms), "ms");
  report->Set("search.run_ms", Median(totals.run_ms), "ms");
  report->Set("search.iter_us",
              Ratio(totals.run_us_counted, static_cast<double>(totals.iterations)), "us");
  report->Set("search.iterations", static_cast<double>(totals.iterations), "count");
  report->Set("search.states_expanded", static_cast<double>(totals.states_expanded), "count");
  report->Set("search.tt_hits", static_cast<double>(totals.tt_hits), "count");
  report->Set("search.rollout_steps", static_cast<double>(totals.rollout_steps), "count");
  report->Set("generate.stage_share", Ratio(totals.stage_us, totals.job_us), "ratio");
  double run_ms_total = 0.0;
  for (double ms : totals.run_ms) run_ms_total += ms;
  report->Set("search.job_share", Ratio(run_ms_total * 1000.0, totals.job_us), "ratio");
  report->Set("self.sql_ms", self_ms_per_job("sql"), "ms");
  report->Set("self.difftree_ms", self_ms_per_job("difftree"), "ms");
  report->Set("self.search_ms", self_ms_per_job("search"), "ms");
  report->Set("self.cost_ms", self_ms_per_job("cost"), "ms");
  if (primary) {
    report->Set("ops.fail_ratio",
                Ratio(static_cast<double>(report->failed()), static_cast<double>(report->attempted())),
                "ratio");
    report->Set("trace.overhead_pct",
                (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
  }
}

}  // namespace perfbench
