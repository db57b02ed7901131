#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/interface_generator.h"
#include "difftree/builder.h"
#include "runtime/service.h"
#include "search/mcts.h"
#include "search/parallel_mcts.h"
#include "search/progress.h"
#include "search/timeman.h"
#include "sql/parser.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

std::vector<Ast> SmallLog() {
  return *ParseQueries(std::vector<std::string>{
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
  });
}

/// First `n` queries of a registered workload's log, parsed. The streaming
/// differential sweeps real logs (flights/sdss/synthetic), not just the toy
/// log, because publish cadence depends on how often the best improves.
std::vector<Ast> WorkloadLog(const std::string& name, size_t n) {
  auto bundle = LoadWorkload(name);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  std::vector<std::string> sqls(bundle->log.begin(),
                                bundle->log.begin() +
                                    std::min(n, bundle->log.size()));
  auto parsed = ParseQueries(sqls);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

SearchOptions FastOptions(size_t iterations) {
  SearchOptions o;
  o.time_budget_ms = 0;  // iteration-capped: deterministic
  o.max_iterations = iterations;
  o.seed = 17;
  return o;
}

EvalOptions SmallEvalOptions() {
  EvalOptions e;
  e.screen = {80, 24};
  return e;
}

/// The published sequence must be the anytime contract: versions 1,2,3,...
/// with strictly decreasing costs, and the final snapshot must be exactly
/// the returned result.
void CheckPublishedSequence(const ProgressSink& sink, const SearchResult& r) {
  auto events = sink.EventsAfter(0);
  ASSERT_FALSE(events.empty()) << "search published no improvements";
  double prev_cost = std::numeric_limits<double>::infinity();
  uint64_t prev_version = 0;
  for (const auto& e : events) {
    EXPECT_EQ(e.version, prev_version + 1) << "versions must be consecutive";
    EXPECT_LT(e.cost, prev_cost) << "published costs must strictly decrease";
    ASSERT_NE(e.tree, nullptr);
    prev_cost = e.cost;
    prev_version = e.version;
  }
  auto latest = sink.Latest();
  EXPECT_EQ(latest.version, sink.version());
  EXPECT_EQ(latest.cost, r.best_cost)
      << "final published cost must equal the returned best cost";
  ASSERT_NE(latest.tree, nullptr);
  EXPECT_EQ(*latest.tree, r.best_tree)
      << "final published tree must equal the returned best tree";
}

// ----------------------------------------------------- streaming differential

TEST(Streaming, SerialPublishesStrictlyImprovingSequencePerWorkload) {
  for (const std::string& name : {"flights", "sdss", "synthetic"}) {
    SCOPED_TRACE(name);
    auto queries = WorkloadLog(name, 6);
    RuleEngine rules;
    DiffTree initial = *BuildInitialTree(queries);
    StateEvaluator eval(SmallEvalOptions(), queries);
    SearchOptions opts = FastOptions(30);
    auto sink = std::make_shared<ProgressSink>();
    opts.progress = sink;
    MctsSearcher searcher(&rules, &eval, opts);
    auto r = searcher.Run(initial);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    CheckPublishedSequence(*sink, *r);
    EXPECT_EQ(r->stats.stop_reason, StopReason::kIterations);
  }
}

TEST(Streaming, RootParallelPublishesStrictlyImprovingSequence) {
  auto queries = WorkloadLog("flights", 6);
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator eval(SmallEvalOptions(), queries);
  SearchOptions opts = FastOptions(30);
  auto sink = std::make_shared<ProgressSink>();
  opts.progress = sink;
  ParallelOptions popts;
  popts.num_threads = 3;
  ParallelMctsSearcher searcher(&rules, &eval, opts, popts);
  auto r = searcher.Run(initial);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  CheckPublishedSequence(*sink, *r);
}

/// The no-deadline differential pin: with time control off, attaching the
/// streaming machinery (sink + stop handle) must leave the serial search
/// bit-identical to a plain run — publishing consumes no RNG draws and the
/// run's anytime controls stay inert.
TEST(Streaming, SinkAndStopWiringDoesNotPerturbSerialSearch) {
  for (const std::string& name : {"flights", "sdss", "synthetic"}) {
    SCOPED_TRACE(name);
    auto queries = WorkloadLog(name, 6);
    RuleEngine rules;
    DiffTree initial = *BuildInitialTree(queries);

    // Fresh evaluator per run: a warm cache would change RNG consumption.
    StateEvaluator plain_eval(SmallEvalOptions(), queries);
    MctsSearcher plain(&rules, &plain_eval, FastOptions(25));
    auto plain_result = plain.Run(initial);
    ASSERT_TRUE(plain_result.ok());

    StateEvaluator wired_eval(SmallEvalOptions(), queries);
    SearchOptions wired_opts = FastOptions(25);
    wired_opts.progress = std::make_shared<ProgressSink>();
    wired_opts.stop = std::make_shared<StopHandle>();
    MctsSearcher wired(&rules, &wired_eval, wired_opts);
    auto wired_result = wired.Run(initial);
    ASSERT_TRUE(wired_result.ok());

    EXPECT_EQ(wired_result->best_cost, plain_result->best_cost);
    EXPECT_EQ(wired_result->best_tree, plain_result->best_tree);
    EXPECT_EQ(wired_result->stats.iterations, plain_result->stats.iterations);
    EXPECT_EQ(wired_result->stats.rollouts, plain_result->stats.rollouts);
    EXPECT_EQ(wired_result->stats.states_expanded,
              plain_result->stats.states_expanded);
    EXPECT_EQ(wired_eval.evaluations(), plain_eval.evaluations());
    EXPECT_EQ(wired_result->stats.stop_reason, plain_result->stats.stop_reason);
  }
}

// ------------------------------------------------------------- ProgressSink

TEST(ProgressSink, WaitVersionAboveWakesOnPublish) {
  auto queries = SmallLog();
  DiffTree tree = *BuildInitialTree(queries);
  ProgressSink sink;
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.Publish(tree, 1.0, 1, 20);
  });
  const uint64_t v = sink.WaitVersionAbove(0, 5000);
  publisher.join();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(sink.Latest().cost, 1.0);
}

TEST(ProgressSink, WaitTimesOutWithoutPublish) {
  ProgressSink sink;
  EXPECT_EQ(sink.WaitVersionAbove(0, 10), 0u);
  EXPECT_EQ(sink.WaitVersionAbove(0, 0), 0u);  // wait_ms <= 0: immediate
}

TEST(ProgressSink, CloseWakesWaitersAndDropsLatePublishes) {
  auto queries = SmallLog();
  DiffTree tree = *BuildInitialTree(queries);
  ProgressSink sink;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.Close();
  });
  EXPECT_EQ(sink.WaitVersionAbove(0, 5000), 0u);
  closer.join();
  EXPECT_TRUE(sink.closed());
  sink.Publish(tree, 1.0, 1, 1);  // late straggler: ignored
  EXPECT_EQ(sink.version(), 0u);
}

TEST(ProgressSink, HistoryIsBoundedButVersionsKeepIncreasing) {
  auto queries = SmallLog();
  DiffTree tree = *BuildInitialTree(queries);
  ProgressSink sink;
  const size_t total = ProgressSink::kMaxHistory + 32;
  for (size_t i = 0; i < total; ++i) {
    sink.Publish(tree, static_cast<double>(total - i), i, static_cast<int64_t>(i));
  }
  EXPECT_EQ(sink.version(), total);
  auto events = sink.EventsAfter(0);
  EXPECT_EQ(events.size(), ProgressSink::kMaxHistory);
  // Oldest events fell out; what remains is the most recent window with
  // strictly increasing versions ending at the latest.
  EXPECT_EQ(events.front().version, total - ProgressSink::kMaxHistory + 1);
  EXPECT_EQ(events.back().version, total);
  EXPECT_TRUE(sink.EventsAfter(total).empty());
}

// ------------------------------------------------------- TimeManager units

TEST(TimeManager, SearchSliceReservesFinalPhaseHeadroom) {
  TimeControlOptions tc;
  EXPECT_EQ(tc.SearchSliceMs(), 0) << "no deadline: no slice";
  tc.deadline_ms = 100;
  tc.final_phase_fraction = 0.15;
  EXPECT_EQ(tc.SearchSliceMs(), 85);
  tc.final_phase_fraction = 0.0;
  EXPECT_EQ(tc.SearchSliceMs(), 100);
  tc.deadline_ms = 1;
  tc.final_phase_fraction = 0.9;
  EXPECT_GE(tc.SearchSliceMs(), 1) << "slice never rounds down to zero";
}

TEST(TimeManager, EffectiveBudgetIsIdentityWithTimeControlOff) {
  TimeControlOptions off;
  EXPECT_EQ(EffectiveSearchBudgetMs(0, off), 0);
  EXPECT_EQ(EffectiveSearchBudgetMs(250, off), 250);

  TimeControlOptions tc;
  tc.deadline_ms = 100;  // slice 85 with the default 0.15 headroom
  EXPECT_EQ(EffectiveSearchBudgetMs(0, tc), 85) << "deadline alone binds";
  EXPECT_EQ(EffectiveSearchBudgetMs(40, tc), 40) << "tighter budget wins";
  EXPECT_EQ(EffectiveSearchBudgetMs(500, tc), 85) << "tighter deadline wins";
}

TEST(TimeManager, DeadlineLatchesAtSliceNotAtFullDeadline) {
  TimeControlOptions tc;
  tc.deadline_ms = 100;
  tc.final_phase_fraction = 0.15;  // slice = 85
  StopHandle stop;
  TimeManager tm(tc, 0, &stop);
  EXPECT_EQ(tm.Update(16, 84, 10.0), StopReason::kNone);
  EXPECT_FALSE(stop.stop_requested());
  EXPECT_EQ(tm.Update(16, 85, 10.0), StopReason::kDeadline);
  EXPECT_TRUE(stop.stop_requested());
  EXPECT_EQ(stop.reason(), StopReason::kDeadline);
  // Latched: later updates cannot change the reason.
  EXPECT_EQ(tm.Update(16, 300, 0.001), StopReason::kDeadline);
}

TEST(TimeManager, TargetCostStops) {
  TimeControlOptions tc;
  tc.target_cost = 5.0;
  StopHandle stop;
  TimeManager tm(tc, 0, &stop);
  EXPECT_EQ(tm.Update(8, 1, 9.0), StopReason::kNone);
  EXPECT_EQ(tm.Update(8, 2, 5.0), StopReason::kTargetCost);
  EXPECT_TRUE(stop.stop_requested());
}

TEST(TimeManager, PlateauFiresIffNoImprovementWindow) {
  TimeControlOptions tc;
  tc.plateau_fraction = 0.5;
  tc.plateau_min_ms = 50;
  StopHandle stop;
  TimeManager tm(tc, 0, &stop);
  // Steady improvement: never fires, no matter how long.
  double cost = 100.0;
  for (int64_t ms = 10; ms <= 400; ms += 10) {
    cost -= 1.0;
    ASSERT_EQ(tm.Update(16, ms, cost), StopReason::kNone) << "at " << ms;
  }
  // Improvement stops at 400ms. Window = max(50, 0.5 * elapsed). At 500ms
  // the stall is 100ms < 250; at 810ms the stall is 410 >= 405 — fires.
  EXPECT_EQ(tm.Update(16, 500, cost), StopReason::kNone);
  EXPECT_EQ(tm.Update(16, 790, cost), StopReason::kNone);
  EXPECT_EQ(tm.Update(16, 810, cost), StopReason::kPlateau);
}

TEST(TimeManager, PlateauMinWindowBlocksInstantStops) {
  TimeControlOptions tc;
  tc.plateau_fraction = 0.9;
  tc.plateau_min_ms = 50;
  StopHandle stop;
  TimeManager tm(tc, 0, &stop);
  // 10ms in with no improvement yet: 10 < max(50, 9) — must not fire.
  EXPECT_EQ(tm.Update(16, 10, 100.0), StopReason::kNone);
}

TEST(TimeManager, IterationBudgetMonotoneNonIncreasing) {
  TimeControlOptions tc;
  tc.deadline_ms = 200;  // slice 170
  StopHandle stop;
  TimeManager tm(tc, 0, &stop);
  tm.Update(100, 50, 10.0);  // observed rate: 2 iterations/ms
  size_t prev = std::numeric_limits<size_t>::max();
  for (int64_t ms = 50; ms <= 200; ms += 10) {
    const size_t budget = tm.IterationBudget(ms);
    EXPECT_LE(budget, prev) << "budget must not grow as time passes (ms=" << ms
                            << ")";
    prev = budget;
  }
  EXPECT_EQ(tm.IterationBudget(170), 0u) << "slice spent: zero budget";

  TimeControlOptions off;
  StopHandle stop2;
  TimeManager unlimited(off, 0, &stop2);
  EXPECT_EQ(unlimited.IterationBudget(1000), std::numeric_limits<size_t>::max());
}

/// Deadline overshoot is bounded in *iterations*, not wall-clock: a hot loop
/// that consults the manager every check_interval iterations runs at most
/// check_interval further iterations past the crossing point. Simulated
/// loop with injected elapsed time — no sleeps, no timing flake.
TEST(TimeManager, DeadlineOvershootBoundedInIterations) {
  TimeControlOptions tc;
  tc.deadline_ms = 100;
  tc.final_phase_fraction = 0.0;  // slice = 100
  tc.check_interval = 16;
  StopHandle stop;
  TimeManager tm(tc, 0, &stop);

  // 1 iteration == 1 ms; the deadline crosses at iteration 100.
  const size_t crossing = 100;
  size_t iterations = 0;
  uint32_t since_check = 0;
  while (iterations < 10000) {
    if (stop.stop_requested()) break;
    ++iterations;
    if (++since_check >= tc.check_interval) {
      tm.Update(since_check, static_cast<int64_t>(iterations), 42.0);
      since_check = 0;
    }
  }
  EXPECT_GE(iterations, crossing);
  EXPECT_LE(iterations, crossing + tc.check_interval)
      << "overshoot must be bounded by one check interval";
  EXPECT_EQ(tm.reason(), StopReason::kDeadline);
}

TEST(TimeManager, StopHandleFirstReasonWins) {
  StopHandle stop;
  stop.RequestStop(StopReason::kCancelled);
  stop.RequestStop(StopReason::kDeadline);
  EXPECT_TRUE(stop.stop_requested());
  EXPECT_EQ(stop.reason(), StopReason::kCancelled);
}

TEST(TimeManager, ResolveStopReasonPrecedence) {
  TimeControlOptions off;
  // Latched handle wins over everything.
  StopHandle cancelled;
  cancelled.RequestStop(StopReason::kCancelled);
  EXPECT_EQ(ResolveStopReason(&cancelled, true, 100, off, 50, 50),
            StopReason::kCancelled);
  // Expired deadline with no time control: the plain budget.
  EXPECT_EQ(ResolveStopReason(nullptr, true, 100, off, 10, 50),
            StopReason::kBudget);
  // Expired deadline where the deadline slice was the binding bound.
  TimeControlOptions tc;
  tc.deadline_ms = 50;
  EXPECT_EQ(ResolveStopReason(nullptr, true, 0, tc, 10, 50),
            StopReason::kDeadline);
  // Iteration cap.
  EXPECT_EQ(ResolveStopReason(nullptr, false, 0, off, 50, 50),
            StopReason::kIterations);
  // Nothing bound: the loop ran out of work.
  EXPECT_EQ(ResolveStopReason(nullptr, false, 0, off, 10, 50),
            StopReason::kExhausted);
}

/// Property fuzz: for any random (deadline, target_cost, plateau) config, a
/// simulated search loop always terminates with a definite stop reason and
/// never exceeds the hard iteration cap.
TEST(TimeManager, PropertyFuzzAlwaysTerminatesWithReason) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int64_t> deadline_dist(0, 200);
  std::uniform_real_distribution<double> target_dist(0.0, 2.0);
  std::uniform_real_distribution<double> plateau_dist(0.0, 1.0);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    TimeControlOptions tc;
    if (coin(rng)) tc.deadline_ms = deadline_dist(rng);
    if (coin(rng)) tc.target_cost = target_dist(rng);
    if (coin(rng)) tc.plateau_fraction = plateau_dist(rng);
    tc.plateau_min_ms = 10;
    tc.check_interval = 1 + static_cast<uint32_t>(rng() % 32);

    const size_t hard_cap = 64 + rng() % 512;
    StopHandle stop;
    TimeManager tm(tc, hard_cap, &stop);

    // Cost decays toward zero with random plateaus; 1 iteration == 1 ms.
    double cost = 10.0;
    size_t iterations = 0;
    uint32_t since_check = 0;
    bool deadline_expired = false;
    const int64_t effective = EffectiveSearchBudgetMs(0, tc);
    while (iterations < hard_cap) {
      if (stop.stop_requested()) break;
      ++iterations;
      if (coin(rng)) cost *= 0.95;  // improvement ~half the time
      const auto elapsed = static_cast<int64_t>(iterations);
      if (effective > 0 && elapsed >= effective) {
        deadline_expired = true;
        break;
      }
      if (++since_check >= tc.check_interval) {
        tm.Update(since_check, elapsed, cost);
        since_check = 0;
      }
    }
    EXPECT_LE(iterations, hard_cap);
    const StopReason reason = ResolveStopReason(
        &stop, deadline_expired, 0, tc, iterations, hard_cap);
    EXPECT_NE(reason, StopReason::kNone)
        << "every terminated loop must report why it stopped";
    EXPECT_NE(reason, StopReason::kExhausted)
        << "nothing was exhausted in this simulation";
    EXPECT_FALSE(StopReasonName(reason).empty());
  }
}

// ------------------------------------------------- service-level streaming

JobSpec StreamingJob(uint64_t seed, size_t max_iterations,
                     int64_t time_budget_ms) {
  JobSpec spec;
  spec.sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
      "select a from t where y between 0 and 4",
  };
  spec.options.screen = {80, 24};
  spec.options.search.time_budget_ms = time_budget_ms;
  spec.options.search.max_iterations = max_iterations;
  spec.options.search.seed = seed;
  return spec;
}

TEST(StreamingService, DeadlineJobReturnsValidInterfaceAtDeadline) {
  auto bundle = LoadWorkload("flights");
  ASSERT_TRUE(bundle.ok());
  JobSpec spec;
  spec.sqls.assign(bundle->log.begin(),
                   bundle->log.begin() + std::min<size_t>(6, bundle->log.size()));
  spec.options.screen = {80, 24};
  spec.options.search.time_budget_ms = 0;
  spec.options.search.max_iterations = 0;  // the deadline is the only bound
  spec.options.search.seed = 7;
  spec.options.search.time_control.deadline_ms = 50;

  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  auto id = service.SubmitJob(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kDone);
  ASSERT_NE(info->result, nullptr);
  EXPECT_TRUE(std::isfinite(info->result->cost.total()));
  // The search phase stops at the deadline slice (or exhausts the space
  // first on a small log); it must not run long past it.
  EXPECT_TRUE(info->result->stats.stop_reason == StopReason::kDeadline ||
              info->result->stats.stop_reason == StopReason::kExhausted)
      << StopReasonName(info->result->stats.stop_reason);
  EXPECT_LT(info->run_ms, 5000) << "50ms deadline must not run for seconds";
}

TEST(StreamingService, ProgressVersionsStrictlyIncreaseToTerminal) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  auto id = service.SubmitJob(StreamingJob(3, 300, 0));
  ASSERT_TRUE(id.ok());

  uint64_t last_seen = 0;
  double last_cost = std::numeric_limits<double>::infinity();
  int frames = 0;
  while (true) {
    auto p = service.GetJobProgress(*id, last_seen, 2000);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    if (p->version > last_seen) {
      EXPECT_GT(p->version, last_seen) << "versions strictly increase";
      EXPECT_LT(p->best_cost, last_cost) << "best cost strictly improves";
      ASSERT_NE(p->best_tree, nullptr);
      last_seen = p->version;
      last_cost = p->best_cost;
      ++frames;
    }
    if (p->terminal) break;
  }
  EXPECT_GE(frames, 1) << "at least the first best-so-far must be published";

  // Terminal frame agrees with the job result.
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kDone);
  ASSERT_NE(info->result, nullptr);
  EXPECT_EQ(info->result->cost.total(), last_cost)
      << "final published cost must equal the finished result's";
}

TEST(StreamingService, ProgressForUnknownJobIsNotFound) {
  GenerationService service(GenerationService::Options{});
  auto p = service.GetJobProgress(999, 0, 0);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
}

TEST(StreamingService, CancelRunningJobYieldsPartialResult) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  // Effectively unbounded iterations; the 10s budget is only a backstop so
  // a broken cancel path fails the test instead of hanging it.
  auto id = service.SubmitJob(StreamingJob(5, 100000000, 10000));
  ASSERT_TRUE(id.ok());

  // Wait until the job is demonstrably mid-run: at least one best-so-far
  // has been published.
  auto p = service.GetJobProgress(*id, 0, 5000);
  ASSERT_TRUE(p.ok());
  ASSERT_GE(p->version, 1u) << "job never started improving";

  auto cancel = service.CancelJob(*id);
  ASSERT_TRUE(cancel.ok());
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_EQ(info->error.code(), StatusCode::kCancelled);
  // Best-so-far partial must ride along.
  ASSERT_NE(info->result, nullptr);
  EXPECT_TRUE(std::isfinite(info->result->cost.total()));
  EXPECT_EQ(info->result->stats.stop_reason, StopReason::kCancelled);

  // The progress stream is closed with a terminal frame.
  auto final_p = service.GetJobProgress(*id, 0, 0);
  ASSERT_TRUE(final_p.ok());
  EXPECT_TRUE(final_p->terminal);
  EXPECT_EQ(final_p->state, JobState::kCancelled);
}

TEST(StreamingService, CancelledJobSkipsResultCache) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  JobSpec spec = StreamingJob(6, 100000000, 10000);
  auto id = service.SubmitJob(spec);
  ASSERT_TRUE(id.ok());
  auto p = service.GetJobProgress(*id, 0, 5000);
  ASSERT_TRUE(p.ok());
  ASSERT_GE(p->version, 1u);
  ASSERT_TRUE(service.CancelJob(*id).ok());
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kCancelled);

  // Resubmitting the identical spec must run fresh, not replay the
  // cancelled partial from the cache.
  JobSpec again = StreamingJob(6, 20, 0);
  auto id2 = service.SubmitJob(again);
  ASSERT_TRUE(id2.ok());
  auto info2 = service.WaitJob(*id2);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->state, JobState::kDone);
  EXPECT_FALSE(info2->cache_hit);
}

/// Concurrency smoke for TSan: progress pollers, a canceller, and the worker
/// all race on one job's sink/stop/record.
TEST(StreamingService, ConcurrentCancelAndProgressPolling) {
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto id = service.SubmitJob(StreamingJob(9, 100000000, 10000));
  ASSERT_TRUE(id.ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&, t] {
      uint64_t last_seen = 0;
      double last_cost = std::numeric_limits<double>::infinity();
      while (!done.load(std::memory_order_relaxed)) {
        auto p = service.GetJobProgress(*id, last_seen, 20);
        if (!p.ok()) break;
        if (p->version > last_seen) {
          // Each poller independently observes a strictly improving stream.
          EXPECT_LT(p->best_cost, last_cost) << "poller " << t;
          last_seen = p->version;
          last_cost = p->best_cost;
        }
        if (p->terminal) break;
      }
    });
  }
  std::thread canceller([&] {
    auto p = service.GetJobProgress(*id, 0, 5000);
    ASSERT_TRUE(p.ok());
    service.CancelJob(*id);
  });
  canceller.join();
  auto info = service.WaitJob(*id);
  done.store(true, std::memory_order_relaxed);
  for (auto& th : pollers) th.join();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->terminal());
}

}  // namespace
}  // namespace ifgen
