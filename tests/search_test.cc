#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/interface_generator.h"
#include "difftree/builder.h"
#include "difftree/match.h"
#include "search/baselines.h"
#include "search/mcts.h"
#include "search/parallel_mcts.h"
#include "sql/parser.h"
#include "workload/flights.h"
#include "workload/sdss.h"

namespace ifgen {
namespace {

std::vector<Ast> SmallLog() {
  return *ParseQueries(std::vector<std::string>{
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
  });
}

SearchOptions FastOptions(size_t iterations) {
  SearchOptions o;
  o.time_budget_ms = 0;  // iteration-capped: deterministic
  o.max_iterations = iterations;
  o.seed = 17;
  return o;
}

TEST(Mcts, ImprovesOverInitialState) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(40));
  DiffTree initial = *BuildInitialTree(queries);
  auto r = mcts.Run(initial);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->best_cost, r->stats.initial_cost);
  EXPECT_TRUE(ExpressesAll(r->best_tree, queries));
}

TEST(Mcts, DeterministicGivenSeed) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  auto run = [&]() {
    StateEvaluator eval(eopts, queries);
    MctsSearcher mcts(&rules, &eval, FastOptions(25));
    return *mcts.Run(*BuildInitialTree(queries));
  };
  SearchResult a = run();
  SearchResult b = run();
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_tree, b.best_tree);
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded);
}

TEST(Mcts, TracksAnytimeTrace) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(40));
  auto r = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->stats.trace.empty());
  // Trace costs are strictly decreasing.
  for (size_t i = 1; i < r->stats.trace.size(); ++i) {
    EXPECT_LT(r->stats.trace[i].cost, r->stats.trace[i - 1].cost);
  }
}

TEST(Mcts, RecordsFanoutStats) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(20));
  auto r = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.fanout_samples, 0u);
  EXPECT_GT(r->stats.fanout_max, 0u);
  EXPECT_GT(r->stats.MeanFanout(), 0.0);
}

TEST(RandomSearch, AlsoImprovesButTracksBest) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  RandomSearcher random(&rules, &eval, FastOptions(30));
  auto r = random.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->best_cost, r->stats.initial_cost);
  EXPECT_TRUE(ExpressesAll(r->best_tree, queries));
}

TEST(Greedy, NeverReturnsWorseThanInitial) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  GreedySearcher greedy(&rules, &eval, FastOptions(20));
  auto r = greedy.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->best_cost, r->stats.initial_cost);
}

TEST(Greedy, OneClimbEndsExhaustedWithinTheDefaultBudget) {
  // GenerateInterface memoizes sampled costs, so a restart could only
  // replay the first climb from the cache: the climb's end is the run's.
  GeneratorOptions opt;
  opt.algorithm = Algorithm::kGreedy;
  ASSERT_GT(opt.search.time_budget_ms, 0);
  auto r = GenerateInterface(FlightsLog(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.stop_reason, StopReason::kExhausted);
  EXPECT_LT(r->stats.iterations, 50u);
  ASSERT_FALSE(r->stats.trace.empty());
  EXPECT_EQ(r->stats.trace.back().cost, 10.960000000000001);
  EXPECT_EQ(r->difftree.CanonicalHash(), 1410971166581743438ull);
}

TEST(Beam, ExploresDistinctStates) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  SearchOptions o = FastOptions(6);
  o.beam_width = 4;
  BeamSearcher beam(&rules, &eval, o);
  auto r = beam.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.states_expanded, 4u);
  EXPECT_LE(r->best_cost, r->stats.initial_cost);
}

TEST(Exhaustive, FindsOptimumOnTinyInput) {
  auto queries = *ParseQueries(
      std::vector<std::string>{"select a from t", "select b from t"});
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  eopts.k_assignments = 12;
  StateEvaluator eval(eopts, queries);
  SearchOptions o;
  o.time_budget_ms = 0;
  o.exhaustive_max_depth = 5;
  o.exhaustive_max_states = 3000;
  ExhaustiveSearcher ex(&rules, &eval, o);
  auto r = ex.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ex.complete());

  // MCTS with the same evaluator should reach the same optimum on this
  // trivially small space.
  StateEvaluator eval2(eopts, queries);
  MctsSearcher mcts(&rules, &eval2, FastOptions(60));
  auto m = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->best_cost, r->best_cost, 1e-9);
}

TEST(Exhaustive, TranspositionsDetected) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  SearchOptions o;
  o.time_budget_ms = 0;
  o.exhaustive_max_depth = 3;
  o.exhaustive_max_states = 500;
  ExhaustiveSearcher ex(&rules, &eval, o);
  auto r = ex.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  // Rule applications commute often; revisits must be recognized.
  EXPECT_GT(r->stats.transposition_hits, 0u);
}

TEST(GenerateInterface, EndToEndMcts) {
  GeneratorOptions opt;
  opt.screen = {80, 24};
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 30;
  auto r = GenerateInterface(
      {"select Sales from sales where cty = 'USA'",
       "select Costs from sales where cty = 'EUR'", "select Costs from sales"},
      opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cost.valid);
  EXPECT_GE(r->coverage, 3.0);
  EXPECT_GE(r->widgets.CountInteractive(), 1u);
  // Every input query must be expressible by the output difftree.
  auto queries = *ParseQueries(std::vector<std::string>{
      "select Sales from sales where cty = 'USA'",
      "select Costs from sales where cty = 'EUR'", "select Costs from sales"});
  EXPECT_TRUE(ExpressesAll(r->difftree, queries));
}

TEST(GenerateInterface, AllAlgorithmsRun) {
  GeneratorOptions opt;
  opt.screen = {80, 24};
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 8;
  opt.search.exhaustive_max_states = 200;
  for (Algorithm a :
       {Algorithm::kMcts, Algorithm::kRandom, Algorithm::kGreedy, Algorithm::kBeam,
        Algorithm::kExhaustive, Algorithm::kBottomUp}) {
    opt.algorithm = a;
    auto r = GenerateInterface({"select a from t", "select b from t"}, opt);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": " << r.status().ToString();
    EXPECT_TRUE(r->cost.valid) << AlgorithmName(a);
  }
}

TEST(GenerateInterface, RejectsEmptyLog) {
  EXPECT_FALSE(GenerateInterface({}, {}).ok());
}

TEST(GenerateInterface, PriorAblationFlagsSelectTheUniformSearch) {
  // Both the prior-guided default and the paper's uniform ablation must
  // produce valid interfaces over the same log (costs may differ — that
  // delta is what bench_ablation measures).
  std::vector<std::string> sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9"};
  for (bool use_priors : {true, false}) {
    GeneratorOptions opt;
    opt.screen = {80, 24};
    opt.search.time_budget_ms = 0;
    opt.search.max_iterations = 20;
    opt.search.priors.use_priors = use_priors;
    opt.search.priors.progressive_widening = use_priors;
    auto r = GenerateInterface(sqls, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->cost.valid);
  }
}

TEST(GenerateInterface, ScreenSensitivity) {
  // The narrow screen must still produce a valid interface, and it must fit.
  GeneratorOptions opt;
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 25;
  opt.screen = {30, 10};
  auto r = GenerateInterface(SdssQueries6To8(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->cost.valid) << r->cost.invalid_reason;
  EXPECT_LE(r->cost.layout_width, 30);
  EXPECT_LE(r->cost.layout_height, 10);
}

/// One searcher run's observable outcome at a fixed seed and iteration cap.
struct PinnedRun {
  std::string run;
  double best_cost = 0.0;
  uint64_t best_hash = 0;
  size_t iterations = 0;
  size_t states_expanded = 0;
  size_t rollouts = 0;
  size_t rollout_steps = 0;
  size_t transposition_hits = 0;
  std::string stop_reason;
  size_t trace = 0;

  bool operator==(const PinnedRun& o) const {
    return run == o.run && best_cost == o.best_cost && best_hash == o.best_hash &&
           iterations == o.iterations && states_expanded == o.states_expanded &&
           rollouts == o.rollouts && rollout_steps == o.rollout_steps &&
           transposition_hits == o.transposition_hits &&
           stop_reason == o.stop_reason && trace == o.trace;
  }
};

/// The pin in the table's row syntax, for failure messages.
std::string PinRow(const PinnedRun& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %.17g, %lluull, %zu, %zu, %zu, %zu, %zu, \"%s\", %zu},",
                p.run.c_str(), p.best_cost, static_cast<unsigned long long>(p.best_hash),
                p.iterations, p.states_expanded, p.rollouts, p.rollout_steps,
                p.transposition_hits, p.stop_reason.c_str(), p.trace);
  return buf;
}

using MakeFn = std::unique_ptr<Searcher> (*)(const RuleEngine*, StateEvaluator*,
                                             const SearchOptions&);

template <typename S>
std::unique_ptr<Searcher> Make(const RuleEngine* rules, StateEvaluator* eval,
                               const SearchOptions& o) {
  return std::make_unique<S>(rules, eval, o);
}

std::unique_ptr<Searcher> MakeParallelOneThread(const RuleEngine* rules,
                                                StateEvaluator* eval,
                                                const SearchOptions& o) {
  return std::make_unique<ParallelMctsSearcher>(rules, eval, o, ParallelOptions{1});
}

/// Runs every searcher once over `queries`, each with a fresh evaluator,
/// and records what it found and how much work it did. Greedy keeps only
/// its best cost and hash. The two target runs stop at a cost they reach.
std::vector<PinnedRun> RunEverySearcher(const std::string& log,
                                        const std::vector<Ast>& queries,
                                        double mcts_target, double random_target) {
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  const DiffTree initial = *BuildInitialTree(queries);
  std::vector<PinnedRun> out;
  auto run = [&](const std::string& name, const SearchOptions& o, MakeFn make) {
    StateEvaluator eval(eopts, queries);
    std::unique_ptr<Searcher> searcher = make(&rules, &eval, o);
    auto r = searcher->Run(initial);
    ASSERT_TRUE(r.ok()) << name;
    PinnedRun p;
    p.run = log + "/" + name;
    p.best_cost = r->best_cost;
    p.best_hash = r->best_tree.CanonicalHash();
    if (name != "greedy") {
      p.iterations = r->stats.iterations;
      p.states_expanded = r->stats.states_expanded;
      p.rollouts = r->stats.rollouts;
      p.rollout_steps = r->stats.rollout_steps;
      p.transposition_hits = r->stats.transposition_hits;
      p.stop_reason = std::string(StopReasonName(r->stats.stop_reason));
      p.trace = r->stats.trace.size();
    }
    out.push_back(p);
  };
  SearchOptions o = FastOptions(12);
  o.beam_width = 4;
  o.exhaustive_max_depth = 3;
  o.exhaustive_max_states = 120;
  run("mcts", o, Make<MctsSearcher>);
  run("mcts-parallel-1", o, MakeParallelOneThread);
  run("random", o, Make<RandomSearcher>);
  run("beam", FastOptions(3), Make<BeamSearcher>);
  run("exhaustive", o, Make<ExhaustiveSearcher>);
  run("greedy", FastOptions(40), Make<GreedySearcher>);
  // A reached target stops the run at the first time-manager check after
  // it: MCTS counts that iteration and stops before its work, random search
  // still does it.
  SearchOptions t = FastOptions(200);
  t.time_control.check_interval = 4;
  t.time_control.target_cost = mcts_target;
  run("mcts-target", t, Make<MctsSearcher>);
  t.time_control.target_cost = random_target;
  run("random-target", t, Make<RandomSearcher>);
  return out;
}

TEST(SearchGolden, EverySearcherPinnedAtFixedSeed) {
  // Taken from the searchers before they shared the SearchRun scaffold. A
  // changed row means a searcher's result at a fixed seed changed.
  const std::vector<PinnedRun> pinned = {
      {"small/mcts", 3.9300000000000002, 9577042236904882045ull, 12, 40, 40, 1153, 27, "iterations", 4},
      {"small/mcts-parallel-1", 3.9300000000000002, 9577042236904882045ull, 12, 40, 40, 1153, 27, "iterations", 4},
      {"small/random", 4.9299999999999997, 127588550324695204ull, 12, 0, 12, 245, 0, "iterations", 3},
      {"small/beam", 5.2666666666666666, 18083066846476447335ull, 3, 23, 0, 0, 7, "iterations", 3},
      {"small/exhaustive", 5.2666666666666666, 18083066846476447335ull, 24, 23, 0, 0, 7, "iterations", 3},
      {"small/greedy", 5.2666666666666666, 18083066846476447335ull, 0, 0, 0, 0, 0, "", 0},
      {"small/mcts-target", 3.9300000000000002, 9577042236904882045ull, 4, 8, 8, 453, 2, "target_cost", 4},
      {"small/random-target", 4.9299999999999997, 127588550324695204ull, 16, 0, 16, 289, 0, "target_cost", 3},
      {"sdss/mcts", 21.410000000000004, 17351170568190276283ull, 12, 47, 47, 1220, 8, "iterations", 4},
      {"sdss/mcts-parallel-1", 21.410000000000004, 17351170568190276283ull, 12, 47, 47, 1220, 8, "iterations", 4},
      {"sdss/random", 26.68, 12169011795708081311ull, 12, 0, 12, 301, 0, "iterations", 1},
      {"sdss/beam", 26.68, 12169011795708081311ull, 3, 51, 0, 0, 14, "iterations", 1},
      {"sdss/exhaustive", 26.68, 12169011795708081311ull, 111, 110, 0, 0, 18, "iterations", 1},
      {"sdss/greedy", 26.68, 12169011795708081311ull, 0, 0, 0, 0, 0, "", 0},
      {"sdss/mcts-target", 21.410000000000004, 17351170568190276283ull, 12, 42, 42, 1096, 5, "target_cost", 4},
      {"sdss/random-target", 23.850000000000001, 13200873405317809854ull, 56, 0, 56, 1401, 0, "target_cost", 2},
  };
  std::vector<PinnedRun> actual = RunEverySearcher("small", SmallLog(), 4.0, 4.95);
  for (const PinnedRun& p :
       RunEverySearcher("sdss", *ParseQueries(SdssListing1()), 21.5, 23.9)) {
    actual.push_back(p);
  }
  std::string rows;
  for (const PinnedRun& p : actual) rows += PinRow(p) + "\n";
  EXPECT_EQ(actual.size(), pinned.size()) << rows;
  for (size_t i = 0; i < std::min(actual.size(), pinned.size()); ++i) {
    EXPECT_TRUE(actual[i] == pinned[i]) << "got " << PinRow(actual[i]) << "\npinned "
                                        << PinRow(pinned[i]);
  }
}

}  // namespace
}  // namespace ifgen
