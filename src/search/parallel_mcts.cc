#include "search/parallel_mcts.h"

#include <unordered_map>

#include "runtime/thread_pool.h"
#include "search/priors.h"
#include "util/logging.h"

namespace ifgen {

namespace {
/// Lock stripes of the ensemble's shared transposition table.
constexpr size_t kTtShards = 16;
}  // namespace

Result<SearchResult> ParallelMctsSearcher::Run(const DiffTree& initial) {
  if (parallel_.num_threads <= 1) {
    // Serial fallback: the determinism contract ("num_threads=1 matches the
    // serial searcher bit-for-bit") is discharged by running it.
    MctsSearcher serial(rules_, evaluator_, opts_);
    return serial.Run(initial);
  }
  const size_t trees = parallel_.num_threads;
  Stopwatch watch;
  RunControl rc(opts_);
  Deadline& deadline = rc.deadline();
  TranspositionTable tt(kTtShards);
  SeedTranspositions(opts_.seed_bridge.get(), &tt);
  SharedBestTracker best;
  best.sink = opts_.progress.get();

  // One prior model for the whole ensemble: it is immutable after
  // construction, so all trees read it concurrently, and building it once
  // keeps every tree's priors (and hence their expansion order) coherent.
  std::unique_ptr<ActionPriorModel> priors;
  if (opts_.priors.use_priors) {
    priors = std::make_unique<ActionPriorModel>(*rules_, evaluator_->queries(),
                                                opts_.priors);
  }

  // One shared reward anchor: all trees normalize rewards identically (and
  // none re-evaluates the initial state — the evaluator memoizes it anyway,
  // but the anchor must not depend on which tree asks first).
  Rng anchor_rng(opts_.seed);
  SearchStats anchor_stats;
  const double c0_raw = evaluator_->SampleCost(initial, &anchor_rng);
  anchor_stats.initial_cost = c0_raw;
  best.Offer(initial, c0_raw, watch, 0, &anchor_stats);
  tt.StoreCost(initial.CanonicalHash(), c0_raw);

  // Split the iteration budget so total work matches a serial run with the
  // same cap; the wall-clock budget is shared (all trees race one deadline).
  SearchOptions tree_opts = opts_;
  if (opts_.max_iterations > 0) {
    tree_opts.max_iterations = (opts_.max_iterations + trees - 1) / trees;
  }

  const Rng seed_base(opts_.seed);
  std::vector<Rng> rngs;
  rngs.reserve(trees);
  for (size_t t = 0; t < trees; ++t) rngs.push_back(seed_base.Split(t));
  std::vector<SearchStats> tree_stats(trees);
  std::vector<std::vector<RootActionStat>> tree_actions(trees);

  ThreadPool pool(trees);
  {
    TaskGroup group(&pool);
    for (size_t t = 0; t < trees; ++t) {
      group.Run([&, t] {
        MctsTreeParams params;
        params.rules = rules_;
        params.evaluator = evaluator_;
        params.opts = tree_opts;
        params.rng = &rngs[t];
        params.watch = &watch;
        params.deadline = &deadline;
        params.tt = &tt;
        params.best = &best;
        params.stats = &tree_stats[t];
        params.priors = priors.get();
        params.anchor_cost = c0_raw;
        params.root_actions = &tree_actions[t];
        params.stop = rc.stop();
        params.timeman = rc.timeman();
        params.seed_bridge = opts_.seed_bridge.get();
        RunMctsTree(initial, params);
      });
    }
    group.Wait();
  }

  // Merge root actions across trees by canonical hash; rank by
  // visit-weighted mean reward.
  std::unordered_map<uint64_t, RootActionStat> merged;
  for (const auto& actions : tree_actions) {
    for (const RootActionStat& a : actions) {
      RootActionStat& m = merged[a.canonical];
      m.canonical = a.canonical;
      m.visits += a.visits;
      m.total_reward += a.total_reward;
    }
  }

  SearchResult result;
  result.best_tree = best.tree;
  result.best_cost = best.cost;
  result.stats = std::move(anchor_stats);
  for (const SearchStats& s : tree_stats) result.stats.Merge(s);
  result.stats.trees = trees;
  result.stats.transposition_hits = tt.transposition_hits();
  result.stats.elapsed_ms = watch.ElapsedMillis();
  result.stats.stop_reason = rc.Resolve(result.stats.iterations);
  result.root_actions.reserve(merged.size());
  for (const auto& [key, a] : merged) result.root_actions.push_back(a);
  HarvestSearch(initial, tt, result.stats.root_seeded, &result.root_actions,
                opts_.seed_bridge.get());
  return result;
}

}  // namespace ifgen
