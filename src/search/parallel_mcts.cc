#include "search/parallel_mcts.h"

#include <unordered_map>

#include "runtime/thread_pool.h"
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
  MctsSearch search(rules_, evaluator_, opts_, kTtShards);
  SearchRun& run = search.run;

  // Every tree's stream is split from the seed (Split consumes no draws).
  // The shared reward anchor is drawn once from the seed's own stream, so
  // it does not depend on which tree asks first.
  std::vector<Rng> rngs;
  rngs.reserve(trees);
  for (size_t t = 0; t < trees; ++t) rngs.push_back(run.rng.Split(t));
  search.tt.StoreCost(initial.CanonicalHash(), run.Start(initial, evaluator_));

  // Split the iteration budget so total work matches a serial run with the
  // same cap; the wall-clock budget is shared (all trees race one deadline).
  if (opts_.max_iterations > 0) {
    search.tree_opts.max_iterations = (opts_.max_iterations + trees - 1) / trees;
  }
  std::vector<SearchStats> tree_stats(trees);
  std::vector<std::vector<RootActionStat>> tree_actions(trees);

  ThreadPool pool(trees);
  {
    TaskGroup group(&pool);
    for (size_t t = 0; t < trees; ++t) {
      group.Run([&, t] {
        RunMctsTree(initial, &search, &rngs[t], &tree_stats[t], &tree_actions[t]);
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

  for (const SearchStats& s : tree_stats) run.stats.Merge(s);
  run.stats.trees = trees;
  run.stats.transposition_hits = search.tt.transposition_hits();
  SearchResult result = run.Finish();
  result.root_actions.reserve(merged.size());
  for (const auto& [key, a] : merged) result.root_actions.push_back(a);
  HarvestSearch(initial, search.tt, result.stats.root_seeded, &result.root_actions,
                opts_.seed_bridge.get());
  return result;
}

}  // namespace ifgen
