#include "search/baselines.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace ifgen {

Result<SearchResult> RandomSearcher::Run(const DiffTree& initial) {
  SearchRun run(opts_);
  run.Start(initial, evaluator_);
  SearchLoop loop(&run, &run.stats, opts_.max_iterations);
  // Same rollout machinery as MCTS (including intermediate-state
  // evaluation) so the comparison isolates the tree policy.
  const RolloutContext rollout{rules_, evaluator_, &opts_};
  while (!loop.Done()) {
    loop.Count();
    DiffTree rollout_best;
    double cost =
        RolloutAndEvaluateState(rollout, initial, &run.rng, &run.stats, &rollout_best);
    loop.Offer(rollout_best, cost);
  }
  return run.Finish();
}

Result<SearchResult> GreedySearcher::Run(const DiffTree& initial) {
  SearchRun run(opts_);
  DiffTree current = initial;
  double current_cost = run.Start(initial, evaluator_);
  SearchLoop loop(&run, &run.stats, opts_.max_iterations);
  // One climb. With the evaluator's cost memo on, a restart would replay
  // this climb from the cache without a single RNG draw, so it could find
  // nothing new.
  bool improved = true;
  while (improved && !loop.Done()) {
    loop.Count();
    improved = false;
    std::vector<RuleApplication> apps = rules_->EnumerateApplications(current);
    run.stats.RecordFanout(apps.size());
    DiffTree best_next;
    double best_next_cost = current_cost;
    for (const RuleApplication& app : apps) {
      auto next = rules_->Apply(current, app);
      if (!next.ok()) continue;
      ++run.stats.states_expanded;
      double cost = evaluator_->SampleCost(*next, &run.rng);
      loop.Offer(*next, cost);
      if (cost < best_next_cost) {
        best_next_cost = cost;
        best_next = std::move(next).MoveValueUnsafe();
      }
      if (run.deadline.Expired()) break;
    }
    if (best_next_cost < current_cost) {
      current = std::move(best_next);
      current_cost = best_next_cost;
      improved = true;
    }
  }
  return run.Finish();
}

Result<SearchResult> BeamSearcher::Run(const DiffTree& initial) {
  SearchRun run(opts_);
  struct Scored {
    DiffTree tree;
    double cost;
  };
  std::vector<Scored> beam;
  beam.push_back({initial, run.Start(initial, evaluator_)});
  std::unordered_set<uint64_t> seen{initial.CanonicalHash()};
  SearchLoop loop(&run, &run.stats, opts_.max_iterations);

  while (!beam.empty() && !loop.Done()) {
    loop.Count();
    std::vector<Scored> next_level;
    for (const Scored& s : beam) {
      std::vector<RuleApplication> apps = rules_->EnumerateApplications(s.tree);
      run.stats.RecordFanout(apps.size());
      for (const RuleApplication& app : apps) {
        auto next = rules_->Apply(s.tree, app);
        if (!next.ok()) continue;
        uint64_t h = next->CanonicalHash();
        if (!seen.insert(h).second) {
          ++run.stats.transposition_hits;
          continue;
        }
        ++run.stats.states_expanded;
        double cost = evaluator_->SampleCost(*next, &run.rng);
        loop.Offer(*next, cost);
        next_level.push_back({std::move(next).MoveValueUnsafe(), cost});
        if (run.deadline.Expired()) break;
      }
      if (run.deadline.Expired()) break;
    }
    std::sort(next_level.begin(), next_level.end(),
              [](const Scored& a, const Scored& b) { return a.cost < b.cost; });
    if (next_level.size() > opts_.beam_width) next_level.resize(opts_.beam_width);
    beam = std::move(next_level);
  }
  return run.Finish();
}

Result<SearchResult> ExhaustiveSearcher::Run(const DiffTree& initial) {
  SearchRun run(opts_);
  run.Start(initial, evaluator_);
  struct Item {
    DiffTree tree;
    size_t depth;
  };
  std::deque<Item> queue;
  queue.push_back({initial, 0});
  std::unordered_set<uint64_t> seen{initial.CanonicalHash()};
  visited_states_ = 1;
  complete_ = true;
  // Bounded by exhaustive_max_states, not by the iteration cap.
  SearchLoop loop(&run, &run.stats, 0);

  while (!queue.empty()) {
    if (loop.Done() || visited_states_ >= opts_.exhaustive_max_states) {
      complete_ = false;
      break;
    }
    Item item = std::move(queue.front());
    queue.pop_front();
    loop.Count();
    if (item.depth >= opts_.exhaustive_max_depth) {
      complete_ = false;  // frontier truncated by the depth bound
      continue;
    }
    std::vector<RuleApplication> apps = rules_->EnumerateApplications(item.tree);
    run.stats.RecordFanout(apps.size());
    for (const RuleApplication& app : apps) {
      auto next = rules_->Apply(item.tree, app);
      if (!next.ok()) continue;
      uint64_t h = next->CanonicalHash();
      if (!seen.insert(h).second) {
        ++run.stats.transposition_hits;
        continue;
      }
      ++run.stats.states_expanded;
      ++visited_states_;
      double cost = evaluator_->SampleCost(*next, &run.rng);
      loop.Offer(*next, cost);
      queue.push_back({std::move(next).MoveValueUnsafe(), item.depth + 1});
      if (visited_states_ >= opts_.exhaustive_max_states) break;
    }
  }
  return run.Finish();
}

}  // namespace ifgen
