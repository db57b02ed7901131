#pragma once

#include "core/options.h"
#include "search/mcts.h"

namespace ifgen {

/// \brief Root-parallel MCTS over difftree states.
///
/// One independent search tree per thread, each on its own RNG stream split
/// from the seed. The trees share the sharded transposition table (so a
/// state expanded by one tree is a recognized transposition in all others
/// and its sampled cost is reused) and the global best tracker (the anytime
/// result). The iteration budget is divided across trees; after the run the
/// per-tree root actions are merged by canonical hash and ranked by
/// visit-weighted mean reward (`SearchResult::root_actions`).
///
/// Determinism: with `num_threads <= 1` this delegates to the serial
/// MctsSearcher — results are bit-for-bit identical for a fixed seed (the
/// contract tests assert it).
class ParallelMctsSearcher final : public Searcher {
 public:
  ParallelMctsSearcher(const RuleEngine* rules, StateEvaluator* evaluator,
                       SearchOptions opts, ParallelOptions parallel)
      : Searcher(rules, evaluator, opts), parallel_(parallel) {}

  std::string_view name() const override { return "mcts-parallel"; }
  Result<SearchResult> Run(const DiffTree& initial) override;

  const ParallelOptions& parallel_options() const { return parallel_; }

 private:
  ParallelOptions parallel_;
};

}  // namespace ifgen
