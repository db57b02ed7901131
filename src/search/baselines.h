#pragma once

#include "search/search_common.h"

namespace ifgen {

/// \brief Pure random restarts: repeated random walks from the initial
/// state, evaluating each terminus. The paper's Figure 6(d) "low reward"
/// interface is what this typically produces — it shares MCTS's move set
/// and evaluation budget but none of its guidance.
class RandomSearcher final : public Searcher {
 public:
  using Searcher::Searcher;
  std::string_view name() const override { return "random"; }
  Result<SearchResult> Run(const DiffTree& initial) override;
};

/// \brief Steepest-ascent hill climbing: evaluates all successors, moves to
/// the best, and stops (`StopReason::kExhausted`) at the first state none
/// of whose successors improves on it.
class GreedySearcher final : public Searcher {
 public:
  using Searcher::Searcher;
  std::string_view name() const override { return "greedy"; }
  Result<SearchResult> Run(const DiffTree& initial) override;
};

/// \brief Beam search of width `opts.beam_width` with transposition pruning.
class BeamSearcher final : public Searcher {
 public:
  using Searcher::Searcher;
  std::string_view name() const override { return "beam"; }
  Result<SearchResult> Run(const DiffTree& initial) override;
};

/// \brief Bounded exhaustive BFS (transposition-deduped). Tractable only for
/// tiny inputs; used as the optimality oracle in tests and benches.
class ExhaustiveSearcher final : public Searcher {
 public:
  using Searcher::Searcher;
  std::string_view name() const override { return "exhaustive"; }
  Result<SearchResult> Run(const DiffTree& initial) override;

  /// States actually visited in the last run.
  size_t visited_states() const { return visited_states_; }
  /// True when the last run covered the whole (depth-bounded) space.
  bool complete() const { return complete_; }

 private:
  size_t visited_states_ = 0;
  bool complete_ = true;
};

}  // namespace ifgen
