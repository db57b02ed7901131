#pragma once

#include <memory>
#include <vector>

#include "runtime/tt.h"
#include "search/search_common.h"

namespace ifgen {

class ActionPriorModel;

/// \brief One MCTS search's shared state, built once and shared by every
/// tree of a parallel ensemble: the engine and evaluator, the per-tree
/// options, the run scaffold (clock, deadline, stop handle, TimeManager,
/// best tracker; its initial cost is every tree's reward anchor, so all
/// trees normalize rewards identically), the transposition table (seeded
/// from the options' seed bridge) and the prior model. Each tree's RNG
/// stream, stats and root actions are its own and are passed to
/// RunMctsTree separately.
struct MctsSearch {
  MctsSearch(const RuleEngine* rules, StateEvaluator* evaluator,
             const SearchOptions& opts, size_t tt_shards);
  ~MctsSearch();

  const RuleEngine* rules;
  StateEvaluator* evaluator;
  /// A parallel ensemble splits max_iterations across its trees; the seed
  /// bridge, if any, grants root children virtual visits.
  SearchOptions tree_opts;
  SearchRun run;
  TranspositionTable tt;
  /// Log-derived action priors (PUCT selection + prior-ordered expansion).
  /// Null = uniform treatment (the paper's UCT). Immutable, so every tree
  /// reads the one model.
  std::unique_ptr<ActionPriorModel> priors;
};

/// Runs one MCTS tree of `search` to its deadline/iteration budget on the
/// per-tree `rng` stream, counting into `stats`. When `root_actions` is
/// non-null it receives (canonical, visits, total_reward) of every root
/// child after the run, the raw material for root-ensemble merging. The
/// algorithm is the paper's (see MctsSearcher); this free function exists
/// so that serial search and root-parallel ensembles execute the *same*
/// tree code.
void RunMctsTree(const DiffTree& initial, MctsSearch* search, Rng* rng,
                 SearchStats* stats, std::vector<RootActionStat>* root_actions);

/// Ranks `root_actions` (mean reward desc, then visits desc, then canonical
/// asc) and, with a bridge, publishes the run's outputs into it: the
/// locally sampled costs, the ranked root actions, the root's canonical
/// hash, and the `root_seeded` count.
void HarvestSearch(const DiffTree& initial, const TranspositionTable& tt,
                   size_t root_seeded, std::vector<RootActionStat>* root_actions,
                   SeedBridge* bridge);

/// \brief Monte Carlo Tree Search over difftree states (paper, "Monte Carlo
/// Tree Search").
///
/// Each search-tree node is a difftree; edges are rule applications. Per
/// iteration:
///  1. Selection: descend from the root by maximum UCT
///     (w/n + c * sqrt(ln N / n)) — or, with priors enabled (the default,
///     see PriorOptions), by maximum PUCT
///     (w/n + puct_c * P(a) * sqrt(N) / (1 + n)) where P is the
///     ActionPriorModel's log-derived prior of the child's creating action.
///  2. Expansion: materialize untried neighbor states — all of them when
///     `expand_all_children` (the paper's variant), else one. Progressive
///     widening (default on) caps a node's children at
///     ProgressiveWideningLimit(visits), so high-fanout nodes unlock
///     children gradually, highest-prior first.
///  3. Simulation: from each new child, a uniformly random rule-application
///     walk of up to `rollout_len` steps (200 in the paper).
///  4. Reward: the final state's cost from k random widget assignments,
///     normalized to (0, 1] as r = c0 / (c0 + cost) with c0 the initial
///     state's cost (the paper uses the negated cost; UCT needs a bounded
///     positive reward, and this normalization preserves the ordering).
///  5. Backpropagation along the selection path.
///
/// A transposition table over canonical difftree hashes detects revisited
/// states (rule sequences often commute). A fresh child whose state the
/// table already costed reuses that cost; every other evaluation goes to the
/// StateEvaluator, whose own memo answers repeats. Improvements go to the
/// run's one BestTracker (see SearchRun).
class MctsSearcher final : public Searcher {
 public:
  using Searcher::Searcher;

  std::string_view name() const override { return "mcts"; }
  Result<SearchResult> Run(const DiffTree& initial) override;
};

}  // namespace ifgen
