#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

#include "runtime/tt.h"
#include "search/search_common.h"

namespace ifgen {

class ActionPriorModel;

/// \brief Thread-safe global best tracker shared by all trees of one
/// search. Only *global* improvements are recorded, so each
/// contributing tree's trace is a slice of the monotone best-so-far curve.
struct SharedBestTracker {
  std::mutex mu;
  DiffTree tree;
  double cost = std::numeric_limits<double>::infinity();
  /// Optional live publisher: every global improvement streams out as a
  /// versioned ProgressSink event the moment it is accepted.
  ProgressSink* sink = nullptr;

  bool Offer(const DiffTree& t, double c, const Stopwatch& watch, size_t iteration,
             SearchStats* stats) {
    std::lock_guard<std::mutex> lock(mu);
    if (c >= cost) return false;
    cost = c;
    tree = t;
    const int64_t ms = watch.ElapsedMillis();
    stats->trace.push_back({ms, iteration, c});
    if (sink != nullptr) sink->Publish(t, c, iteration, ms);
    return true;
  }

  double CostSnapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return cost;
  }
};

/// \brief Wiring for one MCTS tree run (see RunMctsTree).
///
/// Serial search passes tree-local objects for everything; parallel
/// ensembles share `tt`, `best`, `deadline`, and `watch` across trees while
/// keeping `rng` and `stats` strictly per-tree.
struct MctsTreeParams {
  const RuleEngine* rules = nullptr;
  StateEvaluator* evaluator = nullptr;
  SearchOptions opts;
  Rng* rng = nullptr;                ///< per-tree stream (never shared)
  const Stopwatch* watch = nullptr;  ///< search-global clock (trace timestamps)
  Deadline* deadline = nullptr;
  TranspositionTable* tt = nullptr;
  SharedBestTracker* best = nullptr;
  SearchStats* stats = nullptr;  ///< per-tree (merged by the caller)
  /// Log-derived action priors (PUCT selection + prior-ordered expansion).
  /// Null = uniform treatment (the paper's UCT). Immutable, so parallel
  /// ensembles share one model across all trees.
  const ActionPriorModel* priors = nullptr;
  /// Reward-normalization anchor (the initial state's sampled cost). NaN =
  /// "compute it here and offer the initial state to `best`" (serial mode);
  /// parallel ensembles compute it once and pass it to every tree so all
  /// trees normalize rewards identically.
  double anchor_cost = std::numeric_limits<double>::quiet_NaN();
  /// When non-null, receives (canonical, visits, total_reward) of every root
  /// child after the run — the raw material for root-ensemble merging.
  std::vector<RootActionStat>* root_actions = nullptr;
  /// Anytime control (see timeman.h): `stop` is polled (relaxed) once per
  /// iteration; `timeman` — shared across all trees of one search — is fed
  /// every time_control.check_interval iterations. Both optional; null
  /// leaves the classic loop untouched.
  StopHandle* stop = nullptr;
  TimeManager* timeman = nullptr;
  /// Warm-start seeds (see SeedBridge): root children whose canonical hash
  /// matches an `experience_seed` entry start with capped virtual visits +
  /// reward. Read-only here; outputs flow through `stats` (root_seeded) and
  /// `root_actions`. Null = off (bit-identical to the unseeded loop).
  const SeedBridge* seed_bridge = nullptr;
};

/// Runs one MCTS tree to its deadline/iteration budget. The algorithm is
/// the paper's (see MctsSearcher); this free function exists so that serial
/// search and root-parallel ensembles execute the *same* tree code.
void RunMctsTree(const DiffTree& initial, const MctsTreeParams& params);

/// Warm-starts `tt` from the bridge's experience entries (no-op for a null
/// bridge).
void SeedTranspositions(const SeedBridge* bridge, TranspositionTable* tt);

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
/// states (rule sequences often commute); revisits share evaluation results
/// through the table's cost cache and the StateEvaluator's cache.
class MctsSearcher final : public Searcher {
 public:
  using Searcher::Searcher;

  std::string_view name() const override { return "mcts"; }
  Result<SearchResult> Run(const DiffTree& initial) override;
};

}  // namespace ifgen
