#pragma once

#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cost/evaluator.h"
#include "difftree/difftree.h"
#include "rules/rule.h"
#include "search/progress.h"
#include "search/timeman.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace ifgen {

/// \brief Knobs of the prior-guided search layer (PUCT selection +
/// progressive widening); see docs/search.md and search/priors.h.
///
/// The paper expands all immediate neighbors and selects children by plain
/// UCT — every rule application is treated as equally promising a priori.
/// The query log says otherwise: its co-occurrence structure predicts which
/// factoring edits pay off (Precision Interfaces; PI2). ActionPriorModel
/// turns those statistics plus the rule type into a per-action prior; this
/// struct holds the on/off ablation flags and the formula constants.
struct PriorOptions {
  /// Use log-derived action priors: PUCT selection and prior-ordered
  /// expansion. Off = the paper's uniform treatment (ablation baseline).
  bool use_priors = true;
  /// Progressive widening: a node may only have ceil(widen_c * (v+1)^
  /// widen_alpha) children at v visits, so high-fanout nodes expand their
  /// children lazily (in prior order when `use_priors`) instead of all at
  /// once. Off = the paper's expand-all behavior (ablation baseline).
  bool progressive_widening = true;
  /// PUCT exploration multiplier: score = Q + puct_c * P * sqrt(N)/(1+n).
  double puct_c = 1.2;
  /// Widening schedule constants (see ProgressiveWideningLimit).
  double widen_c = 3.0;
  double widen_alpha = 0.5;
  /// Weight of the log label-frequency site signal in the prior.
  double freq_weight = 1.0;
  /// Weight of the log co-occurrence (pair-affinity) site signal; applied
  /// to forward/factoring applications only.
  double cooc_weight = 1.0;
  /// Floor applied to each raw prior before normalization, so no action's
  /// exploration term is starved entirely.
  double min_prior = 0.02;
  /// Trace-fitted per-rule weights, (rule name, weight) sorted by name
  /// (see src/learn/prior_fit.h and examples/fit_priors.cpp). When a rule's
  /// name appears here, its learned weight replaces the hand-set
  /// BaseRuleWeight; unlisted rules keep the hand-set fallback. Value knobs:
  /// part of the service's options fingerprint like every other field here.
  std::vector<std::pair<std::string, double>> learned_weights;
};

/// \brief One transposition entry: a canonical state hash with its sampled
/// cost and visit count. The unit of experience seeding and harvest.
struct TtSeedEntry {
  uint64_t canonical = 0;
  double cost = 0.0;
  uint64_t visits = 0;

  bool operator==(const TtSeedEntry& o) const {
    return canonical == o.canonical && cost == o.cost && visits == o.visits;
  }
};

/// \brief Per-root-action statistics of a (possibly merged) MCTS root.
///
/// Root-parallel ensembles merge per-tree root children by canonical hash;
/// the ensemble's preferred action is the one with the highest
/// visit-weighted mean reward.
struct RootActionStat {
  uint64_t canonical = 0;
  uint64_t visits = 0;
  double total_reward = 0.0;
  double MeanReward() const {
    return visits == 0 ? 0.0 : total_reward / static_cast<double>(visits);
  }
};

/// \brief Runtime wiring that warm-starts a search from known state costs
/// and harvests what it discovered: the one bridge between a search and the
/// service's persistent experience store (src/learn/experience.h).
///
/// Seeding (SeedTranspositions) merges every seed entry's cost into the
/// transposition table, first-writer-wins, so a seeded state skips its
/// re-evaluation. That is sound only under state-keyed sampling
/// (GeneratorOptions::experience), where costs are pure functions of the
/// state: seeding then changes the work done, never the values produced or
/// the RNG streams consumed. Entries whose canonical hash matches a root
/// child additionally grant that child capped virtual visits + reward,
/// steering early PUCT selection toward previously good actions (the
/// warm-start iteration win). Like `stop`/`progress`, attaching a bridge is
/// NOT part of any cache key or fingerprint.
struct SeedBridge {
  /// In: experience-store records for this search's cost identity in
  /// ExperienceStore::Snapshot order (root records, then canonical hash).
  std::vector<TtSeedEntry> experience_seed;
  /// Cap on entries exported after the run.
  size_t export_limit = 512;
  /// Out: the run's locally sampled finite-cost entries, by canonical hash
  /// ascending.
  std::vector<TtSeedEntry> exported;
  /// Out: root actions ranked by visit-weighted mean reward (merged across
  /// trees for parallel ensembles) — the "best action" training signal.
  std::vector<RootActionStat> root_actions;
  /// Out: canonical hash of the search's initial state.
  uint64_t root_canonical = 0;
  /// Out: root children that received virtual visits from experience_seed.
  size_t seeded_root_children = 0;
};

/// \brief Options shared by every search algorithm.
struct SearchOptions {
  /// Wall-clock budget; <= 0 means "iteration-capped only" (deterministic
  /// tests use that mode).
  int64_t time_budget_ms = 2000;
  /// Iteration cap; 0 = unlimited.
  size_t max_iterations = 0;
  uint64_t seed = 42;

  // MCTS.
  double exploration_c = 0.5;  ///< UCT exploration constant; rewards live in
                               ///< (0,1] so sqrt(2) over-explores (see
                               ///< bench_ablation for the sweep)
  size_t rollout_len = 200;           ///< paper: random walks of up to 200 steps
  double rollout_stop_prob = 0.02;    ///< per-step early-stop (varies depths)
  /// Paper: "perform a random walk ... from all of its immediate neighbor
  /// states". False = standard single-child expansion (ablation).
  bool expand_all_children = true;
  /// Upper bound on neighbors expanded per iteration; the paper's fanouts
  /// (~50) make literal expand-all affordable, but All2Any-style inverse
  /// rules push fanout into the hundreds, where a full batch would blow the
  /// whole budget inside one iteration.
  size_t max_expansions_per_iteration = 24;
  /// Memory guard: cap on the cumulative difftree-node count stored across
  /// the MCTS search tree (states vary from tens to ~1500 nodes, so the cap
  /// is on payload, not state count). Once reached, iterations keep rolling
  /// out from selected nodes instead of expanding.
  size_t max_search_tree_payload = 600000;
  /// Probability that a rollout step draws from the forward (factoring)
  /// rules when any apply; the remainder explores inverse rules. 0.5 is
  /// close to the paper's uniform random walk; higher values focus rollouts
  /// on the factoring chains good interfaces live behind (swept by the
  /// ablation bench).
  double rollout_forward_bias = 0.8;
  /// Probability that a rollout is a *saturation* walk: repeatedly apply the
  /// first forward application (pre-order = shallowest site first) until no
  /// forward rule applies. This is the canonical factoring schedule; mixing
  /// it with random walks gives rollouts a strong baseline while preserving
  /// exploration. 0 recovers the paper's purely random simulation.
  double rollout_saturate_prob = 0.35;
  /// Probability of evaluating an intermediate rollout state. The paper
  /// scores only the rollout terminus; sampling along the walk makes the
  /// reward the best state *seen*, which is what the anytime result tracker
  /// needs (random walks drift, so termini are rarely the walk's best).
  double rollout_eval_prob = 0.25;

  /// Prior-guided selection/expansion (MCTS only; see PriorOptions).
  PriorOptions priors;

  // Greedy / beam.
  size_t beam_width = 8;

  // Exhaustive.
  size_t exhaustive_max_depth = 6;
  size_t exhaustive_max_states = 5000;

  /// Anytime/deadline control (see search/timeman.h). Value-only knobs;
  /// part of the service's options fingerprint. Inactive by default, in
  /// which case the searchers run the classic time_budget_ms loop and stay
  /// bit-identical to the pre-anytime behavior.
  TimeControlOptions time_control;
  /// External stop flag, shared with CancelJob and the TimeManager. Null =
  /// never stopped externally. Runtime wiring only — NOT part of any cache
  /// key or fingerprint.
  std::shared_ptr<StopHandle> stop;
  /// Best-so-far publisher: every accepted improvement streams out as a
  /// versioned event. Null = off. Publishing consumes no RNG draws and
  /// changes no control flow, so attaching a sink never perturbs results.
  std::shared_ptr<ProgressSink> progress;
  /// Warm-start seeds in, discoveries out (see SeedBridge). Null = off.
  /// Runtime wiring only — NOT part of any cache key or fingerprint;
  /// requires state-keyed sampling for bit-identity under seeding.
  std::shared_ptr<SeedBridge> seed_bridge;
};

/// \brief (time, cost) samples of the best-so-far curve, for anytime plots.
struct BestTrace {
  int64_t ms = 0;
  size_t iteration = 0;
  double cost = 0.0;
};

/// \brief Instrumentation common to all searchers.
struct SearchStats {
  size_t iterations = 0;
  size_t states_expanded = 0;
  size_t rollouts = 0;
  size_t rollout_steps = 0;
  size_t transposition_hits = 0;
  double initial_cost = 0.0;
  int64_t elapsed_ms = 0;
  /// Search trees contributing to this result (> 1 for root-parallel).
  size_t trees = 1;
  /// Why the loop stopped (kNone only while still running); see timeman.h.
  StopReason stop_reason = StopReason::kNone;
  std::vector<BestTrace> trace;

  // Fanout distribution (number of applicable rules per visited state).
  size_t fanout_samples = 0;
  size_t fanout_sum = 0;
  size_t fanout_max = 0;

  /// Root children granted virtual visits from SeedBridge::experience_seed.
  size_t root_seeded = 0;

  // Per-rule outcome accumulators, indexed by RuleEngine rule index: how
  // often each rule's application was selected/expanded into a child, and
  // the summed backpropagated reward those children received. Pure
  // bookkeeping (zero RNG draws); the offline prior fitter
  // (learn/prior_fit.h) turns these into learned PriorOptions weights.
  std::vector<uint64_t> rule_uses;
  std::vector<double> rule_reward_sum;

  void RecordRuleOutcome(int rule_index, double reward) {
    if (rule_index < 0) return;
    const size_t idx = static_cast<size_t>(rule_index);
    if (rule_uses.size() <= idx) {
      rule_uses.resize(idx + 1, 0);
      rule_reward_sum.resize(idx + 1, 0.0);
    }
    ++rule_uses[idx];
    rule_reward_sum[idx] += reward;
  }

  void RecordFanout(size_t fanout) {
    ++fanout_samples;
    fanout_sum += fanout;
    if (fanout > fanout_max) fanout_max = fanout;
  }
  double MeanFanout() const {
    return fanout_samples == 0
               ? 0.0
               : static_cast<double>(fanout_sum) / static_cast<double>(fanout_samples);
  }

  /// Folds another tree's (or task's) stats into this one. Traces are
  /// concatenated and re-sorted by time; because a shared best tracker only
  /// records *global* improvements, the merged trace is again the monotone
  /// best-so-far curve.
  void Merge(const SearchStats& other);
};

/// \brief Outcome of a search: the best difftree found and its sampled cost.
struct SearchResult {
  DiffTree best_tree;
  double best_cost = 0.0;
  SearchStats stats;
  /// Root actions ranked by visit-weighted mean reward (descending); filled
  /// by root-parallel ensembles, empty for serial searchers.
  std::vector<RootActionStat> root_actions;
};

/// \brief Everything a rollout needs; lets the rollout run as a free
/// function on any thread (every root-parallel tree rolls out on its own
/// thread, where member functions bound to one searcher would not do).
struct RolloutContext {
  const RuleEngine* rules = nullptr;
  StateEvaluator* evaluator = nullptr;
  const SearchOptions* opts = nullptr;
};

/// Random rollout of up to opts->rollout_len rule applications that also
/// samples intermediate states for evaluation and always evaluates the
/// terminus; returns the best cost seen (`best_state` receives the matching
/// state). Thread-compatible: distinct (rng, stats) per caller.
double RolloutAndEvaluateState(const RolloutContext& ctx, const DiffTree& start,
                               Rng* rng, SearchStats* stats, DiffTree* best_state);

/// \brief The global best across every evaluated state of one run. Every
/// searcher uses this one tracker, and root-parallel trees share it, so
/// Offer locks on every call (uncontended in serial runs). Only *global*
/// improvements are recorded, so each contributing tree's trace is a slice
/// of the monotone best-so-far curve.
struct BestTracker {
  std::mutex mu;
  DiffTree tree;
  double cost = std::numeric_limits<double>::infinity();
  /// Optional live publisher: every global improvement streams out as a
  /// versioned ProgressSink event the moment it is accepted.
  ProgressSink* sink = nullptr;

  void Offer(const DiffTree& t, double c, const Stopwatch& watch, size_t iteration,
             SearchStats* stats) {
    std::lock_guard<std::mutex> lock(mu);
    if (c >= cost) return;
    cost = c;
    tree = t;
    const int64_t ms = watch.ElapsedMillis();
    stats->trace.push_back({ms, iteration, c});
    if (sink != nullptr) sink->Publish(t, c, iteration, ms);
  }

  double CostSnapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return cost;
  }
};

/// \brief The state every search run carries, set up and reported one way
/// for every searcher: the seed's RNG stream, the run clock, the anytime
/// controls, the stats and the best tracker.
///
/// The anytime controls are the effective deadline (plain time budget vs
/// the deadline's search slice), a stop handle (the caller-supplied one, or
/// a run-local one when time control is active) and an optional
/// TimeManager latching into it. With time control off and no external
/// stop handle this degenerates to the classic `Deadline(time_budget_ms)`
/// with a null stop pointer, so the loop shape (and every RNG draw) is the
/// classic one.
struct SearchRun {
  explicit SearchRun(const SearchOptions& opts);

  /// Samples the initial state's cost from `rng`, records it as the run's
  /// initial cost (MCTS's reward anchor) and offers it as the iteration-0
  /// best. Returns the cost.
  double Start(const DiffTree& initial, StateEvaluator* evaluator);

  /// An external cancel or a latched time-manager decision.
  bool StopRequested() const { return stop != nullptr && stop->stop_requested(); }
  /// True when the loop should stop now: deadline expired or stop requested.
  bool Stopped() const { return deadline.Expired() || StopRequested(); }

  /// Moves the best state and the stats into the result, stamping the
  /// elapsed time and the resolved stop reason.
  SearchResult Finish();

  const SearchOptions& opts;
  Rng rng;
  Stopwatch watch;
  Deadline deadline;
  StopHandle local_stop;
  /// Null when neither an external stop nor time control is in play; the
  /// hot loop then skips even the relaxed atomic poll.
  StopHandle* stop = nullptr;
  std::unique_ptr<TimeManager> timeman;
  SearchStats stats;
  BestTracker best;
};

/// \brief One loop of a search run: its iteration guard, its time-control
/// tick and its path into the run's best tracker, counting into one
/// SearchStats. Every loop owns one (each root-parallel tree its own); all
/// loops of a run feed its one TimeManager.
class SearchLoop {
 public:
  SearchLoop(SearchRun* run, SearchStats* stats, size_t max_iterations);

  /// True once the deadline expired, a stop was requested or
  /// max_iterations iterations ran (0 = no cap).
  bool Done() const {
    return run_->Stopped() ||
           (max_iterations_ > 0 && stats_->iterations >= max_iterations_);
  }

  /// Counts one iteration. Every check_interval-th call feeds the run's
  /// TimeManager (whose decision latches into the stop handle) and returns
  /// true.
  bool Count();

  /// Offers a state to the run's best tracker at this loop's iteration.
  void Offer(const DiffTree& t, double c) {
    run_->best.Offer(t, c, run_->watch, stats_->iterations, stats_);
  }

 private:
  SearchRun* run_;
  SearchStats* stats_;
  size_t max_iterations_;
  uint32_t check_interval_;
  uint32_t since_check_ = 0;
};

/// \brief Base class wiring a searcher to the rule engine and evaluator.
class Searcher {
 public:
  Searcher(const RuleEngine* rules, StateEvaluator* evaluator, SearchOptions opts)
      : rules_(rules), evaluator_(evaluator), opts_(opts) {}
  virtual ~Searcher() = default;

  virtual std::string_view name() const = 0;
  virtual Result<SearchResult> Run(const DiffTree& initial) = 0;

 protected:
  const RuleEngine* rules_;
  StateEvaluator* evaluator_;
  SearchOptions opts_;
};

}  // namespace ifgen
