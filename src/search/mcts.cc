#include "search/mcts.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/priors.h"
#include "util/logging.h"

namespace ifgen {

namespace {

/// Search metrics are bumped in batch at the end of each tree run (the
/// iteration loop is the hottest code in the system; per-iteration counter
/// traffic would be measurable). Spans still mark the phases per iteration —
/// they cost one relaxed load each when tracing is off.
struct SearchMetrics {
  obs::Counter* trees;
  obs::Counter* iterations;
  obs::Counter* states_expanded;
  obs::Counter* rollouts;
  obs::Counter* rollout_steps;
  static const SearchMetrics& Get() {
    static const SearchMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      SearchMetrics s;
      s.trees = reg.GetCounter("ifgen_search_trees_total", "MCTS tree runs");
      s.iterations =
          reg.GetCounter("ifgen_search_iterations_total", "MCTS iterations");
      s.states_expanded = reg.GetCounter("ifgen_search_states_expanded_total",
                                         "Difftree states materialized by expansion");
      s.rollouts = reg.GetCounter("ifgen_search_rollouts_total",
                                  "Random rollout walks simulated");
      s.rollout_steps = reg.GetCounter("ifgen_search_rollout_steps_total",
                                       "Rule applications taken inside rollouts");
      return s;
    }();
    return m;
  }
};

struct Node {
  DiffTree state;
  uint64_t canonical = 0;
  Node* parent = nullptr;
  double total_reward = 0.0;
  size_t visits = 0;
  std::vector<RuleApplication> apps;
  /// Index-aligned with `apps` (sorted together); empty when priors are off.
  std::vector<double> priors;
  /// Prior of the application that created this node (PUCT's P term).
  double prior = 0.0;
  /// RuleEngine index of the application that created this node (-1 for the
  /// root); feeds the per-rule outcome accumulators the prior fitter reads.
  int rule_index = -1;
  bool apps_ready = false;
  size_t next_untried = 0;
  /// Fully expanded, childless (or all children dead): selection skips it.
  bool dead = false;
  std::vector<std::unique_ptr<Node>> children;
};

double Uct(const SearchOptions& opts, const Node& child, size_t parent_visits) {
  if (child.visits == 0) return std::numeric_limits<double>::infinity();
  double exploit = child.total_reward / static_cast<double>(child.visits);
  double explore = opts.exploration_c *
                   std::sqrt(std::log(static_cast<double>(parent_visits)) /
                             static_cast<double>(child.visits));
  return exploit + explore;
}

/// PUCT (prior-weighted UCT): exploration is proportional to the action
/// prior, so low-prior children need strong observed rewards to keep being
/// selected. Fresh children are simulated at expansion, so visits >= 1 here.
double Puct(const SearchOptions& opts, const Node& child, size_t parent_visits) {
  double exploit = child.visits == 0
                       ? 0.0
                       : child.total_reward / static_cast<double>(child.visits);
  double explore = opts.priors.puct_c * child.prior *
                   std::sqrt(static_cast<double>(parent_visits)) /
                   (1.0 + static_cast<double>(child.visits));
  return exploit + explore;
}

/// Number of `apps` entries the node may consume given its visit count:
/// everything without widening, the widening schedule's limit with it.
size_t UnlockedApps(const SearchOptions& opts, const Node& node) {
  if (!opts.priors.progressive_widening) return node.apps.size();
  return std::min(node.apps.size(),
                  ProgressiveWideningLimit(node.visits, opts.priors));
}

}  // namespace

void RunMctsTree(const DiffTree& initial, MctsSearch* search, Rng* tree_rng,
                 SearchStats* tree_stats, std::vector<RootActionStat>* root_actions) {
  MctsSearch& p = *search;
  Rng& rng = *tree_rng;
  SearchStats& stats = *tree_stats;
  const SearchOptions& opts = p.tree_opts;
  const Deadline& deadline = p.run.deadline;
  const RolloutContext rctx{p.rules, p.evaluator, &opts};
  SearchLoop loop(&p.run, &stats, opts.max_iterations);

  const double c0_raw = p.run.stats.initial_cost;
  // Normalization anchor; a state with cost c receives reward c0/(c0+c).
  const double c0 = std::isfinite(c0_raw) ? std::max(1.0, c0_raw) : 100.0;
  auto reward_of = [&](double cost) {
    if (!std::isfinite(cost)) return 0.0;
    return c0 / (c0 + cost);
  };

  // Application lists are enumerated lazily (first selection visit): most
  // nodes are never selected again, and eager enumeration of hundreds of
  // applications per child dominated memory.
  size_t payload_nodes = initial.NodeCount();
  auto ensure_apps = [&](Node* node) {
    if (node->apps_ready) return;
    node->apps = p.rules->EnumerateApplications(node->state);
    rng.Shuffle(&node->apps);  // expansion order should not bias the search
    if (p.priors != nullptr && !node->apps.empty()) {
      // Prior-ordered expansion: highest prior first, shuffled ties (the
      // stable sort keeps the shuffle's order among equal priors), so
      // progressive widening unlocks the most promising actions first.
      node->priors = p.priors->Evaluate(node->state, node->apps);
      std::vector<size_t> order(node->apps.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return node->priors[a] > node->priors[b];
      });
      std::vector<RuleApplication> apps(node->apps.size());
      std::vector<double> priors(node->apps.size());
      for (size_t i = 0; i < order.size(); ++i) {
        apps[i] = std::move(node->apps[order[i]]);
        priors[i] = node->priors[order[i]];
      }
      node->apps = std::move(apps);
      node->priors = std::move(priors);
    }
    stats.RecordFanout(node->apps.size());
    node->apps_ready = true;
  };

  // Rewards stay in tree-local nodes (root-parallel merging reads them via
  // root_actions); pushing them into the shared table too would put a lock
  // per ancestor per iteration on the hottest loop for data nothing reads.
  auto backprop = [&](Node* from, double r) {
    obs::TraceSpan span("mcts.backprop", "search");
    for (Node* n = from; n != nullptr; n = n->parent) {
      ++n->visits;
      n->total_reward += r;
    }
  };

  // Registry deltas for this tree run, bumped in batch after the loop.
  const size_t base_iterations = stats.iterations;
  const size_t base_expanded = stats.states_expanded;
  const size_t base_rollouts = stats.rollouts;
  const size_t base_rollout_steps = stats.rollout_steps;
  obs::TraceSpan tree_span("mcts.tree", "search");

  auto root = std::make_unique<Node>();
  root->state = initial;
  root->canonical = initial.CanonicalHash();
  ensure_apps(root.get());
  p.tt.Visit(root->canonical);

  // Persisted experience: root children matching an experience seed entry
  // start with capped virtual visits and the seed cost's reward, steering
  // early PUCT selection toward previously good actions. Pure bookkeeping —
  // no RNG draws — so an absent (or empty) seed leaves the run bit-identical.
  std::unordered_map<uint64_t, const TtSeedEntry*> exp_seed;
  if (const SeedBridge* bridge = opts.seed_bridge.get()) {
    exp_seed.reserve(bridge->experience_seed.size());
    for (const TtSeedEntry& e : bridge->experience_seed) {
      exp_seed.emplace(e.canonical, &e);
    }
  }
  // Cap on the virtual visits one experience entry may grant a root child.
  constexpr uint64_t kRootVisitCap = 8;
  auto seed_root_child = [&](Node* child) {
    if (exp_seed.empty() || child->parent != root.get()) return;
    auto it = exp_seed.find(child->canonical);
    if (it == exp_seed.end()) return;
    const uint64_t v =
        std::min<uint64_t>(std::max<uint64_t>(it->second->visits, 1), kRootVisitCap);
    child->visits += v;
    child->total_reward += static_cast<double>(v) * reward_of(it->second->cost);
    ++stats.root_seeded;
  };

  // Anytime control: the stop flag is polled every iteration (relaxed
  // atomic, negligible next to a rollout); the shared TimeManager is fed
  // every check_interval iterations. A stop latched by that tick ends the
  // loop before the counted iteration does any work.
  while (!loop.Done()) {
    if (loop.Count() && p.run.StopRequested()) break;

    // 1. Selection: descend by UCT (PUCT with priors) while the widening
    // schedule offers no unexpanded action at the node.
    Node* node = root.get();
    {
      obs::TraceSpan span("mcts.select", "search");
      while (true) {
        ensure_apps(node);
        if (node->next_untried < UnlockedApps(opts, *node) ||
            node->children.empty()) {
          break;
        }
        Node* picked = nullptr;
        double best_score = -1.0;
        for (const auto& ch : node->children) {
          if (ch->dead) continue;
          double u = p.priors != nullptr
                         ? Puct(opts, *ch, std::max<size_t>(1, node->visits))
                         : Uct(opts, *ch, std::max<size_t>(1, node->visits));
          if (u > best_score) {
            best_score = u;
            picked = ch.get();
          }
        }
        if (picked == nullptr) break;  // all children dead
        node = picked;
      }
    }

    // 2. Expansion (bounded per iteration, by the widening schedule, and by
    // the payload budget). With priors, apps are in prior order, so widening
    // unlocks the most promising neighbors first.
    std::vector<Node*> fresh;
    if (payload_nodes < opts.max_search_tree_payload) {
      obs::TraceSpan span("mcts.expand", "search");
      size_t unlocked = UnlockedApps(opts, *node);
      size_t available = unlocked > node->next_untried ? unlocked - node->next_untried : 0;
      size_t expansions =
          opts.expand_all_children ? available : std::min<size_t>(1, available);
      expansions = std::min(expansions, opts.max_expansions_per_iteration);
      for (size_t e = 0; e < expansions; ++e) {
        const size_t app_index = node->next_untried++;
        const RuleApplication& app = node->apps[app_index];
        auto applied = p.rules->Apply(node->state, app);
        if (!applied.ok()) continue;
        auto child = std::make_unique<Node>();
        child->state = std::move(applied).MoveValueUnsafe();
        child->canonical = child->state.CanonicalHash();
        child->parent = node;
        child->prior = node->priors.empty() ? 0.0 : node->priors[app_index];
        child->rule_index = app.rule_index;
        seed_root_child(child.get());
        if (!p.tt.Visit(child->canonical)) {
          ++stats.transposition_hits;
        }
        ++stats.states_expanded;
        payload_nodes += child->state.NodeCount();
        fresh.push_back(child.get());
        node->children.push_back(std::move(child));
        if (deadline.Expired() || payload_nodes >= opts.max_search_tree_payload) break;
      }
    }

    if (fresh.empty()) {
      if (node->apps.empty() && node->children.empty()) {
        // True terminal: no applicable rules at all. Evaluate once, mark
        // dead so selection stops revisiting, and propagate death upward.
        double cost = p.evaluator->SampleCost(node->state, &rng);
        loop.Offer(node->state, cost);
        node->dead = true;
        for (Node* n = node->parent; n != nullptr; n = n->parent) {
          if (!n->apps_ready || n->next_untried < n->apps.size()) break;
          bool all_dead = true;
          for (const auto& ch : n->children) all_dead &= ch->dead;
          if (!all_dead) break;
          n->dead = true;
        }
        stats.RecordRuleOutcome(node->rule_index, reward_of(cost));
        backprop(node, reward_of(cost));
        if (root->dead) break;  // the whole space is exhausted
      } else {
        // Payload budget reached (or every application failed): keep
        // learning by rolling out from the selected node itself.
        DiffTree rollout_best;
        double cost =
            RolloutAndEvaluateState(rctx, node->state, &rng, &stats, &rollout_best);
        loop.Offer(rollout_best, cost);
        stats.RecordRuleOutcome(node->rule_index, reward_of(cost));
        backprop(node, reward_of(cost));
      }
      continue;
    }

    // 3.-5. Simulation from each fresh child + backpropagation. The child's
    // own (cached) evaluation also feeds the global best tracker.
    obs::TraceSpan sim_span("mcts.simulate", "search");
    for (Node* child : fresh) {
      auto cached = p.tt.LookupCost(child->canonical);
      double child_cost =
          cached.has_value() ? *cached : p.evaluator->SampleCost(child->state, &rng);
      if (!cached.has_value()) p.tt.StoreCost(child->canonical, child_cost);
      loop.Offer(child->state, child_cost);

      DiffTree rollout_best;
      double roll_cost =
          RolloutAndEvaluateState(rctx, child->state, &rng, &stats, &rollout_best);
      loop.Offer(rollout_best, roll_cost);

      const double r = std::max(reward_of(child_cost), reward_of(roll_cost));
      stats.RecordRuleOutcome(child->rule_index, r);
      backprop(child, r);
      if (deadline.Expired()) break;
    }
  }

  if (obs::MetricsEnabled()) {
    const SearchMetrics& m = SearchMetrics::Get();
    m.trees->Inc();
    m.iterations->Add(stats.iterations - base_iterations);
    m.states_expanded->Add(stats.states_expanded - base_expanded);
    m.rollouts->Add(stats.rollouts - base_rollouts);
    m.rollout_steps->Add(stats.rollout_steps - base_rollout_steps);
  }

  if (root_actions != nullptr) {
    for (const auto& ch : root->children) {
      RootActionStat a;
      a.canonical = ch->canonical;
      a.visits = ch->visits;
      a.total_reward = ch->total_reward;
      root_actions->push_back(a);
    }
  }
}

MctsSearch::MctsSearch(const RuleEngine* rules, StateEvaluator* evaluator,
                       const SearchOptions& opts, size_t tt_shards)
    : rules(rules), evaluator(evaluator), tree_opts(opts), run(opts), tt(tt_shards) {
  if (const SeedBridge* bridge = opts.seed_bridge.get()) {
    for (const TtSeedEntry& e : bridge->experience_seed) tt.SeedCost(e.canonical, e.cost);
  }
  // One prior model per search: it is immutable after construction, so all
  // trees read it concurrently, and building it once keeps every tree's
  // priors (and hence their expansion order) coherent.
  if (opts.priors.use_priors) {
    priors = std::make_unique<ActionPriorModel>(*rules, evaluator->queries(), opts.priors);
  }
}

MctsSearch::~MctsSearch() = default;

void HarvestSearch(const DiffTree& initial, const TranspositionTable& tt,
                   size_t root_seeded, std::vector<RootActionStat>* root_actions,
                   SeedBridge* bridge) {
  std::stable_sort(root_actions->begin(), root_actions->end(),
                   [](const RootActionStat& a, const RootActionStat& b) {
                     const double ma = a.MeanReward(), mb = b.MeanReward();
                     if (ma != mb) return ma > mb;
                     if (a.visits != b.visits) return a.visits > b.visits;
                     return a.canonical < b.canonical;
                   });
  if (bridge == nullptr) return;
  bridge->exported.clear();
  for (const auto& ec : tt.ExportSampledCosts(bridge->export_limit)) {
    bridge->exported.push_back({ec.key, ec.cost, 0});
  }
  bridge->root_actions = *root_actions;
  bridge->root_canonical = initial.CanonicalHash();
  bridge->seeded_root_children = root_seeded;
}

Result<SearchResult> MctsSearcher::Run(const DiffTree& initial) {
  // A single-shard table is exactly a per-searcher visited set plus an
  // in-run cost memo.
  MctsSearch search(rules_, evaluator_, opts_, /*tt_shards=*/1);
  SearchRun& run = search.run;
  // The reward anchor is the first draw of the tree's own stream.
  run.Start(initial, evaluator_);
  // Root-action stats feed the bridge, not SearchResult (which stays empty
  // for serial searchers, as documented).
  SeedBridge* bridge = opts_.seed_bridge.get();
  std::vector<RootActionStat> root_actions;
  RunMctsTree(initial, &search, &run.rng, &run.stats,
              bridge != nullptr ? &root_actions : nullptr);
  HarvestSearch(initial, search.tt, run.stats.root_seeded, &root_actions, bridge);
  return run.Finish();
}

}  // namespace ifgen
