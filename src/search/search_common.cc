#include "search/search_common.h"

#include <algorithm>

namespace ifgen {

SearchRun::SearchRun(const SearchOptions& opts)
    : opts(opts),
      rng(opts.seed),
      deadline(EffectiveSearchBudgetMs(opts.time_budget_ms, opts.time_control)) {
  const bool active = opts.time_control.active();
  if (opts.stop != nullptr) {
    stop = opts.stop.get();
  } else if (active) {
    stop = &local_stop;
  }
  if (active) {
    timeman = std::make_unique<TimeManager>(opts.time_control, opts.max_iterations, stop);
  }
  best.sink = opts.progress.get();
}

double SearchRun::Start(const DiffTree& initial, StateEvaluator* evaluator) {
  stats.initial_cost = evaluator->SampleCost(initial, &rng);
  best.Offer(initial, stats.initial_cost, watch, 0, &stats);
  return stats.initial_cost;
}

SearchResult SearchRun::Finish() {
  SearchResult r;
  r.best_tree = std::move(best.tree);
  r.best_cost = best.cost;
  r.stats = std::move(stats);
  r.stats.elapsed_ms = watch.ElapsedMillis();
  r.stats.stop_reason =
      ResolveStopReason(stop, deadline.Expired(), opts.time_budget_ms, opts.time_control,
                        r.stats.iterations, opts.max_iterations);
  return r;
}

SearchLoop::SearchLoop(SearchRun* run, SearchStats* stats, size_t max_iterations)
    : run_(run),
      stats_(stats),
      max_iterations_(max_iterations),
      check_interval_(std::max<uint32_t>(1, run->opts.time_control.check_interval)) {}

bool SearchLoop::Count() {
  ++stats_->iterations;
  if (run_->timeman == nullptr || ++since_check_ < check_interval_) return false;
  run_->timeman->Update(since_check_, run_->watch.ElapsedMillis(),
                        run_->best.CostSnapshot());
  since_check_ = 0;
  return true;
}

void SearchStats::Merge(const SearchStats& other) {
  iterations += other.iterations;
  states_expanded += other.states_expanded;
  rollouts += other.rollouts;
  rollout_steps += other.rollout_steps;
  transposition_hits += other.transposition_hits;
  if (initial_cost == 0.0) initial_cost = other.initial_cost;
  if (stop_reason == StopReason::kNone) stop_reason = other.stop_reason;
  fanout_samples += other.fanout_samples;
  fanout_sum += other.fanout_sum;
  fanout_max = std::max(fanout_max, other.fanout_max);
  root_seeded += other.root_seeded;
  if (rule_uses.size() < other.rule_uses.size()) {
    rule_uses.resize(other.rule_uses.size(), 0);
    rule_reward_sum.resize(other.rule_reward_sum.size(), 0.0);
  }
  for (size_t i = 0; i < other.rule_uses.size(); ++i) {
    rule_uses[i] += other.rule_uses[i];
    rule_reward_sum[i] += other.rule_reward_sum[i];
  }
  trace.insert(trace.end(), other.trace.begin(), other.trace.end());
  std::sort(trace.begin(), trace.end(), [](const BestTrace& a, const BestTrace& b) {
    return a.ms != b.ms ? a.ms < b.ms : a.cost > b.cost;
  });
}

namespace {

/// One biased-random rule application; false when no application succeeds.
bool RolloutStepRandom(const RolloutContext& ctx, DiffTree* state,
                       std::vector<RuleApplication>* apps, Rng* rng) {
  const SearchOptions& opts = *ctx.opts;
  // Optionally restrict this step to the forward (factoring) subset.
  std::vector<RuleApplication>* pool = apps;
  std::vector<RuleApplication> forward;
  if (opts.rollout_forward_bias > 0.5 && rng->Bernoulli(opts.rollout_forward_bias)) {
    for (const RuleApplication& a : *apps) {
      if (ctx.rules->IsForward(a)) forward.push_back(a);
    }
    if (!forward.empty()) pool = &forward;
  }
  for (int attempt = 0; attempt < 4 && !pool->empty(); ++attempt) {
    size_t pick = rng->UniformIndex(pool->size());
    auto next = ctx.rules->Apply(*state, (*pool)[pick]);
    if (next.ok()) {
      *state = std::move(next).MoveValueUnsafe();
      return true;
    }
    pool->erase(pool->begin() + static_cast<long>(pick));
  }
  return false;
}

}  // namespace

double RolloutAndEvaluateState(const RolloutContext& ctx, const DiffTree& start,
                               Rng* rng, SearchStats* stats, DiffTree* best_state) {
  const SearchOptions& opts = *ctx.opts;
  ++stats->rollouts;
  DiffTree state = start;
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](const DiffTree& s) {
    double cost = ctx.evaluator->SampleCost(s, rng);
    if (cost < best_cost) {
      best_cost = cost;
      *best_state = s;
    }
  };
  const bool saturate =
      opts.rollout_saturate_prob > 0 && rng->Bernoulli(opts.rollout_saturate_prob);
  for (size_t step = 0; step < opts.rollout_len; ++step) {
    if (!saturate && opts.rollout_stop_prob > 0 &&
        rng->Bernoulli(opts.rollout_stop_prob)) {
      break;
    }
    std::vector<RuleApplication> apps = ctx.rules->EnumerateApplications(state);
    stats->RecordFanout(apps.size());
    if (apps.empty()) break;
    if (saturate) {
      // Canonical factoring: first forward application in pre-order.
      bool advanced = false;
      for (const RuleApplication& a : apps) {
        if (!ctx.rules->IsForward(a)) continue;
        auto next = ctx.rules->Apply(state, a);
        if (!next.ok()) continue;
        state = std::move(next).MoveValueUnsafe();
        advanced = true;
        break;
      }
      if (!advanced) break;  // forward fixpoint reached
    } else {
      if (!RolloutStepRandom(ctx, &state, &apps, rng)) break;
    }
    ++stats->rollout_steps;
    if (opts.rollout_eval_prob > 0 && rng->Bernoulli(opts.rollout_eval_prob)) {
      consider(state);
    }
  }
  consider(state);  // the terminus is always evaluated (paper behavior)
  return best_cost;
}

}  // namespace ifgen
