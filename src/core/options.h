#pragma once

#include "cost/evaluator.h"
#include "engine/backend.h"
#include "rules/rule.h"
#include "search/search_common.h"
#include "widgets/widget.h"

namespace ifgen {

/// \brief Which generator to run.
enum class Algorithm : uint8_t {
  kMcts = 0,   ///< the paper's approach
  kRandom,     ///< random-walk baseline (Figure 6d-style output)
  kGreedy,     ///< hill climbing baseline
  kBeam,       ///< beam search baseline
  kExhaustive, ///< bounded exhaustive search (tiny inputs only)
  kBottomUp,   ///< Zhang et al. 2017 bottom-up baseline (no search)
};

std::string_view AlgorithmName(Algorithm a);

/// \brief Knobs of the parallel search runtime (root parallelism: one
/// independent MCTS tree per thread; see search/parallel_mcts.h).
///
/// Determinism contract: `num_threads <= 1` runs the serial searcher — the
/// result is bit-for-bit identical for a fixed seed. With more threads,
/// every tree draws from its own RNG stream (`Rng::Split` of the seed),
/// but search trajectories are timing-dependent: shared-cache hits consume
/// no RNG draws while misses do, and which tree fills a shared entry
/// first varies run-to-run, shifting the streams' consumption and hence
/// the states visited. Only the seeds, not the trajectories, are
/// reproducible beyond one thread.
struct ParallelOptions {
  /// Worker threads (= search trees); <= 1 = serial (bit-for-bit reproducible).
  size_t num_threads = 1;
};

/// \brief All knobs of the end-to-end generator, with paper defaults —
/// except the search refinements in `search.priors` (PriorOptions), which
/// default on and are ablatable: log-derived action priors (PUCT) and
/// progressive widening; `use_priors`/`progressive_widening` false recovers
/// the paper's uniform expand-all search. Delta-cost evaluation
/// (cost/delta.h) is always on: it changes recompute counts, never costs.
struct GeneratorOptions {
  Screen screen{100, 40};
  Algorithm algorithm = Algorithm::kMcts;
  SearchOptions search;
  /// Parallel runtime; `parallel.num_threads > 1` with kMcts selects the
  /// ParallelMctsSearcher.
  ParallelOptions parallel;
  RuleSetOptions rules;
  CostConstants constants;
  /// Execution backend the generated interface's queries run against
  /// (InterfaceSession::ExecuteCurrent, GenerationService::BackendFor).
  /// Does not affect the generated widgets, but it is part of the served
  /// contract (API requests select it per job, and sessions execute on it),
  /// so it participates in the service's result-cache key.
  BackendKind backend = BackendKind::kColumnar;
  /// k random widget assignments per state during search (paper's k).
  size_t k_assignments = 8;
  /// Derivations per query for the min-change U computation.
  size_t parse_limit = 8;
  /// Exhaustive widget enumeration cap for the final state.
  double enumeration_cap = 20000;
  /// Persistent-experience ablation flag (src/learn/): makes this job
  /// eligible to warm-start from the service's ExperienceStore (root-action
  /// virtual visits + transposition/delta-cache seeding) and to record its
  /// discoveries back. Turns on state-keyed sampling (EvalOptions) so
  /// sampled costs are pure functions of (state, options, seed) — seeded
  /// entries then change the amount of work, never the values or the RNG
  /// streams. Changes which costs the k random assignments produce vs. the
  /// default caller-stream sampling, so it participates in cache keys and
  /// fingerprints; the runtime store/bridge wiring does not.
  bool experience = false;
  /// Cross-job delta-cost cache shared by the service for same-cost-identity
  /// experience jobs (cost/delta.h documents why sharing is bit-safe).
  /// Runtime wiring — never part of any key or fingerprint.
  std::shared_ptr<DeltaCostCache> shared_delta_cache;

  EvalOptions MakeEvalOptions() const {
    EvalOptions e;
    e.screen = screen;
    e.constants = constants;
    e.k_assignments = k_assignments;
    e.parse_limit = parse_limit;
    e.enumeration_cap = enumeration_cap;
    e.state_keyed_sampling = experience;
    e.sampling_seed = search.seed;
    e.shared_delta = shared_delta_cache;
    return e;
  }
};

}  // namespace ifgen
