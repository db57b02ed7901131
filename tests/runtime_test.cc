#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/service.h"
#include "runtime/thread_pool.h"
#include "runtime/tt.h"
#include "workload/flights.h"

namespace ifgen {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  int count = 0;  // no atomics needed: everything runs on this thread
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) group.Run([&count] { ++count; });
  group.Wait();
  EXPECT_EQ(count, 10);
}

TEST(ThreadPool, NullPoolRunsInline) {
  int count = 0;
  TaskGroup group(nullptr);
  for (int i = 0; i < 10; ++i) group.Run([&count] { ++count; });
  group.Wait();
  EXPECT_EQ(count, 10);
}

TEST(ThreadPool, NestedTaskGroupsDoNotDeadlock) {
  // More nested waits than workers: only possible because Wait() helps run
  // pending tasks instead of blocking its worker.
  ThreadPool pool(2);
  std::atomic<int> leaf_count{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Run([&pool, &leaf_count] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j) {
        inner.Run([&leaf_count] { leaf_count.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaf_count.load(), 32);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

// ------------------------------------------------- TranspositionTable

TEST(TranspositionTable, VisitReportsFirstInsertion) {
  TranspositionTable tt(4);
  EXPECT_TRUE(tt.Visit(42));
  EXPECT_FALSE(tt.Visit(42));
  EXPECT_TRUE(tt.Visit(43));
  EXPECT_EQ(tt.transposition_hits(), 1u);
  EXPECT_EQ(tt.size(), 2u);
}

TEST(TranspositionTable, CostFirstWriterWins) {
  TranspositionTable tt(4);
  EXPECT_FALSE(tt.LookupCost(7).has_value());
  tt.StoreCost(7, 3.5);
  tt.StoreCost(7, 9.0);  // ignored: first writer wins
  auto cost = tt.LookupCost(7);
  ASSERT_TRUE(cost.has_value());
  EXPECT_DOUBLE_EQ(*cost, 3.5);
}

TEST(TranspositionTable, SeededCostsStayOutOfTheExport) {
  TranspositionTable tt(2);
  tt.StoreCost(9, 1.5);
  tt.SeedCost(3, 0.5);
  tt.SeedCost(9, 7.0);  // ignored: the local sample landed first
  tt.StoreCost(3, 2.0);  // ignored: the seed landed first
  tt.StoreCost(5, 2.5);
  ASSERT_TRUE(tt.LookupCost(3).has_value());
  EXPECT_DOUBLE_EQ(*tt.LookupCost(3), 0.5);
  const auto exported = tt.ExportHotCosts(8);
  ASSERT_EQ(exported.size(), 2u);  // by canonical hash, seeded 3 skipped
  EXPECT_EQ(exported[0].key, 5u);
  EXPECT_DOUBLE_EQ(exported[0].cost, 2.5);
  EXPECT_EQ(exported[1].key, 9u);
  EXPECT_DOUBLE_EQ(exported[1].cost, 1.5);
  EXPECT_EQ(tt.ExportHotCosts(1).size(), 1u);
}

TEST(TranspositionTable, ConcurrentVisitsInsertEachKeyExactlyOnce) {
  constexpr size_t kThreads = 8;
  constexpr size_t kKeys = 512;
  TranspositionTable tt(16);
  std::vector<std::atomic<int>> first_visits(kKeys);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tt, &first_visits, t] {
      for (size_t k = 0; k < kKeys; ++k) {
        // Spread keys over shards: the canonical hashes this table is keyed
        // by are pre-mixed, so a multiplicative spread mimics real keys.
        uint64_t key = k * 0x9e3779b97f4a7c15ULL + 1;
        if (tt.Visit(key)) first_visits[k].fetch_add(1);
        tt.StoreCost(key, static_cast<double>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(first_visits[k].load(), 1) << "key " << k;
  }
  EXPECT_EQ(tt.size(), kKeys);
  EXPECT_EQ(tt.transposition_hits(), kKeys * (kThreads - 1));
  EXPECT_EQ(tt.ExportHotCosts(kKeys).size(), kKeys);  // one cost per key
}

TEST(TranspositionTable, ConcurrentCostStoresAgreeAfterwards) {
  constexpr size_t kThreads = 8;
  TranspositionTable tt(8);
  std::vector<std::thread> threads;
  std::vector<double> seen(kThreads, -1.0);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tt, &seen, t] {
      tt.StoreCost(99, static_cast<double>(t) + 1.0);
      seen[t] = *tt.LookupCost(99);
    });
  }
  for (auto& th : threads) th.join();
  // Exactly one writer won; every reader that looked afterwards saw the
  // winner (values never drift once stored).
  double winner = *tt.LookupCost(99);
  EXPECT_GE(winner, 1.0);
  EXPECT_LE(winner, static_cast<double>(kThreads));
  for (size_t t = 0; t < kThreads; ++t) EXPECT_DOUBLE_EQ(seen[t], winner);
}

// --------------------------------------------------- GenerationService

JobSpec SmallJob(uint64_t seed) {
  JobSpec spec;
  spec.sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
  };
  spec.options.screen = {80, 24};
  spec.options.search.time_budget_ms = 0;  // iteration-capped: deterministic
  spec.options.search.max_iterations = 4;
  spec.options.search.seed = seed;
  return spec;
}

TEST(GenerationService, CompletesConcurrentBatch) {
  GenerationService::Options opts;
  opts.num_threads = 4;
  GenerationService service(opts);
  std::vector<JobSpec> jobs;
  for (uint64_t s = 0; s < 8; ++s) jobs.push_back(SmallJob(s));
  auto futures = service.SubmitBatch(std::move(jobs));
  ASSERT_EQ(futures.size(), 8u);
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(std::isfinite(result->cost.total()));
    EXPECT_GT(result->widgets.CountInteractive(), 0u);
  }
  EXPECT_EQ(service.jobs_submitted(), 8u);
  EXPECT_EQ(service.jobs_executed(), 8u);
  EXPECT_EQ(service.cache_hits(), 0u);
}

TEST(GenerationService, IdenticalResubmissionHitsCache) {
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto first = service.Submit(SmallJob(7)).get();
  ASSERT_TRUE(first.ok());
  auto second = service.Submit(SmallJob(7)).get();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.jobs_executed(), 1u);  // the second never ran
  EXPECT_DOUBLE_EQ(first->cost.total(), second->cost.total());
}

TEST(GenerationService, JobKeyIgnoresQueryOrderAndWhitespace) {
  JobSpec a = SmallJob(1);
  JobSpec b = SmallJob(1);
  std::swap(b.sqls[0], b.sqls[2]);        // order must not matter
  b.sqls[1] = "select  b  from   t  where x between 2 and 9";  // nor format
  EXPECT_EQ(GenerationService::JobKey(a), GenerationService::JobKey(b));

  JobSpec c = SmallJob(2);  // different seed: different result, different key
  EXPECT_NE(GenerationService::JobKey(a), GenerationService::JobKey(c));

  JobSpec d = SmallJob(1);
  d.sqls.push_back("select a from t");  // different log
  EXPECT_NE(GenerationService::JobKey(a), GenerationService::JobKey(d));
}

TEST(GenerationService, DestructionWithInFlightJobsIsSafe) {
  // The service must join its workers before tearing down the cache state
  // they touch; the future must still resolve (the pool drains on exit).
  auto future = [] {
    GenerationService::Options opts;
    opts.num_threads = 2;
    GenerationService service(opts);
    return service.Submit(SmallJob(3));
  }();  // service destroyed here, job possibly still running
  auto result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(GenerationService, JobKeySeparatesBackends) {
  // The backend is user-selectable per API request; two requests differing
  // only in backend must not alias one cached result (the response reports
  // the backend sessions will execute on).
  JobSpec a = SmallJob(1);
  a.options.backend = BackendKind::kColumnar;
  JobSpec b = SmallJob(1);
  b.options.backend = BackendKind::kReference;
  EXPECT_NE(GenerationService::JobKey(a), GenerationService::JobKey(b));
}

TEST(GenerationService, TtStoreKeyPinnedForPersistedExperience) {
  // Persisted experience files (.exp) are keyed by TtStoreKey, so a change
  // to its value silently turns every existing file cold. These literals
  // pin the key for the flights log with default options, and with
  // experience on (the spec that actually writes and reads the files).
  JobSpec plain{FlightsLog(), GeneratorOptions{}};
  EXPECT_EQ(GenerationService::TtStoreKey(plain), 0xc9c0fb3bd753a908ULL);
  JobSpec learning = plain;
  learning.options.experience = true;
  EXPECT_EQ(GenerationService::TtStoreKey(learning), 0x3280506a76e85376ULL);
}

// ----------------------------------------------------- tracked job protocol

TEST(GenerationService, TrackedJobRunsToDone) {
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto id = service.SubmitJob(SmallJob(11));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_TRUE(info->terminal());
  ASSERT_NE(info->result, nullptr);
  EXPECT_GT(info->result->widgets.CountInteractive(), 0u);
  EXPECT_FALSE(info->cache_hit);
  EXPECT_EQ(service.jobs_pending(), 0u);

  // Identical resubmission: immediate kDone via the cache.
  auto id2 = service.SubmitJob(SmallJob(11));
  ASSERT_TRUE(id2.ok());
  auto info2 = service.GetJob(*id2);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->state, JobState::kDone);
  EXPECT_TRUE(info2->cache_hit);
  EXPECT_EQ(info2->run_ms, 0);
}

TEST(GenerationService, FailedJobReportsError) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  JobSpec bad = SmallJob(1);
  bad.sqls = {"this is not sql at all ((("};
  auto id = service.SubmitJob(std::move(bad));
  ASSERT_TRUE(id.ok());
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_FALSE(info->error.ok());
  EXPECT_EQ(info->result, nullptr);
}

TEST(GenerationService, UnknownJobIdIsNotFound) {
  GenerationService service(GenerationService::Options{});
  auto info = service.GetJob(12345);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

TEST(GenerationService, BoundedQueueRejectsWithResourceExhausted) {
  // One worker blocked on a long-ish job + queue bound 1: the next
  // submission must be rejected, not enqueued.
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.max_pending_jobs = 1;
  opts.cache_capacity = 0;  // no cross-talk via the result cache
  GenerationService service(opts);
  auto first = service.SubmitJob(SmallJob(21));
  ASSERT_TRUE(first.ok());
  Result<GenerationService::JobId> second = service.SubmitJob(SmallJob(22));
  Result<GenerationService::JobId> third = service.SubmitJob(SmallJob(23));
  // At least one of the two extra submissions must have been rejected (the
  // first job may or may not have finished in between).
  const bool rejected = !second.ok() || !third.ok();
  EXPECT_TRUE(rejected);
  if (!second.ok()) {
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  }
  if (!third.ok()) {
    EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  }
  ASSERT_TRUE(service.WaitJob(*first).ok());
}

TEST(GenerationService, CancelQueuedJob) {
  // Saturate the single worker so a second job stays queued long enough to
  // cancel. Cancellation of running/terminal jobs is a documented no-op.
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 0;
  GenerationService service(opts);
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 6; ++s) {
    auto id = service.SubmitJob(SmallJob(30 + s));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Cancel from the back: the last job is most likely still queued.
  auto cancelled = service.CancelJob(ids.back());
  ASSERT_TRUE(cancelled.ok());
  for (GenerationService::JobId id : ids) {
    auto info = service.WaitJob(id);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->terminal());
    if (info->state == JobState::kCancelled) {
      EXPECT_EQ(info->error.code(), StatusCode::kCancelled);
      EXPECT_EQ(info->result, nullptr);
    }
  }
  EXPECT_EQ(service.jobs_pending(), 0u);
}

TEST(GenerationService, SubmitFutureAdapterMatchesTrackedPath) {
  // Submit is a future adapter over SubmitJob: both paths observe the same
  // tracked job machinery (submitted counter includes both).
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto via_future = service.Submit(SmallJob(41)).get();
  ASSERT_TRUE(via_future.ok());
  auto id = service.SubmitJob(SmallJob(41));
  ASSERT_TRUE(id.ok());
  auto via_job = service.WaitJob(*id);
  ASSERT_TRUE(via_job.ok());
  ASSERT_EQ(via_job->state, JobState::kDone);
  EXPECT_TRUE(via_job->cache_hit);  // same spec: cache answers the second
  EXPECT_DOUBLE_EQ(via_future->cost.total(), via_job->result->cost.total());
  EXPECT_EQ(service.jobs_submitted(), 2u);
}

TEST(GenerationService, JobHistoryEvictsOldestFinished) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.job_history_capacity = 2;
  GenerationService service(opts);
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 4; ++s) {
    auto id = service.SubmitJob(SmallJob(50 + s));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    ASSERT_TRUE(service.WaitJob(*id).ok());
  }
  // Only the 2 most recent survive.
  EXPECT_EQ(service.GetJob(ids[0]).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.GetJob(ids[1]).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.GetJob(ids[2]).ok());
  EXPECT_TRUE(service.GetJob(ids[3]).ok());
}

TEST(GenerationService, CacheEvictsLeastRecentlyUsed) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 1;
  GenerationService service(opts);
  ASSERT_TRUE(service.Submit(SmallJob(1)).get().ok());
  ASSERT_TRUE(service.Submit(SmallJob(2)).get().ok());  // evicts job 1
  ASSERT_TRUE(service.Submit(SmallJob(1)).get().ok());  // must re-execute
  EXPECT_EQ(service.cache_hits(), 0u);
  EXPECT_EQ(service.jobs_executed(), 3u);
}

}  // namespace
}  // namespace ifgen
