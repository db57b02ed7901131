// Workload `jobs`: the serving tier. A ClusterRouter runs over two fork+exec
// worker processes (this binary, one generation thread each); client threads
// in a closed loop each submit a generation job, then long-poll it until it
// ends. The seed draws each client's request sequence: cold requests,
// exact repeats of the client's recent requests (result cache, locally or
// through a sibling's cache.probe), and experience=true requests over one
// log, which share a cost identity and warm-start from the workers'
// experience stores. Cache hits sit beside full searches, so the search
// layer runs both warm and cold.
//
// Output check: every repeat's result equals the first answer to the same
// request.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/dto.h"
#include "api/rpc.h"
#include "cluster/cluster_router.h"
#include "cluster/frame.h"
#include "cluster/process.h"
#include "common.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {

namespace api = ifgen::api;
namespace cluster = ifgen::cluster;

namespace {

constexpr int kWorkers = 2;
constexpr double kJobTail = 0.90;

struct Sizing {
  size_t clients = 0;
  int64_t flights_iterations = 0;
  int64_t sdss_iterations = 0;
  int64_t synthetic_iterations = 0;
};

Sizing SizeFor(bool small) {
  if (small) return {4, 6, 2, 4};
  return {4, 12, 2, 6};
}

/// One request of a client's sequence; `repeat_of` >= 0 names the earlier
/// request of the same client it copies.
struct Request {
  api::GenerateRequest req;
  int repeat_of = -1;
};

/// The client's request sequence. The mix is fixed — of every four
/// requests, two are cold (flights, sdss and synthetic logs in turn), one is
/// an experience request and one an exact repeat of one of the client's
/// last four requests — and the seed draws search seeds, synthetic
/// literals, experience iteration caps and which request a repeat copies.
std::vector<Request> MakeRequests(uint64_t seed, size_t client, const Sizing& size,
                                  size_t count) {
  ifgen::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7919 * (client + 1));
  std::vector<Request> out;
  size_t cold = 0;
  for (size_t i = 0; i < count; ++i) {
    Request r;
    r.req.options.time_budget_ms = 0;  // iteration-capped: deterministic
    r.req.options.seed = rng.UniformInt(1, 1 << 30);
    if (i % 4 == 3) {
      r.repeat_of = static_cast<int>(i - 1 - rng.UniformIndex(std::min<size_t>(4, i)));
      r.req = out[static_cast<size_t>(r.repeat_of)].req;
    } else if (i % 4 == 1) {
      // One cost identity (workload, options, search seed); iteration caps
      // are outside it, so these are distinct jobs that warm-start from
      // each other. Caps differ between clients, so two clients never run
      // the same experience request concurrently.
      r.req.workload = "flights";
      r.req.options.experience = true;
      r.req.options.seed = 7;
      r.req.options.max_iterations = size.flights_iterations + static_cast<int64_t>(client) +
                                     static_cast<int64_t>(size.clients) * rng.UniformInt(0, 7);
    } else {
      switch (cold++ % 3) {
        case 0:
          r.req.workload = "flights";
          r.req.options.max_iterations = size.flights_iterations;
          break;
        case 1:
          r.req.workload = "sdss";
          r.req.options.max_iterations = size.sdss_iterations;
          break;
        default: {
          const size_t shape = cold / 3;
          ifgen::LogSpec spec;
          spec.num_queries = 6 + shape % 4;
          spec.vary_predicate_count = (shape & 1) != 0;
          spec.optional_where = (shape & 2) != 0;
          spec.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
          r.req.workload = "synthetic";
          r.req.sqls = ifgen::GenerateLog(spec);
          r.req.options.max_iterations = size.synthetic_iterations;
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Two workers and a router over them; torn down by the destructor.
class Cluster {
 public:
  ~Cluster() { Stop(); }

  /// Spawns the workers — each reports ready once its stores are loaded and
  /// its RPC listener is up — and starts the router over them.
  ifgen::Status Start(const std::string& experience_dir) {
    IFGEN_ASSIGN_OR_RETURN(std::string self, cluster::SelfExePath());
    std::filesystem::create_directories(experience_dir);
    cluster::ClusterRouter::Options ropts;
    for (int i = 0; i < kWorkers; ++i) {
      IFGEN_ASSIGN_OR_RETURN(
          cluster::SpawnedWorker w,
          cluster::SpawnWorkerProcess(
              self, {"--rows", "5000", "--threads", "1", "--max-pending", "64",
                     "--experience-dir", experience_dir, "--worker-index",
                     std::to_string(i)}));
      workers_.push_back(w);
      ropts.workers.push_back({"127.0.0.1", w.port});
    }
    ropts.health_interval_ms = 100;
    ropts.reconnect_backoff_ms = 50;
    return router_.Start(std::move(ropts));
  }

  /// Every worker answers a stats RPC through the router.
  ifgen::Status HealthCheck() {
    IFGEN_ASSIGN_OR_RETURN(api::StatsResponse stats, router_.Stats());
    if (stats.cluster_workers.size() != workers_.size() ||
        !std::all_of(stats.cluster_workers.begin(), stats.cluster_workers.end(),
                     [](const api::WorkerStatsDto& w) { return w.healthy; })) {
      return ifgen::Status::Unavailable("a worker did not answer its health check");
    }
    return ifgen::Status::OK();
  }

  /// Stops the router and the workers; returns the workers' summed peak
  /// resident memory in MiB.
  double Stop() {
    double peak_mb = 0.0;
    router_.Stop();
    for (const cluster::SpawnedWorker& w : workers_) {
      peak_mb += ProcessPeakRssMb(w.pid);
      (void)cluster::TerminateWorker(w.pid, /*grace_ms=*/5000);
    }
    workers_.clear();
    return peak_mb;
  }

  cluster::ClusterRouter& router() { return router_; }
  const std::vector<cluster::SpawnedWorker>& workers() const { return workers_; }

 private:
  cluster::ClusterRouter router_;
  std::vector<cluster::SpawnedWorker> workers_;
};

/// Experience records the workers seeded into searches, asked of each
/// worker directly (the router's aggregated Stats() omits learn counters).
int64_t LearnSeeded(const std::vector<cluster::SpawnedWorker>& workers) {
  int64_t total = 0;
  for (const cluster::SpawnedWorker& w : workers) {
    auto fd = cluster::ConnectTcp("127.0.0.1", w.port, 2000);
    if (!fd.ok()) continue;
    api::RpcEnvelope env;
    env.method = api::kMethodStats;
    env.request_id = 1;
    if (cluster::WriteFrame(*fd, ifgen::WriteJson(env.ToJson())).ok()) {
      auto frame = cluster::ReadFrame(*fd, 5000);
      auto json = frame.ok() ? ifgen::ParseJson(*frame) : ifgen::Result<ifgen::JsonValue>(frame.status());
      auto reply = json.ok() ? api::RpcReply::FromJson(*json) : ifgen::Result<api::RpcReply>(json.status());
      if (reply.ok() && reply->ok) {
        auto stats = api::StatsResponse::FromJson(reply->payload);
        if (stats.ok()) total += stats->learn_seeded;
      }
    }
    ::close(*fd);
  }
  return total;
}

struct JobRecord {
  size_t client = 0;
  double latency_ms = 0.0;
  double submit_us = 0.0;
  bool ok = false;
  bool cache_hit = false;
  int64_t queued_ms = 0;
  int64_t run_ms = 0;
  double cost = 0.0;
};

struct LoadResult {
  std::vector<JobRecord> jobs;
  double seconds = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Client threads in a closed loop until `seconds` have passed; each job is
/// submitted, then long-polled until it is terminal. Results are compared
/// against the first answer of the request a repeat copies.
LoadResult RunLoad(Cluster* cl, const std::vector<std::vector<Request>>& requests,
                   double seconds, Report* report) {
  LoadResult out;
  std::mutex mu;
  ifgen::Stopwatch watch;
  auto client = [&](size_t c) {
    std::vector<std::optional<api::GenerateResponse>> answers;
    for (size_t i = 0; i < requests[c].size() && watch.ElapsedSeconds() < seconds; ++i) {
      const Request& r = requests[c][i];
      JobRecord rec;
      rec.client = c;
      const int64_t start = NowUs();
      std::optional<api::JobStatusResponse> done;
      {
        ScopedSpan job_span("jobs.job", "client", NextOpId());
        ifgen::Result<api::GenerateAccepted> acc = ifgen::Status::OK();
        {
          ScopedSpan s("cluster.submit", "cluster");
          acc = cl->router().SubmitGenerate(r.req);
        }
        rec.submit_us = static_cast<double>(NowUs() - start);
        while (acc.ok()) {
          ScopedSpan s("cluster.get_job", "cluster");
          auto st = cl->router().GetJob(acc->job_id, 60000);
          if (!st.ok()) break;
          if (st->state != "queued" && st->state != "running") {
            done = std::move(*st);
            break;
          }
        }
      }
      rec.latency_ms = static_cast<double>(NowUs() - start) / 1000.0;
      rec.ok = done.has_value() && done->state == "done" && done->result.value.has_value();
      answers.emplace_back();
      if (rec.ok) {
        const api::GenerateResponse& g = *done->result.value;
        rec.cache_hit = done->cache_hit;
        rec.queued_ms = done->queued_ms;
        rec.run_ms = done->run_ms;
        const ifgen::JsonValue* total = g.cost.Find("total");
        rec.cost = total != nullptr ? total->AsDouble() : 0.0;
        answers.back() = g;
        if (r.repeat_of >= 0) {
          const auto& first = answers[static_cast<size_t>(r.repeat_of)];
          if (first.has_value() && (first->cost != g.cost || first->difftree != g.difftree ||
                                    first->widgets != g.widgets)) {
            std::lock_guard<std::mutex> lock(mu);
            report->CheckFailed("client " + std::to_string(c) + " request " +
                                std::to_string(i) + ": repeat differs from its first answer");
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      ++out.attempted;
      if (!rec.ok) ++out.failed;
      out.jobs.push_back(rec);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < requests.size(); ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  out.seconds = watch.ElapsedSeconds();
  return out;
}

/// Round-trip median of the router's RPCs, merged over the workers' cells
/// of the router-process histogram.
double RouterRpcP50Us() {
  auto& reg = ifgen::obs::MetricsRegistry::Default();
  ifgen::obs::Histogram::Snapshot merged;
  for (int i = 0; i < kWorkers; ++i) {
    auto s = reg.HistogramSnapshot("ifgen_cluster_rpc_duration_us",
                                   {{"worker", std::to_string(i)}});
    if (merged.counts.empty()) {
      merged = s;
      continue;
    }
    for (size_t b = 0; b < merged.counts.size() && b < s.counts.size(); ++b) {
      merged.counts[b] += s.counts[b];
    }
    merged.count += s.count;
    merged.sum += s.sum;
  }
  return merged.Quantile(0.5);
}

}  // namespace

void RunJobs(const Args& args, bool primary, Report* report) {
  const Sizing size = SizeFor(args.tiny || !primary);
  const std::string exp_root =
      args.work_dir + "/experience-" + std::to_string(::getpid());
  // The health check's round trip is left out of the timed set-up: RPC round
  // trips on this transport take either well under a millisecond or about
  // 40 ms, so timing it would make set-up time bimodal.
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cl;
  for (int i = 0; i < (args.trace ? 1 : 9); ++i) {
    if (cl != nullptr) cl->Stop();
    cl = std::make_unique<Cluster>();
    ifgen::Stopwatch watch;
    ifgen::Status st = cl->Start(exp_root + "/" + std::to_string(i));
    const double seconds = watch.ElapsedSeconds();
    if (st.ok()) st = cl->HealthCheck();
    if (!st.ok()) {
      cl.reset();
      std::filesystem::remove_all(exp_root);
      return report->CheckFailed("jobs set-up: " + st.ToString());
    }
    setup_s.push_back(seconds);
  }
  std::vector<std::vector<Request>> requests;
  for (size_t c = 0; c < size.clients; ++c) {
    requests.push_back(MakeRequests(args.seed, c, size, 4096));
  }

  auto summarize = [&](const LoadResult& r) {
    std::vector<double> latency, queued, run;
    double costs = 0.0;
    size_t hits = 0, done = 0;
    for (const JobRecord& j : r.jobs) {
      if (!j.ok) {
        latency.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      ++done;
      latency.push_back(j.latency_ms);
      costs += j.cost;
      if (j.cache_hit) {
        ++hits;
      } else {
        queued.push_back(static_cast<double>(j.queued_ms));
        run.push_back(static_cast<double>(j.run_ms));
      }
    }
    return std::make_tuple(latency, queued, run, costs, hits, done);
  };

  if (!args.trace) {
    LoadResult load = RunLoad(cl.get(), requests, args.seconds, report);
    report->Count(load.attempted, load.failed);
    const auto [latency, queued, run, costs, hits, done] = summarize(load);
    std::fprintf(stderr, "jobs: %zu jobs (%zu failed, %zu cache hits) in %.2f s\n",
                 load.attempted, load.failed, hits, load.seconds);
    const double workers_mb = cl->Stop();
    report->Set("op_ms.p50", Median(latency), "ms");
    report->Set("op_ms.tail", Tail(latency, kJobTail), "ms");
    report->Set("ops_per_s", static_cast<double>(done) / load.seconds, "1/s");
    report->Set("interface_cost", costs / static_cast<double>(std::max<size_t>(done, 1)), "cost");
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", SelfPeakRssMb() + workers_mb, "MB");
    cl.reset();
    std::filesystem::remove_all(exp_root);
    return;
  }

  // Traced run: an untraced half (the overhead baseline), then a traced
  // half, whose jobs give the layer numbers. Requests continue where the
  // untraced half stopped, so the traced jobs are not all cache hits.
  const double half = primary ? args.seconds / 2.0 : 1.0;
  LoadResult untraced = RunLoad(cl.get(), requests, half, report);
  for (size_t c = 0; c < requests.size(); ++c) {
    size_t used = 0;
    for (const JobRecord& j : untraced.jobs) used += j.client == c ? 1 : 0;
    std::vector<Request> rest(requests[c].begin() + static_cast<std::ptrdiff_t>(used),
                              requests[c].end());
    for (Request& r : rest) {
      if (r.repeat_of >= 0) r.repeat_of -= static_cast<int>(used);
      if (r.repeat_of < 0) r.repeat_of = -1;
    }
    requests[c] = std::move(rest);
  }
  SpanLog::Enable(true);
  LoadResult traced = RunLoad(cl.get(), requests, half, report);
  SpanLog::Enable(false);
  const auto [latency, queued, run, costs, hits, done] = summarize(traced);
  (void)costs;
  std::vector<double> submit_us;
  for (const JobRecord& j : traced.jobs) submit_us.push_back(j.submit_us);
  int64_t probes = 0, probe_hits = 0;
  if (auto stats = cl->router().Stats(); stats.ok()) {
    for (const api::WorkerStatsDto& w : stats->cluster_workers) {
      probes += w.cache_probes;
      probe_hits += w.cache_probe_hits;
    }
  }
  const int64_t seeded = LearnSeeded(cl->workers());
  cl->Stop();
  cl.reset();
  std::filesystem::remove_all(exp_root);

  report->Set("cluster.submit_us", Median(submit_us), "us");
  report->Set("cluster.probe_hit_ratio",
              probes > 0 ? static_cast<double>(probe_hits) / static_cast<double>(probes) : 0.0,
              "ratio");
  report->Set("cluster.rpc_us.p50", RouterRpcP50Us(), "us");
  report->Set("cluster.rpc_failures",
              static_cast<double>(ifgen::obs::MetricsRegistry::Default().CounterTotal(
                  "ifgen_cluster_rpc_failures_total")),
              "count");
  report->Set("service.queued_ms.p50", Median(queued), "ms");
  report->Set("service.run_ms.p50", Median(run), "ms");
  report->Set("service.result_cache_hit_ratio",
              static_cast<double>(hits) / static_cast<double>(std::max<size_t>(done, 1)), "ratio");
  report->Set("learn.seeded_records", static_cast<double>(seeded), "count");
  if (primary) {
    const size_t attempted = untraced.attempted + traced.attempted;
    const size_t failed = untraced.failed + traced.failed;
    report->Count(attempted, failed);
    report->Set("ops.fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio");
    const auto untraced_latency = std::get<0>(summarize(untraced));
    report->Set("trace.overhead_pct",
                (Median(latency) / Median(untraced_latency) - 1.0) * 100.0, "%");
  }
}

}  // namespace perfbench
