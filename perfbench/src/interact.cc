// Workload `interact`: simulated users drive generated interfaces over HTTP.
//
// Set-up generates interfaces for flights, sdss and synthetic (fixed
// iteration caps and search seeds), loads their databases at a size where
// execution is a real part of a step, starts the embedded ApiHttpFrontend
// over an in-process ApiService, and opens one session per user. Search does
// no work after set-up; engine, runtime, api and http do all of it.
//
// Load is an open loop: arrivals are a Poisson process at one fixed offered
// rate, drawn from the workload seed, sent by at most four sender threads
// (one connection each at a time). Every event is timed from its due time,
// so a stall delays — and is charged to — the events behind it; a failed or
// refused request counts as an infinitely late one.
// Each user's walk repeats a script of log-query loads, ANY options swept up
// then down, and OPT toggles: memo revisits and selection deltas (cheap)
// beside shape changes (full execution), with feed polls mixed in.
//
// Output check (after the load, outside the timed path): each user's table
// rebuilt from the event responses' diff batches equals the reference
// backend's result for the response's SQL, and the table rebuilt from the
// feed equals the final one. An event whose response SQL the reference
// backend cannot parse counts as a failed operation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api_service.h"
#include "api/dto.h"
#include "common.h"
#include "difftree/selection.h"
#include "engine/backend.h"
#include "http/api_http.h"
#include "http/http_client.h"
#include "obs/trace.h"
#include "runtime/interactive.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/loader.h"
#include "workloads.h"

namespace perfbench {

namespace api = ifgen::api;
using ifgen::GeneratedInterface;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr size_t kSenders = 4;  // nproc of the reference box
constexpr double kEventTail = 0.99;
/// Share of requests that are feed polls rather than widget events.
constexpr double kPollShare = 0.2;

struct Sizing {
  size_t rows = 0;
  size_t users_per_interface = 0;
  /// Offered rate, events + polls per second.
  double rate = 0.0;
  size_t flights_iterations = 0;
  size_t sdss_iterations = 0;
  size_t synthetic_iterations = 0;
};

Sizing SizeFor(const Args& args) {
  Sizing s;
  if (args.tiny) {
    s.rows = 300;
    s.users_per_interface = 1;
    s.rate = 40.0;
    s.flights_iterations = 8;
    s.sdss_iterations = 2;
    s.synthetic_iterations = 4;
  } else {
    s.rows = 20000;
    s.users_per_interface = 4;
    s.rate = 200.0;
    s.flights_iterations = 40;
    s.sdss_iterations = 6;
    s.synthetic_iterations = 15;
  }
  return s;
}

struct Interface {
  std::string workload;
  std::string job_id;
  std::shared_ptr<const GeneratedInterface> result;
  std::vector<api::WidgetEventRequest> script;
  std::vector<std::string> script_json;
};

struct User {
  size_t iface = 0;
  std::string session_id;
  api::TableDto initial;
  size_t next_step = 0;
  /// Response bodies, in send order (kept for the output check).
  std::vector<std::string> event_bodies;
  std::vector<std::string> poll_bodies;
};

/// One set-up: the service, its HTTP frontend, the interfaces and sessions.
/// Members are destroyed in reverse order, so the frontend stops before the
/// service it serves goes away.
struct Env {
  std::unique_ptr<api::ApiService> service;
  std::unique_ptr<ifgen::http::ApiHttpFrontend> frontend;
  int port = 0;
  std::vector<Interface> interfaces;
  std::vector<User> users;
};

/// The scripted walk: every log query loaded twice, every ANY (up to 12
/// options) swept up then down, every OPT toggled off and on.
std::vector<api::WidgetEventRequest> BuildScript(const GeneratedInterface& iface) {
  std::vector<api::WidgetEventRequest> script;
  for (int replay = 0; replay < 2; ++replay) {
    for (const ifgen::Ast& q : iface.queries) {
      api::WidgetEventRequest e;
      e.kind = "load_query";
      e.sql = *ifgen::Unparse(q);
      script.push_back(e);
    }
  }
  ifgen::ChoiceIndex index(iface.difftree);
  for (size_t id = 0; id < index.size(); ++id) {
    const ifgen::DiffTree* node = index.node(id);
    if (node->kind == ifgen::DKind::kAny && node->children.size() <= 12) {
      const int n = static_cast<int>(node->children.size());
      for (int k = 0; k < 2 * n; ++k) {
        api::WidgetEventRequest e;
        e.kind = "set_any";
        e.choice_id = static_cast<int64_t>(id);
        e.option_index = k < n ? k : 2 * n - 1 - k;
        script.push_back(e);
      }
    } else if (node->kind == ifgen::DKind::kOpt) {
      for (bool present : {false, true}) {
        api::WidgetEventRequest e;
        e.kind = "set_opt";
        e.choice_id = static_cast<int64_t>(id);
        e.present = present;
        script.push_back(e);
      }
    }
  }
  return script;
}

/// Drops the steps a fresh session rejects (widgets hidden in the state the
/// walk reaches), until two further passes of the script all succeed.
ifgen::Status ValidateScript(api::ApiService* svc, Interface* iface) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    api::SessionOpenRequest open;
    open.job_id = iface->job_id;
    IFGEN_ASSIGN_OR_RETURN(api::SessionOpenResponse twin, svc->OpenSession(open));
    std::vector<api::WidgetEventRequest> kept;
    bool clean = true;
    for (int pass = 0; pass < 3; ++pass) {
      for (const api::WidgetEventRequest& e : iface->script) {
        const bool ok = svc->ApplyEvent(twin.session_id, e).ok();
        if (pass == 0 && ok) kept.push_back(e);
        if (pass > 0 && !ok) clean = false;
      }
      if (pass == 0) {
        if (kept.size() != iface->script.size()) clean = false;
        iface->script = kept;
      }
    }
    (void)svc->CloseSession(twin.session_id);
    if (clean) {
      if (iface->script.empty()) return ifgen::Status::Invalid("empty script");
      iface->script_json.clear();
      for (const auto& e : iface->script) {
        iface->script_json.push_back(ifgen::WriteJson(e.ToJson()));
      }
      return ifgen::Status::OK();
    }
  }
  return ifgen::Status::Internal("script for " + iface->workload + " never settled");
}

ifgen::Result<std::unique_ptr<Env>> SetUp(const Sizing& size) {
  auto env = std::make_unique<Env>();
  api::ApiService::Options opts;
  opts.workload_rows = size.rows;
  IFGEN_ASSIGN_OR_RETURN(env->service, api::ApiService::Create(opts));
  api::ApiService* svc = env->service.get();

  const std::pair<const char*, size_t> targets[] = {
      {"flights", size.flights_iterations},
      {"sdss", size.sdss_iterations},
      {"synthetic", size.synthetic_iterations}};
  for (const auto& [workload, iterations] : targets) {
    api::GenerateRequest req;
    req.workload = workload;
    req.options.time_budget_ms = 0;
    req.options.max_iterations = static_cast<int64_t>(iterations);
    req.options.seed = 17;
    IFGEN_ASSIGN_OR_RETURN(api::GenerateAccepted acc, svc->SubmitGenerate(req));
    Interface iface;
    iface.workload = workload;
    iface.job_id = acc.job_id;
    env->interfaces.push_back(std::move(iface));
  }
  for (Interface& iface : env->interfaces) {
    IFGEN_ASSIGN_OR_RETURN(api::JobStatusResponse st, svc->GetJob(iface.job_id, 120000));
    if (st.state != "done") return ifgen::Status::Internal(iface.job_id + " " + st.state);
    const uint64_t id = std::stoull(iface.job_id.substr(2));
    IFGEN_ASSIGN_OR_RETURN(auto info, svc->generation_service().GetJob(id));
    iface.result = info.result;
    iface.script = BuildScript(*iface.result);
    IFGEN_RETURN_NOT_OK(ValidateScript(svc, &iface));
  }

  env->frontend = std::make_unique<ifgen::http::ApiHttpFrontend>(svc);
  ifgen::http::ApiHttpFrontend::Options fopts;
  fopts.http.num_threads = kSenders;
  IFGEN_RETURN_NOT_OK(env->frontend->Start(fopts));
  env->port = env->frontend->port();

  for (size_t u = 0; u < env->interfaces.size() * size.users_per_interface; ++u) {
    User user;
    user.iface = u % env->interfaces.size();
    api::SessionOpenRequest open;
    open.job_id = env->interfaces[user.iface].job_id;
    IFGEN_ASSIGN_OR_RETURN(
        auto resp, ifgen::http::Post(kHost, env->port, "/v1/sessions",
                                     ifgen::WriteJson(open.ToJson())));
    if (resp.status != 200) return ifgen::Status::Internal("session open: " + resp.body);
    IFGEN_ASSIGN_OR_RETURN(ifgen::JsonValue j, ifgen::ParseJson(resp.body));
    IFGEN_ASSIGN_OR_RETURN(api::SessionOpenResponse s, api::SessionOpenResponse::FromJson(j));
    user.session_id = s.session_id;
    user.initial = std::move(s.table);
    env->users.push_back(std::move(user));
  }
  return env;
}

// ------------------------------------------------------------------ load

struct Op {
  int64_t due_us = 0;
  size_t user = 0;
  bool poll = false;
  size_t step = 0;
  // Filled by the sender.
  int64_t start_us = 0;
  int64_t end_us = 0;
  bool ok = false;
};

struct WindowResult {
  std::vector<double> event_ms;  ///< due -> response; infinite for a failed event
  std::vector<double> lag_ms;    ///< due -> send
  size_t events = 0;
  size_t attempted = 0;
  size_t failed = 0;
  double seconds = 0.0;
};

/// One open-loop window at `rate` ops/s for `seconds`. Arrivals and the
/// user/poll draws come from `rng`; each user's ops go to one sender thread
/// in due order, so a user's responses arrive in the order it sent them.
WindowResult RunWindow(Env* env, double rate, double seconds, ifgen::Rng* rng) {
  std::vector<Op> ops;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= seconds) break;
    Op op;
    op.due_us = static_cast<int64_t>(t * 1e6);
    op.user = rng->UniformIndex(env->users.size());
    op.poll = rng->Bernoulli(kPollShare);
    if (!op.poll) {
      User& u = env->users[op.user];
      op.step = u.next_step;
      u.next_step = (u.next_step + 1) % env->interfaces[u.iface].script.size();
    }
    ops.push_back(op);
  }
  std::vector<std::string> body_of(ops.size());

  const int64_t base = NowUs() + 20000;  // first arrival 20 ms out
  auto sender = [&](size_t tid) {
    for (size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      if (op.user % kSenders != tid) continue;
      const int64_t due = base + op.due_us;
      const int64_t now = NowUs();
      if (now < due) std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      const User& u = env->users[op.user];
      const Interface& iface = env->interfaces[u.iface];
      op.start_us = NowUs();
      ifgen::Result<ifgen::http::ClientResponse> resp = ifgen::Status::OK();
      {
        ScopedSpan span(op.poll ? "interact.poll" : "interact.event", "client", NextOpId());
        const std::string target = "/v1/sessions/" + u.session_id;
        resp = op.poll ? ifgen::http::Get(kHost, env->port, target + "/feed")
                       : ifgen::http::Post(kHost, env->port, target + "/events",
                                           iface.script_json[op.step]);
      }
      op.end_us = NowUs();
      op.ok = resp.ok() && resp->status == 200;
      if (op.ok) body_of[i] = std::move(resp->body);
      op.due_us = due;
    }
  };
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kSenders; ++tid) threads.emplace_back(sender, tid);
  for (std::thread& th : threads) th.join();

  WindowResult w;
  int64_t last_end = base;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    ++w.attempted;
    last_end = std::max(last_end, op.end_us);
    const double lag = static_cast<double>(op.start_us - op.due_us) / 1000.0;
    w.lag_ms.push_back(lag);
    User& u = env->users[op.user];
    if (!op.ok) {
      ++w.failed;
      if (!op.poll) w.event_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    if (op.poll) {
      u.poll_bodies.push_back(std::move(body_of[i]));
    } else {
      ++w.events;
      w.event_ms.push_back(static_cast<double>(op.end_us - op.due_us) / 1000.0);
      u.event_bodies.push_back(std::move(body_of[i]));
    }
  }
  w.seconds = static_cast<double>(last_end - base) / 1e6;
  return w;
}

// ------------------------------------------------------------------ check

using Rows = std::vector<std::vector<ifgen::Value>>;

bool ApplyBatch(const api::ChangeBatchDto& batch, Rows* rows) {
  auto remove = [&](const std::vector<ifgen::Value>& row) {
    auto it = std::find(rows->begin(), rows->end(), row);
    if (it == rows->end()) return false;
    rows->erase(it);
    return true;
  };
  for (const api::RowChangeDto& c : batch.changes) {
    if (c.kind == "add") {
      rows->push_back(c.row);
    } else if (c.kind == "remove") {
      if (!remove(c.row)) return false;
    } else if (c.kind == "update") {
      if (!remove(c.old_row)) return false;
      rows->push_back(c.row);
    } else {
      return false;
    }
  }
  return true;
}

/// Reference results per (workload, sql), executed on a copy of each
/// workload's database by the reference backend.
class Reference {
 public:
  explicit Reference(size_t rows) : rows_(rows) {}

  ifgen::Status Check(const std::string& workload, const std::string& sql,
                      const Rows& rows) {
    IFGEN_ASSIGN_OR_RETURN(const ifgen::Table* expected, Lookup(workload, sql));
    ifgen::Table rebuilt(expected->schema());
    for (const auto& row : rows) IFGEN_RETURN_NOT_OK(rebuilt.AppendRow(row));
    return ifgen::TablesEquivalent(rebuilt, *expected);
  }

 private:
  ifgen::Result<const ifgen::Table*> Lookup(const std::string& workload,
                                            const std::string& sql) {
    auto key = workload + "\n" + sql;
    auto it = cache_.find(key);
    if (it != cache_.end()) return &it->second;
    auto& slot = stores_[workload];
    if (slot.backend == nullptr) {
      IFGEN_ASSIGN_OR_RETURN(ifgen::WorkloadBundle b, ifgen::LoadWorkload(workload, rows_));
      slot.bundle = std::make_unique<ifgen::WorkloadBundle>(std::move(b));
      IFGEN_ASSIGN_OR_RETURN(slot.backend,
                             ifgen::MakeBackendFor(*slot.bundle, ifgen::BackendKind::kReference));
    }
    IFGEN_ASSIGN_OR_RETURN(ifgen::Table t, slot.backend->ExecuteSql(sql));
    return &cache_.emplace(key, std::move(t)).first->second;
  }

  struct Store {
    std::unique_ptr<ifgen::WorkloadBundle> bundle;
    std::unique_ptr<ifgen::ExecutionBackend> backend;
  };
  size_t rows_;
  std::map<std::string, Store> stores_;
  std::map<std::string, ifgen::Table> cache_;
};

/// Whether two tables hold the same rows, in any order.
bool SameRows(Rows a, Rows b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// Returns the number of event responses whose SQL the reference backend
/// cannot parse: their tables cannot be checked, so they count as failed.
size_t CheckUsers(Env* env, const Sizing& size, Report* report) {
  // Final drain so the feed has delivered every step.
  for (User& u : env->users) {
    auto resp = ifgen::http::Get(kHost, env->port, "/v1/sessions/" + u.session_id + "/feed");
    if (!resp.ok() || resp->status != 200) {
      report->CheckFailed("final feed poll failed for " + u.session_id);
      continue;
    }
    u.poll_bodies.push_back(std::move(resp->body));
  }
  Reference reference(size.rows);
  size_t unparseable = 0;
  for (const User& u : env->users) {
    const std::string& workload = env->interfaces[u.iface].workload;
    const std::string who = u.session_id + " (" + workload + ")";
    Rows table = u.initial.rows;
    // Checked six times per user and after the last event; a check that
    // falls on an unparseable step moves to the next step that parses.
    const size_t every = std::max<size_t>(1, u.event_bodies.size() / 6);
    bool due = false;
    for (size_t i = 0; i < u.event_bodies.size(); ++i) {
      auto j = ifgen::ParseJson(u.event_bodies[i]);
      if (!j.ok()) {
        report->CheckFailed(who + ": bad event response");
        return unparseable;
      }
      auto step = api::StepResponse::FromJson(*j);
      if (!step.ok()) {
        report->CheckFailed(who + ": " + step.status().ToString());
        return unparseable;
      }
      if (!ApplyBatch(step->batch, &table)) {
        report->CheckFailed(who + ": event batch removes a row the table lacks");
        return unparseable;
      }
      due = due || i % every == 0 || i + 1 == u.event_bodies.size();
      if (!ifgen::ParseQuery(step->sql).ok()) {
        ++unparseable;
        continue;
      }
      if (!due) continue;
      due = false;
      if (auto st = reference.Check(workload, step->sql, table); !st.ok()) {
        report->CheckFailed(who + " after event " + std::to_string(i) + ": " + st.ToString());
        return unparseable;
      }
    }
    Rows feed = u.initial.rows;
    for (const std::string& body : u.poll_bodies) {
      auto j = ifgen::ParseJson(body);
      auto batch = j.ok() ? api::ChangeBatchDto::FromJson(*j)
                          : ifgen::Result<api::ChangeBatchDto>(j.status());
      if (!batch.ok() || !ApplyBatch(*batch, &feed)) {
        report->CheckFailed(who + ": feed batch does not apply");
        return unparseable;
      }
    }
    if (!SameRows(std::move(feed), std::move(table))) {
      report->CheckFailed(who + ": the table rebuilt from the feed differs from the final one");
    }
  }
  if (unparseable > 0) {
    std::fprintf(stderr,
                 "interact: %zu event responses carry SQL the reference backend cannot "
                 "parse\n",
                 unparseable);
  }
  return unparseable;
}

// ------------------------------------------------------------------ layers

/// One script step on a runtime; `query` is the parsed SQL of a load step.
ifgen::Result<ifgen::InteractiveRuntime::StepReport> ApplyToRuntime(
    ifgen::InteractiveRuntime* rt, const api::WidgetEventRequest& e, const ifgen::Ast& query) {
  if (e.kind == "set_any") {
    return rt->SetAnyChoice(static_cast<int>(e.choice_id), static_cast<int>(e.option_index));
  }
  if (e.kind == "set_opt") return rt->SetOptPresent(static_cast<int>(e.choice_id), e.present);
  return rt->LoadQuery(query);
}

/// Per-layer replay of every interface's script: ApiService::ApplyEvent on a
/// twin session, StepResponse encoding, InteractiveRuntime steps, and
/// ExecutionBackend::Execute on each step's SQL.
void ReplayLayers(Env* env, const Sizing& size, Report* report) {
  std::vector<double> apply_us, encode_us, step_us, exec_us, rows_out;
  ifgen::InteractiveRuntime::Counters total;
  size_t prepares = 0;
  size_t plan_hits = 0;
  for (const Interface& iface : env->interfaces) {
    api::SessionOpenRequest open;
    open.job_id = iface.job_id;
    auto twin = env->service->OpenSession(open);
    if (!twin.ok()) return report->CheckFailed("twin session: " + twin.status().ToString());
    auto bundle = ifgen::LoadWorkload(iface.workload, size.rows);
    if (!bundle.ok()) return report->CheckFailed(bundle.status().ToString());
    auto rt_backend = ifgen::MakeBackendFor(*bundle, ifgen::BackendKind::kColumnar);
    auto exec_backend = ifgen::MakeBackendFor(*bundle, ifgen::BackendKind::kColumnar);
    if (!rt_backend.ok() || !exec_backend.ok()) return report->CheckFailed("backend");
    std::shared_ptr<ifgen::ExecutionBackend> shared(std::move(*rt_backend));
    auto rt = ifgen::InteractiveRuntime::Create(*iface.result, ifgen::CostConstants{}, shared);
    if (!rt.ok()) return report->CheckFailed("runtime: " + rt.status().ToString());
    for (int pass = 0; pass < 2; ++pass) {
      for (const api::WidgetEventRequest& e : iface.script) {
        int64_t s = NowUs();
        auto resp = env->service->ApplyEvent(twin->session_id, e);
        apply_us.push_back(static_cast<double>(NowUs() - s));
        if (!resp.ok()) return report->CheckFailed("twin event: " + resp.status().ToString());
        s = NowUs();
        const std::string encoded = ifgen::WriteJson(resp->ToJson());
        encode_us.push_back(static_cast<double>(NowUs() - s));

        ifgen::Ast load;
        if (e.kind == "load_query") {
          auto parsed = ifgen::ParseQuery(e.sql);
          if (!parsed.ok()) return report->CheckFailed("script sql: " + e.sql);
          load = std::move(*parsed);
        }
        s = NowUs();
        auto step = ApplyToRuntime(rt->get(), e, load);
        step_us.push_back(static_cast<double>(NowUs() - s));
        if (!step.ok()) return report->CheckFailed("runtime step: " + step.status().ToString());
        auto q = (*rt)->CurrentQuery();
        if (!q.ok()) return report->CheckFailed("step query: " + q.status().ToString());
        s = NowUs();
        auto table = (*exec_backend)->Execute(*q);
        exec_us.push_back(static_cast<double>(NowUs() - s));
        if (!table.ok()) return report->CheckFailed("execute: " + table.status().ToString());
        rows_out.push_back(static_cast<double>(table->num_rows()));
      }
    }
    (void)env->service->CloseSession(twin->session_id);
    const auto c = (*rt)->counters();
    total.steps += c.steps;
    total.noops += c.noops;
    total.cache_hits += c.cache_hits;
    total.delta_execs += c.delta_execs;
    total.retruncates += c.retruncates;
    total.full_execs += c.full_execs;
    const ifgen::BackendStats bs = (*exec_backend)->stats();
    prepares += bs.prepares;
    plan_hits += bs.plan_cache_hits;
  }
  std::vector<double> floor_us;
  for (int i = 0; i < 300; ++i) {
    const int64_t s = NowUs();
    auto resp = ifgen::http::Get(kHost, env->port, "/v1/healthz");
    floor_us.push_back(static_cast<double>(NowUs() - s));
    if (!resp.ok() || resp->status != 200) return report->CheckFailed("healthz failed");
  }
  const double steps = static_cast<double>(std::max<size_t>(total.steps, 1));
  report->Set("http.floor_us", Median(floor_us), "us");
  report->Set("api.apply_event_us", Median(apply_us), "us");
  report->Set("api.step_encode_us", Median(encode_us), "us");
  report->Set("runtime.step_us", Median(step_us), "us");
  report->Set("runtime.incremental_ratio",
              static_cast<double>(total.noops + total.delta_execs + total.retruncates) / steps,
              "ratio");
  report->Set("runtime.memo_hit_ratio", static_cast<double>(total.cache_hits) / steps, "ratio");
  report->Set("runtime.full_exec_ratio", static_cast<double>(total.full_execs) / steps, "ratio");
  report->Set("engine.execute_us", Median(exec_us), "us");
  report->Set("engine.plan_cache_hit_ratio",
              static_cast<double>(plan_hits) / static_cast<double>(std::max<size_t>(plan_hits + prepares, 1)),
              "ratio");
  report->Set("engine.rows_out", Mean(rows_out), "count");
}

}  // namespace

void RunInteract(const Args& args, bool primary, Report* report) {
  const Sizing size = SizeFor(args);
  ifgen::Stopwatch setup_watch;
  auto set_up = SetUp(size);
  if (!set_up.ok()) return report->CheckFailed("interact set-up: " + set_up.status().ToString());
  const double setup_s = setup_watch.ElapsedSeconds();
  std::unique_ptr<Env> env = std::move(*set_up);
  ifgen::Rng rng(args.seed * 0x2545F4914F6CDD1DULL + 3);

  if (!args.trace) {
    const WindowResult w = RunWindow(env.get(), size.rate, args.seconds, &rng);
    report->Count(w.attempted, w.failed);
    std::fprintf(stderr,
                 "interact: rate %.0f/s: %zu ops (%zu failed) in %.2f s, event p50 %.2f ms "
                 "p99 %.2f ms, lag p99 %.2f ms\n",
                 size.rate, w.attempted, w.failed, w.seconds, Median(w.event_ms),
                 Tail(w.event_ms, kEventTail), Quantile(w.lag_ms, 0.99));
    report->Count(0, CheckUsers(env.get(), size, report));
    std::vector<double> costs;
    for (const Interface& i : env->interfaces) costs.push_back(i.result->cost.total());
    report->Set("op_ms.p50", Median(w.event_ms), "ms");
    report->Set("op_ms.tail", Tail(w.event_ms, kEventTail), "ms");
    report->Set("ops_per_s", static_cast<double>(w.events) / w.seconds, "1/s");
    report->Set("interface_cost", Mean(costs), "cost");
    report->Set("setup_s", setup_s, "s");
    report->Set("peak_rss_mb", SelfPeakRssMb(), "MB");
    return;
  }

  // Traced run: a warm-up window (every user's memo fills on its first pass
  // over the script), an untraced window at the offered rate (the
  // overhead baseline), then a traced one with the program's spans turned
  // on, then the layer replay. The traced window stays within the program's
  // trace ring.
  const double rate = size.rate;
  const double window_s =
      primary ? std::min(args.seconds / 2.5, 2500.0 / rate) : 1.0;
  WindowResult warm = RunWindow(env.get(), rate, window_s / 2.0, &rng);
  WindowResult untraced = RunWindow(env.get(), rate, window_s, &rng);
  SpanLog::Enable(true);
  ifgen::obs::SetTracingEnabled(true);
  WindowResult traced = RunWindow(env.get(), rate, window_s, &rng);
  ifgen::obs::SetTracingEnabled(false);
  SpanLog::Enable(false);
  SpanLog::Global().ImportProgramSpans();
  const size_t unparseable = CheckUsers(env.get(), size, report);

  const std::map<std::string, double> self_us = SpanLog::Global().SelfUsByCategory(
      {"interact.event", "interact.poll", "http.request"});
  auto self_ms = [&](const char* cat) {
    auto it = self_us.find(cat);
    return it == self_us.end() ? 0.0 : it->second / 1000.0;
  };
  const double ops = static_cast<double>(std::max<size_t>(traced.attempted, 1));
  // Client spans enclose the server's http.request spans, which run on the
  // server's threads: the client's own share is its total minus theirs.
  const double server_ms = self_ms("http") + self_ms("runtime") + self_ms("engine");
  report->Set("self.client_ms", std::max(0.0, self_ms("client") - server_ms) / ops, "ms");
  report->Set("self.http_ms", self_ms("http") / ops, "ms");
  // The runtime executes prepared plans directly; only plan compilation
  // has an engine span of its own, so execution counts as runtime here.
  report->Set("self.runtime_ms", (self_ms("runtime") + self_ms("engine")) / ops, "ms");
  report->Set("interact.send_lag_ms.p99", Quantile(untraced.lag_ms, 0.99), "ms");
  ReplayLayers(env.get(), size, report);
  if (primary) {
    const size_t attempted = warm.attempted + untraced.attempted + traced.attempted;
    const size_t failed = warm.failed + untraced.failed + traced.failed + unparseable;
    report->Count(attempted, failed);
    report->Set("ops.fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio");
    report->Set("trace.overhead_pct",
                (Median(traced.event_ms) / Median(untraced.event_ms) - 1.0) * 100.0, "%");
  }
}

}  // namespace perfbench
