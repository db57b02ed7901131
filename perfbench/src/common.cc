#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "obs/trace.h"
#include "util/json.h"

namespace perfbench {

// ---------------------------------------------------------------- report

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = {value, unit};
}

void Report::CheckFailed(const std::string& what) {
  ++check_failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::RequireExactly(const std::vector<std::string>& names) {
  std::map<std::string, Metric> kept;
  for (const std::string& n : names) {
    auto it = metrics_.find(n);
    if (it == metrics_.end()) {
      CheckFailed("metric not measured: " + n);
      continue;
    }
    if (!std::isfinite(it->second.value)) {
      CheckFailed("metric is not finite: " + n);
      continue;
    }
    kept.emplace(n, it->second);
  }
  metrics_ = std::move(kept);
  order_ = names;
}

void Report::PrintTable() const {
  for (const std::string& n : order_) {
    auto it = metrics_.find(n);
    if (it == metrics_.end()) continue;
    std::fprintf(stderr, "  %-34s %14.6g %s\n", n.c_str(), it->second.value,
                 it->second.unit.c_str());
  }
}

std::string Report::ResultLine() const {
  ifgen::JsonValue metrics = ifgen::JsonValue::Object();
  for (const std::string& n : order_) {
    auto it = metrics_.find(n);
    if (it == metrics_.end()) continue;
    ifgen::JsonValue m = ifgen::JsonValue::Object();
    m.Set("value", ifgen::JsonValue::Double(it->second.value));
    m.Set("unit", ifgen::JsonValue::Str(it->second.unit));
    metrics.Set(n, std::move(m));
  }
  ifgen::JsonValue out = ifgen::JsonValue::Object();
  out.Set("correct", ifgen::JsonValue::Bool(correct()));
  out.Set("attempted", ifgen::JsonValue::Int(static_cast<int64_t>(std::max<size_t>(attempted_, 1))));
  out.Set("failed", ifgen::JsonValue::Int(static_cast<int64_t>(failed_)));
  out.Set("metrics", std::move(metrics));
  return ifgen::WriteJson(out);
}

// ---------------------------------------------------------------- samples

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Tail(const std::vector<double>& v, double q) {
  const double n = static_cast<double>(v.size());
  if (n * (1.0 - q) >= 10.0) return Quantile(v, q);
  if (n <= 20.0) {
    std::fprintf(stderr, "warning: %zu samples are too few for a tail; using the median\n",
                 v.size());
    return Median(v);
  }
  const double fallback = 1.0 - 10.0 / n;
  std::fprintf(stderr, "warning: %zu samples: tail p%.1f instead of p%.1f\n", v.size(),
               fallback * 100.0, q * 100.0);
  return Quantile(v, fallback);
}

// ---------------------------------------------------------------- memory

double SelfPeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- spans

namespace {

std::atomic<bool> g_spans_enabled{false};
thread_local std::vector<int64_t> t_open_spans;

}  // namespace

int64_t NowUs() { return ifgen::obs::TraceNowUs(); }

int64_t NextOpId() {
  static std::atomic<int64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Enable(bool on) { g_spans_enabled.store(on, std::memory_order_relaxed); }
bool SpanLog::enabled() { return g_spans_enabled.load(std::memory_order_relaxed); }

SpanLog& SpanLog::Global() {
  static SpanLog* log = new SpanLog();
  return *log;
}

int64_t SpanLog::Begin(const char* name, const char* cat, int64_t op) {
  Span s;
  s.name = name;
  s.cat = cat;
  s.start_us = NowUs();
  s.end_us = s.start_us;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.op = op;
  s.tid = ifgen::obs::TraceThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.op == 0 && s.parent >= 0) s.op = spans_[static_cast<size_t>(s.parent)].op;
  spans_.push_back(std::move(s));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  t_open_spans.push_back(id);
  return id;
}

void SpanLog::End(int64_t id) {
  const int64_t now = NowUs();
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

void SpanLog::ImportProgramSpans() {
  ifgen::obs::TraceRecorder& ring = ifgen::obs::TraceRecorder::Global();
  std::vector<ifgen::obs::TraceEvent> events = ring.Events();
  if (ring.dropped() > 0) {
    std::fprintf(stderr, "warning: program trace ring dropped %llu spans\n",
                 static_cast<unsigned long long>(ring.dropped()));
  }
  ring.Clear();
  if (events.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t first_new = spans_.size();
  int64_t earliest = events.front().ts_us;
  for (const ifgen::obs::TraceEvent& e : events) {
    earliest = std::min(earliest, e.ts_us);
    Span s;
    s.name = e.name;
    s.cat = e.cat;
    s.start_us = e.ts_us;
    s.end_us = e.ts_us + e.dur_us;
    s.tid = e.tid;
    s.parent = -2;  // resolved by containment below
    spans_.push_back(std::move(s));
  }
  // Parent of an imported span: the innermost span on the same thread whose
  // interval contains it. Only spans still open when the earliest new one
  // began can contain one.
  std::vector<size_t> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i >= first_new || spans_[i].end_us >= earliest) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.end_us > y.end_us;
  });
  std::vector<size_t> stack;
  uint32_t tid = 0;
  for (size_t idx : order) {
    Span& s = spans_[idx];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && spans_[stack.back()].end_us <= s.start_us) stack.pop_back();
    while (!stack.empty() && spans_[stack.back()].end_us < s.end_us) stack.pop_back();
    if (s.parent == -2) {
      s.parent = stack.empty() ? -1 : static_cast<int64_t>(stack.back());
      if (s.parent >= 0) s.op = spans_[static_cast<size_t>(s.parent)].op;
    }
    stack.push_back(idx);
  }
}

std::vector<SpanLog::Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::SelfUsByCategory(
    const std::vector<std::string>& roots) const {
  std::vector<Span> spans = Snapshot();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_us - s.start_us);
    }
  }
  auto root_of = [&](size_t i) {
    while (spans[i].parent >= 0) i = static_cast<size_t>(spans[i].parent);
    return i;
  };
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& root = spans[root_of(i)].name;
    if (std::find(roots.begin(), roots.end(), root) == roots.end()) continue;
    const double self =
        static_cast<double>(spans[i].end_us - spans[i].start_us) - child_us[i];
    out[spans[i].cat] += std::max(0.0, self);
  }
  return out;
}

ifgen::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  ifgen::JsonValue events = ifgen::JsonValue::Array();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    ifgen::JsonValue e = ifgen::JsonValue::Object();
    e.Set("name", ifgen::JsonValue::Str(s.name));
    e.Set("cat", ifgen::JsonValue::Str(s.cat));
    e.Set("ph", ifgen::JsonValue::Str("X"));
    e.Set("ts", ifgen::JsonValue::Int(s.start_us));
    e.Set("dur", ifgen::JsonValue::Int(s.end_us - s.start_us));
    e.Set("pid", ifgen::JsonValue::Int(1));
    e.Set("tid", ifgen::JsonValue::Int(s.tid));
    ifgen::JsonValue a = ifgen::JsonValue::Object();
    a.Set("id", ifgen::JsonValue::Int(static_cast<int64_t>(i)));
    a.Set("parent", ifgen::JsonValue::Int(s.parent));
    a.Set("op", ifgen::JsonValue::Int(s.op));
    e.Set("args", std::move(a));
    events.Append(std::move(e));
  }
  ifgen::JsonValue doc = ifgen::JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  std::ofstream out(path, std::ios::trunc);
  if (!out) return ifgen::Status::Internal("cannot write " + path);
  out << ifgen::WriteJson(doc);
  return out ? ifgen::Status::OK() : ifgen::Status::Internal("short write to " + path);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat, int64_t op) {
  if (SpanLog::enabled()) id_ = SpanLog::Global().Begin(name, cat, op);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) SpanLog::Global().End(id_);
}

}  // namespace perfbench
