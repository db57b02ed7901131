#pragma once

// Shared pieces of the repository benchmark: command-line arguments, the
// result line, sample statistics, memory readings, and the benchmark's own
// span recorder (used only by the traced run).

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for trace files and worker state (inside the
  /// checkout; created by run.py).
  std::string work_dir = ".";
  /// Shrinks every workload to seconds-scale inputs (the benchmark's own
  /// tests); the metric set and the output checks are unchanged.
  bool tiny = false;
};

/// \brief Everything one run prints: metrics by name with units, the
/// attempted/failed operation counts, and output-check failures.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records an output-check failure; the run then reports correct=false and
  /// exits nonzero.
  void CheckFailed(const std::string& what);
  void Count(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return check_failures_ == 0; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  /// Keeps only `names` (in that order) and reports any that are missing as
  /// check failures: a run must print every metric of its kind.
  void RequireExactly(const std::vector<std::string>& names);
  /// One human-readable line per metric, to stderr.
  void PrintTable() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t check_failures_ = 0;
};

// ---------------------------------------------------------------- samples

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// The tail percentile reported for a latency sample: `q` when at least ten
/// samples lie beyond it, otherwise the highest quantile that still has ten
/// beyond it (and the median when the sample is smaller than that).
double Tail(const std::vector<double>& v, double q);

// ---------------------------------------------------------------- memory

/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of a live child process, in MiB; 0 if unknown.
double ProcessPeakRssMb(pid_t pid);

// ---------------------------------------------------------------- spans

/// \brief The benchmark's span recorder: name, category, start, end, parent
/// span, and an operation id shared by every span of one job or event.
///
/// Active only in the traced run. Spans live in memory and are written out
/// as Chrome trace-event JSON when the run ends. Parents come from a
/// per-thread stack of open spans; spans imported from the program's own
/// trace ring get parents by time containment on the same thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string cat;
    int64_t start_us = 0;
    int64_t end_us = 0;
    int64_t parent = -1;  ///< index into spans(); -1 = root
    int64_t op = 0;
    uint32_t tid = 0;
  };

  static void Enable(bool on);
  static bool enabled();
  static SpanLog& Global();

  int64_t Begin(const char* name, const char* cat, int64_t op);
  void End(int64_t id);
  /// Copies the program's trace-ring events recorded since the last call
  /// and clears the ring.
  void ImportProgramSpans();

  /// Self time (duration minus the part covered by child spans) summed per
  /// category, in microseconds, over spans whose root span has one of
  /// `roots` as its name.
  std::map<std::string, double> SelfUsByCategory(const std::vector<std::string>& roots) const;
  ifgen::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> Snapshot() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op unless SpanLog is enabled. `name`/`cat` are copied.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat, int64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = -1;
};

/// Microseconds on the same clock as the program's trace ring.
int64_t NowUs();

/// A fresh operation id (job or event) for the spans of one operation.
int64_t NextOpId();

}  // namespace perfbench
