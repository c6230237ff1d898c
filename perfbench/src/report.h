#pragma once

// Measurement plumbing of the benchmark: timing helpers, order statistics,
// the benchmark's own span recorder, the named-metric result and the host
// block printed with every run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Highest of p90/p75/p50 that leaves at least ten samples above it, so a
/// reported tail is never an extrapolation from a handful of jobs.
double tail_quantile_level(std::size_t samples);

/// Process high-water resident set (VmHWM) in MiB.
double peak_rss_mb();

/// One span of the benchmark's own trace: a call into a layer's public
/// function, timed by the benchmark around that call.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< job the span belongs to (shared by its spans)
  std::string name;           ///< "<layer>.<operation>", e.g. "lock.split"
  double start_s = 0;         ///< offset from the recorder's start
  double end_s = 0;
  double duration_s() const { return end_s - start_s; }
};

/// In-memory span store, written out once when the run ends. A null
/// recorder disables recording, so untraced runs pay one branch per call.
class SpanRecorder {
 public:
  SpanRecorder();
  /// Reserves a span id, so children can name a parent that has not ended.
  std::uint64_t reserve();
  /// Appends a finished span under a reserved id. Thread-safe.
  void record(std::uint64_t id, std::string name, std::uint64_t request,
              std::uint64_t parent, Clock::time_point begin, Clock::time_point end);
  /// Appends a finished span under a fresh id; returns the id.
  std::uint64_t record(std::string name, std::uint64_t request, std::uint64_t parent,
                       Clock::time_point begin, Clock::time_point end);
  std::uint64_t next_request();
  /// Sum of durations of all spans named `name`.
  double total_seconds(const std::string& name) const;
  /// Writes {"spans": [...]} to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_request_ = 1;
};

/// RAII span: times its scope and records it on destruction.
class Scoped {
 public:
  Scoped(SpanRecorder* recorder, std::string name, std::uint64_t request = 0,
         std::uint64_t parent = 0)
      : recorder_(recorder),
        id_(recorder ? recorder->reserve() : 0),
        name_(std::move(name)),
        request_(request),
        parent_(parent),
        begin_(Clock::now()) {}
  ~Scoped() {
    if (recorder_) recorder_->record(id_, name_, request_, parent_, begin_, Clock::now());
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
  std::string name_;
  std::uint64_t request_;
  std::uint64_t parent_;
  Clock::time_point begin_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name -> metric map plus the run's pass/fail tallies; prints as
/// the single JSON result line the benchmark ends with.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t failures = 0;         ///< fail() calls, each a failed check
  std::vector<std::string> errors;  ///< correctness failures, for stderr
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why);
  std::string json_line() const;
};

/// Machine description recorded with every result.
struct Host {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd_mode;
  std::string build_type;
  std::string git_sha;
  double stream_gbps = 0;
};
/// Describes this machine; stream_gbps is the best-of-five memcpy bandwidth
/// over a 32 MiB buffer (read + write bytes), the roofline the kernel
/// metrics are measured against.
Host describe_host(const std::string& git_sha);
std::string host_json(const Host& host);

}  // namespace perfbench
