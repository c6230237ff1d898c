#pragma once

// The benchmark's workloads. Each drives the program only through its front
// doors — service::Service in-process, or net::Dispatcher in front of
// net::Server nodes over loopback — from inputs generated from the workload
// seed, and checks every output it receives.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "report.h"

namespace perfbench {

/// What one timed window measured. Latencies are kept per job (one double
/// each); job outcomes themselves are dropped as soon as they are checked.
struct WindowStats {
  std::size_t attempted = 0;
  std::size_t ok = 0;       ///< reached done and passed every check
  std::size_t counted = 0;  ///< passing jobs counted toward jobs_per_s
  double wall_s = 0;        ///< seconds jobs_per_s divides by
  std::vector<double> latency_ms;  ///< per passing job, as the caller saw it
  double exec_s = 0;               ///< sum of JobOutcome::seconds
  double queue_wait_s = 0;         ///< sum of (latency - exec)
  std::size_t cache_hits = 0;
  std::vector<double> late_ms;  ///< per send: how late the generator ran
  std::size_t requests = 0;     ///< HTTP requests made (0 in-process)
  unsigned workers = 0;         ///< service workers behind the front door
  bool open_loop = false;

  double jobs_per_s() const {
    return wall_s > 0 ? static_cast<double>(counted) / wall_s : 0.0;
  }
  /// Counts `n` passing jobs as failed: checks that failed outside the
  /// window (set-up, verify, replay) each take one job off the tallies.
  void discount(std::size_t n) {
    n = std::min(n, ok);
    ok -= n;
    counted -= std::min(n, counted);
  }
  /// Adds one client thread's tallies.
  void merge(const WindowStats& other) {
    attempted += other.attempted;
    ok += other.ok;
    counted += other.counted;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    exec_s += other.exec_s;
    queue_wait_s += other.queue_wait_s;
    cache_hits += other.cache_hits;
    requests += other.requests;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs, starts pools, servers and dispatcher, and runs a
  /// warm-up pass whose outputs are checked.
  virtual void setup(Result& result) = 0;
  /// Stops and frees what setup started (outside the timed set-up).
  virtual void teardown() = 0;
  /// Runs the workload for `seconds`; `stream` selects an independent input
  /// stream, so the two halves of a traced run see different jobs.
  virtual WindowStats run(double seconds, std::uint64_t stream, SpanRecorder* spans,
                          Result& result) = 0;
  /// Checks outside the timed window, on outputs retained from the last run.
  virtual void verify(Result& result) = 0;
  /// Jobs of `stream` the traced run replays layer by layer.
  virtual std::vector<JobSpec> replay_jobs(std::uint64_t stream) const = 0;
  /// Measures the net layer (see probe_net) on this workload's jobs.
  virtual void probe(std::uint64_t stream, SpanRecorder& spans, Result& result) = 0;
  /// Whether replayed jobs must restore every shot exactly (noise-free).
  virtual bool exact_restore() const { return false; }
  /// Digest of the set-up's check pass ("" when the workload has none).
  virtual std::string check_digest() const { return {}; }
};

/// "table1_batch", "wide_fused" or "serve_mixed"; nullptr for other names.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
