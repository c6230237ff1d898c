// Batched-pipeline throughput: the full TetrisLock flow (obfuscate ->
// interlock-split -> split-compile -> recombine -> noisy verify) over
// --iterations copies of the eight Table-I RevLib circuits, executed through
// the service facade (submit_all + wait_all) at several worker-pool widths.
//
// Reports circuits/second per width plus the speedup over the 1-thread run,
// verifies that every job's metrics are bit-identical across widths (the
// per-job RNG is derived from (seed, job index), never from scheduling), and
// then replays the widest batch twice against a cache-enabled service to
// measure the result-cache hit rate and confirm cached results are
// bit-identical to computed ones. The sweep is written as JSON (--out,
// default BENCH_throughput.json) to seed the repo's perf trajectory.
//
// Extra flags beyond bench_util's: --threads 1,2,4 overrides the default
// {1, N/2, N} width sweep (N = hardware concurrency, floored at 4 so the
// sweep is meaningful on small CI boxes).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/strings.h"
#include "lock/pipeline.h"
#include "revlib/benchmarks.h"
#include "service/service.h"

namespace {

using namespace tetris;

struct SweepPoint {
  unsigned threads = 0;
  double wall_seconds = 0.0;
  double circuits_per_second = 0.0;
};

std::vector<unsigned> default_widths() {
  unsigned n = std::max(4u, std::thread::hardware_concurrency());
  return {1, n / 2, n};
}

/// The per-job metric fingerprint compared across widths and cache passes.
std::vector<double> fingerprint(const std::vector<service::JobOutcome>& outcomes) {
  std::vector<double> fp;
  fp.reserve(outcomes.size() * 4);
  for (const auto& out : outcomes) {
    fp.push_back(out.result.tvd_obfuscated);
    fp.push_back(out.result.tvd_restored);
    fp.push_back(out.result.accuracy_restored);
    fp.push_back(static_cast<double>(out.result.gates_obfuscated));
  }
  return fp;
}

/// Runs the batch through a cache-less service at the given width (every
/// job must really execute for throughput numbers); exits on any failure.
std::vector<service::JobOutcome> run_batch(const std::vector<lock::FlowJob>& jobs,
                                           std::uint64_t seed, unsigned width,
                                           double* wall_seconds) {
  service::ServiceConfig cfg;
  cfg.num_threads = width;
  cfg.base_seed = seed;
  service::Service svc(cfg);
  const auto start = std::chrono::steady_clock::now();
  svc.submit_all(jobs);
  auto outcomes = svc.wait_all();
  if (wall_seconds) {
    *wall_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  for (const auto& out : outcomes) {
    if (out.state != service::JobState::kDone) {
      std::cerr << "job " << out.name << " failed at " << width
                << " threads: " << out.status.message << "\n";
      std::exit(1);
    }
  }
  return outcomes;
}

void write_json(const std::string& path, const benchutil::Args& args,
                std::size_t job_count, const std::vector<SweepPoint>& sweep,
                bool deterministic, double cache_hit_rate,
                bool cache_identical) {
  json::Writer w;
  benchutil::begin_result(w, "batch_throughput", args);
  w.key("suite").value("revlib_table1");
  w.key("jobs").value(job_count);
  w.key("deterministic_across_widths").value(deterministic);
  w.key("cache_hit_rate_second_pass").value(cache_hit_rate);
  w.key("cache_results_identical").value(cache_identical);
  w.key("results").begin_array();
  for (const SweepPoint& point : sweep) {
    w.begin_object();
    w.key("threads").value(point.threads);
    w.key("wall_seconds").value(point.wall_seconds);
    w.key("circuits_per_second").value(point.circuits_per_second);
    w.end_object();
  }
  w.end_array();
  w.key("baseline_threads").value(sweep.empty() ? 0u : sweep.front().threads);
  w.key("speedup_max_vs_baseline")
      .value(sweep.empty() || sweep.front().wall_seconds <= 0.0
                 ? 0.0
                 : sweep.front().wall_seconds /
                       std::max(1e-12, sweep.back().wall_seconds));
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out << w.str() << "\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto args = benchutil::parse_args(argc, argv);
  const std::string out_path =
      args.out.empty() ? "BENCH_throughput.json" : args.out;
  // Ascending + deduped so the sweep's first point is the narrowest pool —
  // the speedup baseline — whatever order --threads was given in.
  std::vector<unsigned> widths =
      args.threads.empty() ? default_widths() : args.threads;
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());

  // The batch: --iterations independent copies of the Table-I suite, each
  // copy a distinct job (and hence a distinct RNG stream).
  lock::FlowConfig cfg;
  cfg.shots = args.shots;
  std::vector<lock::FlowJob> jobs;
  for (int iter = 0; iter < args.iterations; ++iter) {
    for (const auto& b : revlib::table1_benchmarks()) {
      jobs.push_back(lock::make_flow_job(
          b.name + "#" + std::to_string(iter), b.circuit, b.measured, cfg));
    }
  }
  std::cout << "batch: " << jobs.size() << " jobs ("
            << revlib::table1_benchmarks().size() << " circuits x "
            << args.iterations << " iterations, " << args.shots
            << " shots)\n\n";

  benchutil::Table table({"threads", "wall (s)", "circuits/s", "speedup"},
                         {7, 9, 10, 8});
  table.print_header();

  std::vector<SweepPoint> sweep;
  std::vector<double> reference_fp;
  bool deterministic = true;
  for (unsigned width : widths) {
    double wall = 0.0;
    auto outcomes = run_batch(jobs, args.seed, width, &wall);
    auto fp = fingerprint(outcomes);
    if (reference_fp.empty()) {
      reference_fp = fp;
    } else if (fp != reference_fp) {
      deterministic = false;  // exact comparison: results must not depend on width
    }
    SweepPoint point{width, wall,
                     wall > 0.0 ? static_cast<double>(jobs.size()) / wall : 0.0};
    sweep.push_back(point);
    double speedup = sweep.front().wall_seconds /
                     std::max(1e-12, point.wall_seconds);
    table.print_row({std::to_string(width), fmt_double(point.wall_seconds, 3),
                     fmt_double(point.circuits_per_second, 2),
                     fmt_double(speedup, 2) + "x"});
  }
  std::cout << "\nper-job results identical across widths: "
            << (deterministic ? "yes" : "NO — DETERMINISM BUG") << "\n";

  // Cache pass: the same batch twice against one cache-enabled service; the
  // second submission must be served from the cache with identical metrics.
  double cache_hit_rate = 0.0;
  bool cache_identical = true;
  {
    service::ServiceConfig scfg;
    scfg.num_threads = widths.back();
    scfg.base_seed = args.seed;
    scfg.cache_capacity = jobs.size();
    service::Service svc(scfg);
    svc.submit_all(jobs);
    auto first = svc.wait_all();
    svc.submit_all(jobs);
    auto all = svc.wait_all();
    std::vector<service::JobOutcome> second(all.begin() + first.size(),
                                            all.end());
    std::size_t hits = 0;
    for (const auto& out : second) {
      if (out.cache_hit) ++hits;
    }
    cache_hit_rate = second.empty()
                         ? 0.0
                         : static_cast<double>(hits) / second.size();
    cache_identical = fingerprint(second) == fingerprint(first) &&
                      fingerprint(first) == reference_fp;
    std::cout << "cache second pass: " << fmt_double(100.0 * cache_hit_rate, 1)
              << "% hits, results identical: "
              << (cache_identical ? "yes" : "NO — CACHE BUG") << "\n";
  }

  write_json(out_path, args, jobs.size(), sweep, deterministic,
             cache_hit_rate, cache_identical);
  return (deterministic && cache_identical) ? 0 : 1;
}
