#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "gates.h"
#include "net/client.h"
#include "qir/library.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "sim/kernels/simd.h"
#include "sim/sampler.h"

namespace perfbench {

namespace lock = tetris::lock;
namespace sim = tetris::sim;
namespace net = tetris::net;
namespace service = tetris::service;
namespace json = tetris::json;
using tetris::Rng;

namespace {

/// Client threads (closed loop: outstanding jobs; open loop: connections).
constexpr unsigned kClients = 4;
/// Paper settings: 1000 shots per sampled view.
constexpr std::size_t kShots = 1000;
/// Closed-loop runs hand their jobs to a fresh Service every this many
/// submissions and drop the old one once its jobs are done, so the job table
/// a run builds up — and with it peak_rss_mb — does not grow with how many
/// jobs a faster build fits into the window.
constexpr std::size_t kJobsPerService = 64;

std::uint64_t stream_base(std::uint64_t seed, std::uint64_t stream) {
  return Rng::stream_seed(seed, 0x5eed0000ULL + stream);
}

/// Seeds travel as JSON integers, which the server caps at int64.
std::uint64_t wire_seed(std::uint64_t raw) { return raw >> 1; }

/// A Service of `workers` workers that is replaced every kJobsPerService
/// submissions; holders keep a retired one alive until their job is done.
class RotatingService {
 public:
  explicit RotatingService(unsigned workers) { config_.num_threads = workers; }

  std::shared_ptr<service::Service> acquire() {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!current_ || used_ == kJobsPerService) {
      current_ = std::make_shared<service::Service>(config_);
      used_ = 0;
    }
    ++used_;
    return current_;
  }

 private:
  service::ServiceConfig config_;
  std::mutex mutex_;
  std::shared_ptr<service::Service> current_;
  std::size_t used_ = 0;
};

/// Runs `specs` through `svc` one job at a time and returns their
/// timing-free documents in submission order. Set-up passes run jobs one by
/// one because a concurrent pass ends with its slowest co-scheduled jobs,
/// which made set-up time swing with scheduling order.
std::vector<std::string> run_pass(service::Service& svc, const std::vector<JobSpec>& specs) {
  std::vector<std::string> docs;
  for (const JobSpec& spec : specs) {
    docs.push_back(service::to_json(svc.submit(spec.job, spec.seed).wait(), false));
  }
  return docs;
}

/// Closed loop: kClients threads, each submitting its next job only when
/// its previous one is terminal, so kClients jobs are always outstanding.
/// `check` gates each job's timing-free document; `keep` sees every checked
/// outcome (it retains what the post-window checks need, nothing more).
WindowStats run_closed_loop(
    RotatingService& ring, unsigned workers, double seconds,
    const std::function<JobSpec(std::size_t)>& job_at,
    const std::function<std::string(const std::string&)>& check,
    const std::function<void(std::size_t, service::JobOutcome&, const std::string&)>& keep,
    SpanRecorder* spans, Result& result) {
  WindowStats stats;
  stats.workers = workers;
  std::mutex merge;
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));

  auto client = [&] {
    WindowStats local;
    auto previous_end = Clock::now();
    Clock::time_point end = previous_end;
    std::vector<std::string> errors;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      JobSpec spec = job_at(i);
      const auto t0 = Clock::now();
      if (t0 >= deadline) break;
      local.late_ms.push_back(1e3 * seconds_between(previous_end, t0));
      const std::uint64_t request = spans ? spans->next_request() : 0;
      std::shared_ptr<service::Service> svc = ring.acquire();
      Scoped job_span(spans, "client.job", request);
      service::JobOutcome outcome;
      {
        service::JobHandle handle;
        {
          Scoped s(spans, "service.submit", request, job_span.id());
          handle = svc->submit(std::move(spec.job), spec.seed);
        }
        Scoped s(spans, "service.wait", request, job_span.id());
        outcome = handle.wait();
      }
      end = Clock::now();
      svc.reset();
      ++local.attempted;
      std::string doc;
      {
        Scoped s(spans, "service.to_json", request, job_span.id());
        doc = service::to_json(outcome, false);
      }
      const std::string why = check(doc);
      if (!why.empty()) {
        errors.push_back(outcome.name + " seed " + std::to_string(outcome.seed) + ": " + why);
      } else {
        const double latency_s = seconds_between(t0, end);
        ++local.ok;
        if (end <= deadline) ++local.counted;
        local.latency_ms.push_back(1e3 * latency_s);
        local.exec_s += outcome.seconds;
        local.queue_wait_s += latency_s - outcome.seconds;
        if (outcome.cache_hit) ++local.cache_hits;
      }
      keep(i, outcome, doc);
      previous_end = end;
    }
    std::lock_guard<std::mutex> lk(merge);
    stats.merge(local);
    for (const auto& e : errors) result.fail(e);
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  // Throughput counts the jobs that finished inside the window; the ones
  // still running at its end are waited for and checked, but the tail where
  // fewer than kClients jobs are outstanding is not timed.
  stats.wall_s = seconds;
  return stats;
}

// ------------------------------------------------------------- table1_batch

/// The paper's workload: the Table-I suite at 1000 shots on the valencia
/// noise band, unfused statevector, 4 outstanding jobs on 4 workers.
class Table1Batch : public Workload {
 public:
  explicit Table1Batch(std::uint64_t seed) : seed_(seed) {}

  void setup(Result& result) override {
    // The job stream cycles through this schedule: the eight Table-I
    // circuits with rd84 twice. With each circuit once, the median would sit
    // exactly between the four 5-qubit circuits and the rest, and p90 near
    // the lower edge of rd84's latency cluster.
    schedule_.clear();
    lock::FlowConfig cfg;
    cfg.shots = kShots;
    for (const auto& b : tetris::revlib::table1_benchmarks()) {
      schedule_.push_back(lock::make_flow_job(b.name, b.circuit, b.measured, cfg));
    }
    schedule_.push_back(schedule_.back());
    ring_ = std::make_unique<RotatingService>(kClients);

    // Warm-up and pinned check pass: every Table-I circuit at fixed seeds
    // 1..8, whatever the workload seed. Its digest is the byte-identity
    // contract of unfused runs for this host's SIMD mode.
    std::vector<JobSpec> pinned;
    for (std::size_t k = 0; k < 8; ++k) pinned.push_back({schedule_[k], k + 1});
    auto svc = ring_->acquire();
    const std::vector<std::string> docs = run_pass(*svc, pinned);
    for (const auto& doc : docs) {
      const std::string why = check_zero_depth_overhead(doc);
      if (!why.empty()) result.fail("check pass: " + why);
    }
    digest_ = digest_documents(docs);
    namespace k = sim::kernels;
    const std::string why = perfbench::check_digest(k::simd_mode_name(k::simd_mode()), digest_);
    if (!why.empty()) result.fail("check pass: " + why);
  }

  void teardown() override { ring_.reset(); }

  WindowStats run(double seconds, std::uint64_t stream, SpanRecorder* spans,
                  Result& result) override {
    kept_.clear();
    const std::uint64_t base = stream_base(seed_, stream);
    return run_closed_loop(
        *ring_, kClients, seconds, [&](std::size_t i) { return job(base, i); },
        [](const std::string& doc) { return check_zero_depth_overhead(doc); },
        [&](std::size_t i, service::JobOutcome&, const std::string& doc) {
          if (i < schedule_.size()) {
            std::lock_guard<std::mutex> lk(kept_mutex_);
            kept_.push_back({i, base, doc});
          }
        },
        spans, result);
  }

  void verify(Result& result) override {
    // The first job of every schedule slot, recomputed alone on a fresh
    // one-worker Service, must give the bytes it gave under load.
    service::ServiceConfig cfg;
    cfg.num_threads = 1;
    service::Service reference(cfg);
    for (const Kept& k : kept_) {
      const JobSpec spec = job(k.base, k.index);
      service::JobOutcome outcome = reference.submit(spec.job, spec.seed).wait();
      const json::Value wire = json::parse(k.doc);
      outcome.id = static_cast<std::uint64_t>(wire.at("id").as_int());
      const std::string why = check_byte_equal(k.doc, service::to_json(outcome, false));
      if (!why.empty()) result.fail("rerun of " + spec.job.name + ": " + why);
    }
  }

  std::vector<JobSpec> replay_jobs(std::uint64_t stream) const override {
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      jobs.push_back(job(stream_base(seed_, stream), i));
    }
    return jobs;
  }

  void probe(std::uint64_t stream, SpanRecorder& spans, Result& result) override {
    Topology topology(1, 2, 64);
    std::vector<std::string> bodies;
    for (const JobSpec& spec : replay_jobs(stream)) {
      bodies.push_back(submit_body(spec, spec.job.name));
    }
    probe_net(topology, bodies, spans, result);
  }

  std::string check_digest() const override { return digest_; }

 private:
  struct Kept {
    std::size_t index;
    std::uint64_t base;
    std::string doc;
  };

  JobSpec job(std::uint64_t base, std::size_t i) const {
    return {schedule_[i % schedule_.size()], wire_seed(Rng::stream_seed(base, i))};
  }

  std::uint64_t seed_;
  std::vector<lock::FlowJob> schedule_;
  std::unique_ptr<RotatingService> ring_;
  std::string digest_;
  std::mutex kept_mutex_;
  std::vector<Kept> kept_;
};

// --------------------------------------------------------------- wide_fused

/// Noise-free, fused verification of seeded 10-12 qubit reversible
/// circuits: no trajectory work at all, the sampled path is per-shot draws
/// and fused kernel sweeps. The widths keep states at 16-64 KiB: wider
/// states made throughput follow the host's memory load. On a shared host,
/// ten seeds spread by more than a quarter of their median at 16-18 qubits
/// (1-4 MiB) and by up to a fifth at 13-15 qubits (128-512 KiB).
class WideFused : public Workload {
 public:
  explicit WideFused(std::uint64_t seed) : seed_(seed) {}

  void setup(Result& result) override {
    // Jobs cycle through a pool of seeded circuits whose widths cycle
    // 10, 11, 12.
    pool_.clear();
    lock::FlowConfig cfg;
    cfg.shots = kShots;
    cfg.fusion = true;
    // Each job samples on its own worker. With every worker busy, fanning a
    // job's shots out only moves work between jobs, and it made throughput
    // swing more with the host's load.
    cfg.sample_threads = 1;
    for (std::size_t k = 0; k < kCircuits; ++k) {
      const int n = 10 + static_cast<int>(k % 3);
      Rng rng(Rng::stream_seed(seed_, k));
      auto job = lock::make_flow_job("wide" + std::to_string(n) + "_" + std::to_string(k),
                                     tetris::qir::library::random_reversible(n, kGates, rng),
                                     {}, cfg);
      job.target.noise = sim::NoiseModel::ideal();
      pool_.push_back(std::move(job));
    }
    ring_ = std::make_unique<RotatingService>(kClients);
    // Warm-up circuits 0-3 of the pool: widths 10, 11, 12, 10 whatever the
    // seed, so set-up time does not vary with the width mix.
    std::vector<JobSpec> warm;
    for (std::size_t k = 0; k < kClients; ++k) {
      warm.push_back({pool_[k], wire_seed(Rng::stream_seed(stream_base(seed_, 99), k))});
    }
    auto svc = ring_->acquire();
    for (const auto& doc : run_pass(*svc, warm)) {
      const std::string why = check(doc);
      if (!why.empty()) result.fail("warm-up: " + why);
    }
  }

  void teardown() override { ring_.reset(); }

  WindowStats run(double seconds, std::uint64_t stream, SpanRecorder* spans,
                  Result& result) override {
    kept_.clear();
    const std::uint64_t base = stream_base(seed_, stream);
    return run_closed_loop(
        *ring_, kClients, seconds, [&](std::size_t i) { return job(base, i); },
        [](const std::string& doc) { return check(doc); },
        [&](std::size_t i, service::JobOutcome& outcome, const std::string&) {
          if (i < kKept && outcome.state == service::JobState::kDone) {
            std::lock_guard<std::mutex> lk(kept_mutex_);
            kept_.push_back({job(base, i), std::move(outcome.result.recombined)});
          }
        },
        spans, result);
  }

  void verify(Result& result) override {
    // Independent reference: the fused noise-free sample of each retained
    // job's recombined circuit must land every shot on the source circuit's
    // bit-propagation outcome.
    for (const Kept& k : kept_) {
      const lock::FlowJob& job = k.spec.job;
      sim::SampleOptions opts;
      opts.shots = job.config.shots;
      opts.fuse = true;
      for (int q : job.measured) {
        opts.measured.push_back(k.recombined.orig_to_phys.at(static_cast<std::size_t>(q)));
      }
      Rng rng(k.spec.seed);
      const sim::Counts counts =
          sim::sample(k.recombined.circuit, sim::NoiseModel::ideal(), rng, opts);
      const std::string why =
          check_mode(counts, sim::classical_outcome(job.circuit, job.measured));
      if (!why.empty()) result.fail(job.name + ": " + why);
    }
  }

  std::vector<JobSpec> replay_jobs(std::uint64_t stream) const override {
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < 3; ++i) jobs.push_back(job(stream_base(seed_, stream), i));
    return jobs;
  }

  void probe(std::uint64_t stream, SpanRecorder& spans, Result& result) override {
    // Over the wire the job runs on its device's default (noisy) target,
    // so probe submissions use few shots to keep trajectory replay short.
    Topology topology(1, 2, 64);
    std::vector<std::string> bodies;
    for (JobSpec spec : replay_jobs(stream)) {
      spec.job.config.shots = 4;
      bodies.push_back(submit_body(spec, ""));
    }
    probe_net(topology, bodies, spans, result);
  }

  bool exact_restore() const override { return true; }

 private:
  static constexpr std::size_t kCircuits = 512;
  static constexpr int kGates = 40;
  static constexpr std::size_t kKept = 4;

  struct Kept {
    JobSpec spec;
    lock::RecombinedCircuit recombined;
  };

  static std::string check(const std::string& doc) {
    std::string why = check_exact_restore(doc);
    return why.empty() ? check_zero_depth_overhead(doc) : why;
  }

  JobSpec job(std::uint64_t base, std::size_t i) const {
    // Offset each stream into the pool so the halves of a traced run and
    // the warm-up do not reuse circuits.
    const std::size_t k = (i + static_cast<std::size_t>(base % kCircuits)) % kCircuits;
    return {pool_[k], wire_seed(Rng::stream_seed(base, i))};
  }

  std::uint64_t seed_;
  std::vector<lock::FlowJob> pool_;
  std::unique_ptr<RotatingService> ring_;
  std::mutex kept_mutex_;
  std::vector<Kept> kept_;
};

// -------------------------------------------------------------- serve_mixed

/// Open-loop Poisson traffic through a dispatcher in front of two nodes,
/// each a 2-worker Service with the result cache on.
class ServeMixed : public Workload {
 public:
  /// Arrival rate, frozen at a sixth of this configuration's measured
  /// capacity (about 210 jobs/s on a 4-core AVX2 host; 6 of the 8 circuits
  /// hash to one node, which saturates first). At half or a third of
  /// capacity that node queued enough for p50 to swing 20-40% between runs
  /// on a shared host; at a sixth the spread is about 10%.
  static constexpr double kRate = 35.0;
  /// Share of jobs that repeat an earlier (benchmark, seed) pair. Not one
  /// half exactly: at 0.4 the median falls inside the computed jobs'
  /// latency cluster and p90 inside rd73's, not on a boundary between
  /// clusters.
  static constexpr double kRepeatShare = 0.4;
  /// A repeat targets a pair first sent at least this long before it, so
  /// it usually finds the result cached.
  static constexpr double kRepeatLag = 0.5;
  /// Shots per job. Fewer than the paper's 1000 so the serving path —
  /// reactor, HTTP parsing, dispatcher hop, cache — carries a visible share
  /// of each job, and a run holds enough jobs for stable percentiles.
  static constexpr std::size_t kServeShots = 100;
  /// Each job samples on one thread (wire "sample_jobs": 1) rather than
  /// fanning its shots out over whichever node workers are idle.
  static constexpr unsigned kServeSampleJobs = 1;

  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {}

  void setup(Result& result) override {
    topology_ = std::make_unique<Topology>(2, 2, 4096);
    net::Client client("127.0.0.1", topology_->dispatcher_port());
    // One job at a time, as in run_pass.
    std::uint64_t seed = 0;
    std::size_t requests = 0;
    for (const auto& b : tetris::revlib::table1_benchmarks()) {
      const auto res = client.post("/v1/jobs", body(b.name, ++seed));
      if (res.status != 202) {
        result.fail("warm-up POST answered " + std::to_string(res.status));
        continue;
      }
      const std::string id = std::to_string(json::parse(res.body).at("id").as_int());
      if (poll_until_terminal(client, id, requests) != "done") {
        result.fail("warm-up job " + id + " not done");
        continue;
      }
      const std::string why =
          check_zero_depth_overhead(client.get("/v1/jobs/" + id + "?timing=0").body);
      if (!why.empty()) result.fail("warm-up: " + why);
    }
  }

  void teardown() override { topology_.reset(); }

  WindowStats run(double seconds, std::uint64_t stream, SpanRecorder* spans,
                  Result& result) override {
    const std::vector<Arrival> arrivals = schedule(seconds, stream);
    kept_.clear();
    hits_kept_ = computed_kept_ = 0;
    RepeatLedger ledger;
    std::mutex ledger_mutex;

    WindowStats stats;
    stats.open_loop = true;
    stats.workers = topology_->workers();
    std::mutex merge;
    const auto start = Clock::now();
    Clock::time_point last_end = start;

    auto client_thread = [&](unsigned c) {
      net::Client client("127.0.0.1", topology_->dispatcher_port());
      WindowStats local;
      std::vector<std::string> errors;
      struct InFlight {
        std::size_t job;
        std::string id;
        std::uint64_t request;
        std::uint64_t span;  ///< reserved id of the job's root span
      };
      std::vector<InFlight> inflight;
      std::size_t next = c;
      Clock::time_point end = start;
      auto due_at = [&](std::size_t j) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(arrivals[j].at_s));
      };
      auto fail = [&](std::size_t j, const std::string& why) {
        errors.push_back(arrivals[j].benchmark + " seed " +
                         std::to_string(arrivals[j].seed) + ": " + why);
      };
      while (next < arrivals.size() || !inflight.empty()) {
        const auto now = Clock::now();
        if (next < arrivals.size() && now >= due_at(next)) {
          const Arrival& a = arrivals[next];
          local.late_ms.push_back(1e3 * seconds_between(due_at(next), now));
          ++local.attempted;
          const std::uint64_t request = spans ? spans->next_request() : 0;
          const std::uint64_t root = spans ? spans->reserve() : 0;
          try {
            Scoped s(spans, "net.client.post", request, root);
            const auto res = client.post("/v1/jobs", body(a.benchmark, a.seed));
            ++local.requests;
            if (res.status == 202) {
              inflight.push_back({next,
                                  std::to_string(json::parse(res.body).at("id").as_int()),
                                  request, root});
            } else {
              fail(next, "POST answered " + std::to_string(res.status));
            }
          } catch (const std::exception& e) {
            fail(next, std::string("POST failed: ") + e.what());
          }
          next += kClients;
          continue;
        }
        for (std::size_t f = 0; f < inflight.size();) {
          const InFlight job = inflight[f];
          try {
            net::http::Response res;
            {
              Scoped s(spans, "net.client.poll", job.request, job.span);
              res = client.get("/v1/jobs/" + job.id);
            }
            ++local.requests;
            const json::Value doc = json::parse(res.body);
            const std::string state = doc.at("state").as_string();
            if (state == "queued" || state == "running") {
              ++f;
              continue;
            }
            const auto done = Clock::now();
            std::string wire;
            {
              Scoped s(spans, "net.client.get_document", job.request, job.span);
              wire = client.get("/v1/jobs/" + job.id + "?timing=0").body;
            }
            ++local.requests;
            inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(f));
            end = done;
            if (spans) spans->record(job.span, "client.job", job.request, 0, due_at(job.job), done);
            const Arrival& a = arrivals[job.job];
            std::string why = check_zero_depth_overhead(wire);
            if (why.empty()) {
              std::lock_guard<std::mutex> lk(ledger_mutex);
              why = ledger.check(a.benchmark, a.seed, wire);
            }
            if (!why.empty()) {
              fail(job.job, why);
              continue;
            }
            const double latency_s = seconds_between(due_at(job.job), done);
            const double exec_s = doc.at("seconds").as_number();
            const bool hit = doc.at("cache_hit").as_bool();
            ++local.ok;
            local.latency_ms.push_back(1e3 * latency_s);
            local.exec_s += exec_s;
            local.queue_wait_s += latency_s - exec_s;
            if (hit) ++local.cache_hits;
            keep(a, wire, hit);
          } catch (const std::exception& e) {
            inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(f));
            fail(job.job, std::string("poll failed: ") + e.what());
          }
        }
        // Sleep until the next send is due, but poll at least every ms.
        auto wake = Clock::now() + std::chrono::milliseconds(1);
        if (next < arrivals.size()) wake = std::min(wake, due_at(next));
        std::this_thread::sleep_until(wake);
      }
      local.counted = local.ok;
      std::lock_guard<std::mutex> lk(merge);
      stats.merge(local);
      last_end = std::max(last_end, end);
      for (const auto& e : errors) result.fail(e);
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client_thread, c);
    for (auto& t : threads) t.join();
    stats.wall_s = seconds_between(start, last_end);
    return stats;
  }

  void verify(Result& result) override {
    // Wire documents, cache hits included, against the same jobs computed
    // in-process; id and cache_hit are the node's bookkeeping and are taken
    // from the wire document, every other byte must match.
    if (hits_kept_ == 0) result.fail("no cache hit among the checked documents");
    service::ServiceConfig cfg;
    cfg.num_threads = 1;
    service::Service reference(cfg);
    for (const Kept& k : kept_) {
      const auto& b = tetris::revlib::get_benchmark(k.benchmark);
      service::JobOutcome outcome =
          reference.submit(lock::make_flow_job(b.name, b.circuit, b.measured, flow_config()),
                           k.seed)
              .wait();
      const json::Value wire = json::parse(k.doc);
      outcome.id = static_cast<std::uint64_t>(wire.at("id").as_int());
      outcome.cache_hit = wire.at("cache_hit").as_bool();
      const std::string why = check_byte_equal(k.doc, service::to_json(outcome, false));
      if (!why.empty()) result.fail(k.benchmark + " over the wire: " + why);
    }
  }

  std::vector<JobSpec> replay_jobs(std::uint64_t stream) const override {
    // The first fresh job of each Table-I circuit in the stream.
    std::vector<JobSpec> jobs;
    const lock::FlowConfig flow = flow_config();
    std::map<std::string, bool> seen;
    for (const Arrival& a : schedule(10.0, stream)) {
      if (a.repeat || seen[a.benchmark]) continue;
      seen[a.benchmark] = true;
      const auto& b = tetris::revlib::get_benchmark(a.benchmark);
      jobs.push_back({lock::make_flow_job(b.name, b.circuit, b.measured, flow), a.seed});
    }
    return jobs;
  }

  void probe(std::uint64_t stream, SpanRecorder& spans, Result& result) override {
    std::vector<std::string> bodies;
    for (const JobSpec& spec : replay_jobs(stream + 1000)) {
      bodies.push_back(submit_body(spec, spec.job.name));
    }
    probe_net(*topology_, bodies, spans, result);
  }

 private:
  struct Arrival {
    double at_s = 0;
    std::string benchmark;
    std::uint64_t seed = 0;
    bool repeat = false;
  };
  struct Kept {
    std::string benchmark;
    std::uint64_t seed;
    std::string doc;
  };

  static lock::FlowConfig flow_config() {
    lock::FlowConfig flow;
    flow.shots = kServeShots;
    flow.sample_threads = kServeSampleJobs;
    return flow;
  }

  static std::string body(const std::string& benchmark, std::uint64_t seed) {
    json::Writer w(0);
    w.begin_object();
    w.key("benchmark").value(benchmark);
    w.key("seed").value(seed);
    w.key("config").begin_object();
    w.key("shots").value(kServeShots).key("sample_jobs").value(kServeSampleJobs);
    w.end_object();
    w.end_object();
    return w.str();
  }

  /// Poisson arrivals conditioned on their count: rate x seconds uniform
  /// send times, sorted. Fresh jobs cycle through the Table-I circuits in a
  /// reshuffled order per cycle; repeats name an earlier fresh pair.
  std::vector<Arrival> schedule(double seconds, std::uint64_t stream) const {
    Rng rng(stream_base(seed_, stream));
    const auto n = static_cast<std::size_t>(kRate * seconds + 0.5);
    std::vector<Arrival> arrivals(n);
    for (auto& a : arrivals) a.at_s = rng.uniform() * seconds;
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
    // rd84 twice per cycle, as in table1_batch: rd84's computed jobs then
    // make up more than a tenth of all jobs, so p90 falls inside their
    // latency cluster rather than on its lower edge.
    std::vector<std::string> cycle = tetris::revlib::benchmark_names();
    cycle.push_back("rd84");
    // Exactly kRepeatShare of the arrivals that can repeat (those sent
    // kRepeatLag after the first, which is always fresh) are repeats, so the
    // share of cache hits does not vary from seed to seed.
    std::size_t first_eligible = 0;
    while (first_eligible < n &&
           arrivals[0].at_s > arrivals[first_eligible].at_s - kRepeatLag) {
      ++first_eligible;
    }
    std::vector<char> repeats(n - first_eligible, 0);
    std::fill_n(repeats.begin(),
                static_cast<std::size_t>(kRepeatShare * static_cast<double>(repeats.size()) + 0.5),
                1);
    rng.shuffle(repeats);
    std::vector<std::size_t> fresh;  // indices of fresh arrivals so far
    std::size_t cycle_pos = cycle.size();
    for (std::size_t i = 0; i < n; ++i) {
      Arrival& a = arrivals[i];
      std::size_t eligible = 0;  // fresh arrivals sent kRepeatLag earlier
      while (eligible < fresh.size() && arrivals[fresh[eligible]].at_s <= a.at_s - kRepeatLag) {
        ++eligible;
      }
      if (i >= first_eligible && repeats[i - first_eligible]) {
        const Arrival& target = arrivals[fresh[rng.index(eligible)]];
        a.benchmark = target.benchmark;
        a.seed = target.seed;
        a.repeat = true;
        continue;
      }
      if (cycle_pos == cycle.size()) {
        rng.shuffle(cycle);
        cycle_pos = 0;
      }
      a.benchmark = cycle[cycle_pos++];
      a.seed = wire_seed(rng.next_u64());
      fresh.push_back(i);
    }
    return arrivals;
  }

  void keep(const Arrival& a, const std::string& doc, bool hit) {
    std::lock_guard<std::mutex> lk(kept_mutex_);
    std::size_t& taken = hit ? hits_kept_ : computed_kept_;
    if (taken >= 3) return;
    ++taken;
    kept_.push_back({a.benchmark, a.seed, doc});
  }

  std::uint64_t seed_;
  std::unique_ptr<Topology> topology_;
  std::mutex kept_mutex_;
  std::vector<Kept> kept_;
  std::size_t hits_kept_ = 0, computed_kept_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "table1_batch") return std::make_unique<Table1Batch>(seed);
  if (name == "wide_fused") return std::make_unique<WideFused>(seed);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(seed);
  return nullptr;
}

}  // namespace perfbench
