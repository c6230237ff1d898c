#include "layers.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "common/error.h"
#include "common/json.h"
#include "compiler/compiler.h"
#include "gates.h"
#include "lock/deobfuscate.h"
#include "lock/obfuscator.h"
#include "lock/splitter.h"
#include "metrics/metrics.h"
#include "net/client.h"
#include "qir/qasm.h"
#include "runtime/thread_pool.h"
#include "service/serialize.h"
#include "sim/fusion.h"
#include "sim/sampler.h"
#include "sim/statevector.h"

namespace perfbench {

namespace lock = tetris::lock;
namespace sim = tetris::sim;
namespace net = tetris::net;
namespace service = tetris::service;
namespace compiler = tetris::compiler;
namespace json = tetris::json;
using tetris::Rng;

// ------------------------------------------------------------------ topology

Topology::Topology(unsigned nodes, unsigned workers_per_node,
                   std::size_t cache_capacity) {
  net::DispatcherConfig dcfg;
  for (unsigned i = 0; i < nodes; ++i) {
    service::ServiceConfig scfg;
    scfg.num_threads = workers_per_node;
    scfg.cache_capacity = cache_capacity;
    services_.push_back(std::make_unique<service::Service>(scfg));
    servers_.push_back(std::make_unique<net::Server>(*services_.back()));
    servers_.back()->start();
    dcfg.nodes.push_back(servers_.back()->base_url());
  }
  dcfg.handler_threads = 4;
  dispatcher_ = std::make_unique<net::Dispatcher>(dcfg);
  dispatcher_->start();
}

Topology::~Topology() {
  dispatcher_->stop();
  for (auto& server : servers_) server->stop();
}

unsigned Topology::workers() const {
  unsigned total = 0;
  for (const auto& svc : services_) total += svc->threads();
  return total;
}

// -------------------------------------------------------------- wire helpers

std::string poll_until_terminal(net::Client& client, const std::string& id,
                                std::size_t& requests, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const auto res = client.get("/v1/jobs/" + id);
    ++requests;
    if (res.status != 200) {
      throw tetris::Error("GET /v1/jobs/" + id + " answered " +
                          std::to_string(res.status));
    }
    const std::string state = json::parse(res.body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") return state;
    if (Clock::now() > deadline) throw tetris::Error("job " + id + " timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string submit_body(const JobSpec& spec, const std::string& benchmark) {
  json::Writer w(0);
  w.begin_object();
  if (benchmark.empty()) {
    w.key("qasm").value(tetris::qir::to_qasm(spec.job.circuit));
  } else {
    w.key("benchmark").value(benchmark);
  }
  w.key("seed").value(spec.seed);
  w.key("config").begin_object();
  w.key("shots").value(spec.job.config.shots);
  if (spec.job.config.fusion) w.key("fuse").value(true);
  w.end_object();
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------ layer replay

namespace {

std::vector<int> map_measured(const std::vector<int>& measured,
                              const std::vector<int>& orig_to_phys) {
  std::vector<int> out;
  for (int q : measured) out.push_back(orig_to_phys.at(static_cast<std::size_t>(q)));
  return out;
}

/// 1 - prod(1 - p) over the gates: the chance a shot draws a gate error.
double errored_shot_fraction(const tetris::qir::Circuit& c, const sim::NoiseModel& noise) {
  double clean = 1.0;
  for (const auto& g : c.gates()) {
    if (g.kind == tetris::qir::GateKind::Barrier) continue;
    clean *= 1.0 - (g.num_qubits() >= 2 ? noise.p2 : noise.p1);
  }
  return 1.0 - clean;
}

/// Runs `fn` repeatedly, one span per call, until at least `min_s` has
/// elapsed; returns seconds per call.
template <typename F>
double time_per_call(F&& fn, SpanRecorder& spans, const char* name,
                     std::uint64_t request, std::uint64_t parent, double min_s = 0.01) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    const auto t0 = now;
    fn();
    now = Clock::now();
    spans.record(name, request, parent, t0, now);
    ++calls;
  } while (seconds_between(start, now) < min_s);
  return seconds_between(start, now) / static_cast<double>(calls);
}

}  // namespace

void replay_layers(const std::vector<JobSpec>& jobs, double stream_gbps,
                   bool exact_restore, SpanRecorder& spans, Result& result) {
  // Production side: each job also runs on a one-worker Service, next to
  // its replay, for the reconciliation ratio and the replay-equals-production
  // check. Whichever of the pair runs first samples faster (by about 10% on
  // a shared 4-vCPU host), so the order alternates from job to job.
  service::ServiceConfig scfg;
  scfg.num_threads = 1;
  service::Service production(scfg);
  double production_sample_s = 0.0;

  double flow_s = 0.0, lock_s = 0.0, trajectory_s = 0.0, errored = 0.0;
  double ideal_apply_s = 0.0, kernel_bytes = 0.0, kernel_s = 0.0;
  double draw_s = 0.0, sweep_reduction = 0.0, serialize_s = 0.0, sample_s = 0.0;
  std::size_t draws = 0, sampled_circuits = 0, output_gates = 0, swaps = 0;
  const double sample_before = spans.total_seconds("sim.sample");
  const double compile_before = spans.total_seconds("compiler.compile");

  // The replay runs on a one-worker pool, as a job runs on a Service worker:
  // parallel_for called from a pool worker runs inline, so the statevector
  // sweeps are serial in both and the two traces compare like with like.
  tetris::runtime::ThreadPool worker(1);
  worker.submit([&] {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      service::JobOutcome outcome;
      auto run_production = [&] {
        outcome = production.submit(jobs[j].job, jobs[j].seed).wait();
        for (const auto& span : outcome.trace.spans()) {
          if (span.name == "sim.sample") production_sample_s += span.duration_seconds;
        }
      };
      if (j % 2 == 0) run_production();
      const lock::FlowJob& job = jobs[j].job;
      const lock::FlowConfig& cfg = job.config;
      const std::uint64_t request = spans.next_request();
      const auto job_start = Clock::now();
      Scoped root(&spans, "replay.job", request);
      auto span = [&](const char* name) { return Scoped(&spans, name, request, root.id()); };
      Rng rng(jobs[j].seed);
      lock::FlowResult r;
      const auto lock_start = Clock::now();
      {
        auto s = span("lock.obfuscate");
        r.obf = lock::Obfuscator(cfg.insertion).obfuscate(job.circuit, rng);
      }
      {
        auto s = span("lock.split");
        r.splits = lock::InterlockSplitter(cfg.split).split(r.obf, rng);
      }
      compiler::CompileOptions first{job.target, compiler::LayoutStrategy::GreedyDegree,
                                     true, std::nullopt};
      compiler::CompileOptions second{job.target, compiler::LayoutStrategy::Trivial,
                                      true, std::nullopt};
      {
        auto s = span("lock.recombine");
        r.recombined = lock::Deobfuscator().run(r.splits, job.circuit.num_qubits(),
                                                first, second);
      }
      lock_s += seconds_between(lock_start, Clock::now());
      {
        auto s = span("compiler.compile");
        r.baseline = compiler::Compiler(first).compile(job.circuit);
      }
      r.depth_original = job.circuit.depth();
      r.depth_obfuscated = r.obf.circuit.depth();
      r.gates_original = job.circuit.gate_count();
      r.gates_obfuscated = r.obf.circuit.gate_count();

      std::string correct;
      {
        auto s = span("sim.reference");
        correct = sim::classical_outcome(job.circuit, job.measured);
      }
      const std::map<std::string, double> reference{{correct, 1.0}};

      sim::SampleOptions opts;
      opts.shots = cfg.shots;
      opts.threads = 1;  // the one-worker production run samples serially too
      opts.fuse = cfg.fusion;
      opts.backend = sim::resolve_backend(cfg.backend, job.circuit);

      // As in lock::run_flow, the obfuscated view's sim.sample span also
      // covers compiling the masked circuit, so these spans and the production
      // trace's have the same boundaries. noisy_s times the sampler calls alone.
      struct View {
        const tetris::qir::Circuit* circuit;
        std::vector<int> measured;
      };
      compiler::CompileResult masked;
      auto view = [&](int v) -> View {
        if (v == 0) return {&masked.circuit, map_measured(job.measured, masked.final_layout)};
        if (v == 1) {
          return {&r.recombined.circuit, map_measured(job.measured, r.recombined.orig_to_phys)};
        }
        return {&r.baseline.circuit, map_measured(job.measured, r.baseline.final_layout)};
      };
      double noisy_s = 0.0;
      for (int v = 0; v < 3; ++v) {
        sim::Counts counts;
        View current;
        {
          auto s = span("sim.sample");
          if (v == 0) {
            Scoped c(&spans, "compiler.compile", request, s.id());
            masked = compiler::Compiler(first).compile(r.obf.masked());
          }
          current = view(v);
          opts.measured = current.measured;
          const auto t0 = Clock::now();
          counts = sim::sample(*current.circuit, job.target.noise, rng, opts);
          noisy_s += seconds_between(t0, Clock::now());
        }
        if (v == 0) r.tvd_obfuscated = tetris::metrics::tvd(counts, reference);
        if (v == 1) {
          r.tvd_restored = tetris::metrics::tvd(counts, reference);
          r.accuracy_restored = tetris::metrics::accuracy(counts, correct);
          if (exact_restore) {
            const std::string why = check_mode(counts, correct);
            if (!why.empty()) result.fail(job.name + ": " + why);
          }
        }
        if (v == 2) r.accuracy_original = tetris::metrics::accuracy(counts, correct);
        errored += errored_shot_fraction(*current.circuit, job.target.noise);
        output_gates += current.circuit->gate_count();
        ++sampled_circuits;
      }
      sample_s += noisy_s;
      flow_s += seconds_between(job_start, Clock::now());
      swaps += masked.stats.swaps_inserted + r.baseline.stats.swaps_inserted +
               r.recombined.first.result.stats.swaps_inserted +
               r.recombined.second.result.stats.swaps_inserted;

      // The same three runs with gate noise off (readout kept): the difference
      // is what errored-trajectory replay costs.
      sim::NoiseModel readout_only = job.target.noise;
      readout_only.p1 = readout_only.p2 = 0.0;
      Rng off_rng(jobs[j].seed);
      double clean_s = 0.0;
      for (int v = 0; v < 3; ++v) {
        const View current = view(v);
        opts.measured = current.measured;
        const auto t0 = Clock::now();
        {
          auto s = span("sim.sample.gate_noise_off");
          sim::sample(*current.circuit, readout_only, off_rng, opts);
        }
        clean_s += seconds_between(t0, Clock::now());
      }
      trajectory_s += noisy_s - clean_s;

      // Ideal-state apply of the restored circuit the way the sampler runs it
      // for this job: gate by gate, or FusionPlan::build + apply_fused.
      const tetris::qir::Circuit& restored = r.recombined.circuit;
      const double amps = static_cast<double>(std::size_t{1} << restored.num_qubits());
      const sim::FusionPlan plan = sim::FusionPlan::build(restored);
      sweep_reduction += plan.stats().sweep_reduction();
      sim::StateVector sv(restored.num_qubits());
      double apply_s = 0.0;
      if (cfg.fusion) {
        ideal_apply_s += time_per_call([&] { sim::FusionPlan::build(restored); }, spans,
                                       "sim.fusion.build", request, root.id());
        apply_s = time_per_call(
            [&] {
              sv.reset();
              sv.apply_fused(plan);
            },
            spans, "sim.apply_fused", request, root.id());
        kernel_bytes += 32.0 * amps * static_cast<double>(plan.stats().ops_out);
      } else {
        apply_s = time_per_call(
            [&] {
              sv.reset();
              sv.apply_circuit(restored);
            },
            spans, "sim.apply_circuit", request, root.id());
        kernel_bytes += 32.0 * amps * static_cast<double>(plan.stats().gates_in);
      }
      ideal_apply_s += apply_s;
      kernel_s += apply_s;

      // Per-shot draws from the ideal state (StateVector::sample).
      {
        Rng draw_rng(jobs[j].seed);
        const auto t0 = Clock::now();
        {
          auto s = span("sim.draw");
          for (std::size_t shot = 0; shot < cfg.shots; ++shot) sv.sample(draw_rng);
        }
        draw_s += seconds_between(t0, Clock::now());
        draws += cfg.shots;
      }

      if (j % 2 == 1) run_production();
      // The replay must reproduce the service's result exactly.
      if (outcome.state != service::JobState::kDone) {
        result.fail(job.name + ": production job " +
                    service::job_state_name(outcome.state));
      } else {
        const std::string why = check_byte_equal(service::to_json(r, 0),
                                                 service::to_json(outcome.result, 0));
        if (!why.empty()) result.fail(job.name + ": replay vs service: " + why);
        serialize_s += time_per_call([&] { service::to_json(outcome, false); },
                                     spans, "service.to_json", request, root.id(), 0.002);
      }
    }
  }).get();

  const double n = static_cast<double>(std::max<std::size_t>(jobs.size(), 1));
  const double sample_span_s = spans.total_seconds("sim.sample") - sample_before;
  result.set("sim.sample_ms", 1e3 * sample_s / n, "ms");
  result.set("sim.sample_share", flow_s > 0 ? sample_s / flow_s : 0.0, "frac");
  result.set("sim.trajectory_ms", 1e3 * trajectory_s / n, "ms");
  result.set("sim.errored_shot_frac",
             errored / static_cast<double>(std::max<std::size_t>(sampled_circuits, 1)),
             "frac");
  result.set("sim.draw_us_per_shot",
             draws ? 1e6 * draw_s / static_cast<double>(draws) : 0.0, "us");
  result.set("sim.ideal_apply_ms", 1e3 * ideal_apply_s / n, "ms");
  result.set("sim.fusion.sweep_reduction", sweep_reduction / n, "frac");
  const double gbps = kernel_s > 0 ? kernel_bytes / kernel_s / 1e9 : 0.0;
  result.set("sim.kernel.gbps", gbps, "GB/s");
  result.set("sim.kernel.roofline_frac", stream_gbps > 0 ? gbps / stream_gbps : 0.0,
             "frac");
  result.set("sim.kernel.stream_gbps", stream_gbps, "GB/s");
  result.set("compiler.compile_ms",
             1e3 * (spans.total_seconds("compiler.compile") - compile_before) / n, "ms");
  result.set("compiler.output_gates", static_cast<double>(output_gates) / n, "count");
  result.set("compiler.swaps_inserted", static_cast<double>(swaps) / n, "count");
  result.set("lock.obfuscate_ms", 1e3 * spans.total_seconds("lock.obfuscate") / n, "ms");
  result.set("lock.split_ms", 1e3 * spans.total_seconds("lock.split") / n, "ms");
  result.set("lock.recombine_ms", 1e3 * spans.total_seconds("lock.recombine") / n, "ms");
  result.set("lock.share", flow_s > 0 ? lock_s / flow_s : 0.0, "frac");
  result.set("service.serialize_us", 1e6 * serialize_s / n, "us");
  result.set("trace.reconcile_ratio",
             production_sample_s > 0 ? sample_span_s / production_sample_s : 0.0, "ratio");
}

// ----------------------------------------------------------------- net probe

namespace {

tetris::net::http::Request make_request(const std::string& method,
                                        const std::string& path,
                                        const std::string& body, bool no_timing) {
  tetris::net::http::Request req;
  req.method = method;
  req.path = path;
  req.target = path + (no_timing ? "?timing=0" : "");
  req.version = "HTTP/1.1";
  if (no_timing) req.query.emplace_back("timing", "0");
  req.body = body;
  return req;
}

}  // namespace

void probe_net(Topology& topology, const std::vector<std::string>& bodies,
               SpanRecorder& spans, Result& result) {
  net::Client via_dispatcher("127.0.0.1", topology.dispatcher_port());
  std::vector<std::unique_ptr<net::Client>> direct;
  for (std::size_t i = 0; i < topology.size(); ++i) {
    direct.push_back(
        std::make_unique<net::Client>("127.0.0.1", topology.server(i).port()));
  }

  std::vector<double> handle_s, direct_rtt_s, hop_rtt_s;
  std::size_t requests = 0;
  constexpr int kRounds = 8;
  for (const std::string& body : bodies) {
    const std::uint64_t request = spans.next_request();
    Scoped root(&spans, "probe.job", request);
    // Server::handle called directly: a submit on node 0...
    auto t0 = Clock::now();
    const auto posted =
        topology.server(0).handle(make_request("POST", "/v1/jobs", body, false));
    auto t1 = Clock::now();
    spans.record("net.server.handle", request, root.id(), t0, t1);
    handle_s.push_back(seconds_between(t0, t1));
    if (posted.status != 202) {
      result.fail("probe POST answered " + std::to_string(posted.status));
      continue;
    }
    // ...and the same job submitted through the dispatcher, the way a user
    // reaches it.
    const auto routed = via_dispatcher.post("/v1/jobs", body);
    ++requests;
    if (routed.status != 202) {
      result.fail("probe dispatch POST answered " + std::to_string(routed.status));
      continue;
    }
    const std::string dispatch_id =
        std::to_string(json::parse(routed.body).at("id").as_int());
    if (poll_until_terminal(via_dispatcher, dispatch_id, requests) != "done") {
      result.fail("probe job not done");
      continue;
    }
    const std::string hop_doc =
        via_dispatcher.get("/v1/jobs/" + dispatch_id + "?timing=0").body;
    ++requests;
    // The dispatcher passes the node's document through verbatim, node-local
    // id included; find the node that owns it.
    const std::string local_id =
        std::to_string(json::parse(hop_doc).at("id").as_int());
    std::size_t owner = topology.size();
    for (std::size_t i = 0; i < topology.size() && owner == topology.size(); ++i) {
      if (direct[i]->get("/v1/jobs/" + local_id + "?timing=0").body == hop_doc) owner = i;
    }
    if (owner == topology.size()) {
      result.fail("probe: no node serves the dispatcher's document");
      continue;
    }
    const std::string local_path = "/v1/jobs/" + local_id;
    t0 = Clock::now();
    topology.server(owner).handle(make_request("GET", local_path, "", true));
    t1 = Clock::now();
    spans.record("net.server.handle", request, root.id(), t0, t1);
    handle_s.push_back(seconds_between(t0, t1));
    for (int round = 0; round < kRounds; ++round) {
      t0 = Clock::now();
      const auto d = direct[owner]->get(local_path + "?timing=0");
      t1 = Clock::now();
      spans.record("net.http.rtt", request, root.id(), t0, t1);
      direct_rtt_s.push_back(seconds_between(t0, t1));
      t0 = Clock::now();
      const auto h = via_dispatcher.get("/v1/jobs/" + dispatch_id + "?timing=0");
      t1 = Clock::now();
      spans.record("net.dispatch.get", request, root.id(), t0, t1);
      hop_rtt_s.push_back(seconds_between(t0, t1));
      if (d.body != h.body) result.fail("probe: hop changed the document bytes");
    }
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(bodies.size(), 1));
  result.set("net.server.handle_us", 1e6 * mean(handle_s), "us");
  result.set("net.http.rtt_us", 1e6 * median(direct_rtt_s), "us");
  result.set("net.dispatch.hop_us", 1e6 * (median(hop_rtt_s) - median(direct_rtt_s)),
             "us");
  result.set("net.requests_per_job", static_cast<double>(requests) / jobs, "count");
}

}  // namespace perfbench
