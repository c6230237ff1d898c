#pragma once

// The traced run's per-layer measurements. The benchmark calls each
// module's public functions itself, in the order lock::run_flow does, and
// wraps every call in one of its own spans; metrics are computed from those
// spans. Nothing here instruments the library.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lock/pipeline.h"
#include "net/dispatch.h"
#include "net/server.h"
#include "report.h"
#include "service/service.h"

namespace perfbench {

/// One job of a workload, as the benchmark submits it.
struct JobSpec {
  tetris::lock::FlowJob job;
  std::uint64_t seed = 0;
};

/// `nodes` net::Server front-ends, each over its own service::Service, behind
/// one net::Dispatcher, all on loopback ephemeral ports.
class Topology {
 public:
  Topology(unsigned nodes, unsigned workers_per_node, std::size_t cache_capacity);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  int dispatcher_port() const { return dispatcher_->port(); }
  std::size_t size() const { return servers_.size(); }
  tetris::net::Server& server(std::size_t i) { return *servers_[i]; }
  unsigned workers() const;

 private:
  std::vector<std::unique_ptr<tetris::service::Service>> services_;
  std::vector<std::unique_ptr<tetris::net::Server>> servers_;
  std::unique_ptr<tetris::net::Dispatcher> dispatcher_;
};

/// Replays `jobs` layer by layer (lock, compiler, sim, service) with spans
/// around every call, checks that the replay reproduces the service's own
/// result for each job, reconciles the benchmark's sim.sample time against
/// the production JobOutcome::trace spans, and sets the sim.*, compiler.*,
/// lock.*, service.serialize_us and trace.reconcile_ratio metrics.
/// `exact_restore` adds the wide_fused check that the sampled mode equals
/// the bit-propagation outcome of the source circuit.
void replay_layers(const std::vector<JobSpec>& jobs, double stream_gbps,
                   bool exact_restore, SpanRecorder& spans, Result& result);

/// Submits `bodies` through the topology's dispatcher and measures the net
/// layer: Server::handle called directly (POST and GET), the round trip
/// straight to the owning node, the extra cost of the dispatcher hop, and
/// requests per job. Sets the net.* metrics. Every job must finish done and
/// its wire document must read the same directly and through the hop.
void probe_net(Topology& topology, const std::vector<std::string>& bodies,
               SpanRecorder& spans, Result& result);

/// Polls GET /v1/jobs/{id} until the job is terminal; returns its state and
/// adds the requests made to `requests`. Throws after `timeout_s`.
std::string poll_until_terminal(tetris::net::Client& client, const std::string& id,
                                std::size_t& requests, double timeout_s = 120.0);

/// POST /v1/jobs body for a job: a Table-I name when `benchmark` is set,
/// inline OpenQASM otherwise.
std::string submit_body(const JobSpec& spec, const std::string& benchmark);

}  // namespace perfbench
