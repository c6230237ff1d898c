#include "sim/sampler.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/error.h"
#include "runtime/shard.h"
#include "runtime/thread_pool.h"
#include "sim/backend/backend.h"
#include "sim/backend/statevector_backend.h"
#include "sim/fusion.h"
#include "sim/statevector.h"

namespace tetris::sim {

namespace {

const char kPaulis[] = {'I', 'X', 'Y', 'Z'};

/// Applies a uniformly random non-identity Pauli string to `qubits`. The
/// draw and the per-qubit application order are part of the per-shot
/// determinism contract.
void inject_depolarizing(Backend& reg, const std::vector<int>& qubits,
                         Rng& rng) {
  std::size_t num_strings = 1;
  for (std::size_t i = 0; i < qubits.size(); ++i) num_strings *= 4;
  // Draw from [1, 4^k - 1]: skip the all-identity string.
  std::size_t code = 1 + rng.index(num_strings - 1);
  for (int q : qubits) {
    reg.apply_pauli(kPaulis[code & 3], q);
    code >>= 2;
  }
}

/// Returns the per-gate error probability under `noise` (0 for barriers).
double gate_error_prob(const qir::Gate& g, const NoiseModel& noise) {
  if (g.kind == qir::GateKind::Barrier) return 0.0;
  return g.num_qubits() >= 2 ? noise.p2 : noise.p1;
}

/// Applies per-bit readout flips to a raw basis index.
std::size_t apply_readout(std::size_t index, const std::vector<int>& measured,
                          double readout, Rng& rng) {
  if (readout <= 0.0) return index;
  for (int q : measured) {
    if (rng.bernoulli(readout)) index ^= (std::size_t{1} << q);
  }
  return index;
}

}  // namespace

std::size_t Counts::count(const std::string& bs) const {
  auto it = histogram.find(bs);
  return it == histogram.end() ? 0 : it->second;
}

std::map<std::string, double> Counts::distribution() const {
  std::map<std::string, double> out;
  if (shots == 0) return out;
  for (const auto& [k, v] : histogram) {
    out[k] = static_cast<double>(v) / static_cast<double>(shots);
  }
  return out;
}

std::string Counts::mode() const {
  TETRIS_REQUIRE(!histogram.empty(), "Counts::mode on empty histogram");
  auto best = histogram.begin();
  for (auto it = histogram.begin(); it != histogram.end(); ++it) {
    if (it->second > best->second) best = it;
  }
  return best->first;
}

std::string bitstring(std::size_t index, int num_bits) {
  std::string out(static_cast<std::size_t>(num_bits), '0');
  for (int b = 0; b < num_bits; ++b) {
    if ((index >> b) & 1) out[static_cast<std::size_t>(num_bits - 1 - b)] = '1';
  }
  return out;
}

Counts sample(const qir::Circuit& circuit, const NoiseModel& noise, Rng& rng,
              const SampleOptions& options, SampleStats* stats) {
  const std::vector<int> measured =
      resolve_measured(circuit.num_qubits(), options.measured);
  Counts counts;
  counts.shots = options.shots;
  if (stats != nullptr) *stats = SampleStats{};
  // Exactly one draw, unconditionally: the base of the per-shot stream
  // family. The caller's generator advancement is therefore independent of
  // shots, threads, and chunking.
  const std::uint64_t base_seed = rng.next_u64();
  if (options.shots == 0) return counts;

  const auto& gates = circuit.gates();
  std::vector<double> error_probs(gates.size());
  bool any_gate_noise = false;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    error_probs[i] = gate_error_prob(gates[i], noise);
    any_gate_noise = any_gate_noise || error_probs[i] > 0.0;
  }

  // One ideal run serves every error-free shot, shared read-only by all
  // shard workers. On the statevector engine with options.fuse it goes
  // through the fused kernels, and the plan is kept for the errored
  // trajectories' cursor below. Only this engine ever builds a plan; the
  // others ignore `fuse`.
  const BackendKind kind = resolve_backend(options.backend, circuit);
  std::unique_ptr<Backend> ideal;
  FusionPlan plan;
  const FusionPlan* fused = nullptr;
  if (kind == BackendKind::kStateVector && options.fuse) {
    auto sv = std::make_unique<StateVectorBackend>(circuit.num_qubits());
    plan = FusionPlan::build(circuit);
    sv->state().apply_fused(plan);
    fused = &plan;
    ideal = std::move(sv);
  } else {
    ideal = make_backend(kind, circuit.num_qubits());
    ideal->apply(circuit);  // structured UnsupportedGate on an unsupported gate
  }
  // Cache the sampling form before the register is shared across shard
  // workers: const queries on an unprepared engine rebuild it per call.
  ideal->prepare();

  // Shot i's error sites: one Bernoulli per gate, in gate order, drawn from
  // its own stream — the first draws every shot makes.
  auto draw_sites = [&](Rng& shot_rng, std::vector<std::size_t>& sites) {
    sites.clear();
    if (!any_gate_noise) return;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (error_probs[i] > 0.0 && shot_rng.bernoulli(error_probs[i])) {
        sites.push_back(i);
      }
    }
  };

  // Runs shots [begin, end) into `out`. Shot i draws exclusively from
  // Rng::for_stream(base_seed, i) — error-site Bernoullis in gate order,
  // injection draws in site order, one uniform for the outcome, then the
  // readout flips — so a range's outcomes depend only on its indices, never
  // on which thread or chunk executes it, and every engine consumes the
  // same draws.
  //
  // Phase 1 draws every shot's sites; error-free shots finish on the ideal
  // register. Phase 2 takes the errored shots in order of first site and
  // walks one cursor register forward from |0...0> through that site (by
  // whole fused ops when fused, exactly the ops that fit before it); each
  // shot copies the cursor, injects the sites it passed, and replays only
  // the tail. The cursor holds the bits a fresh register reaches through
  // the same kernels in the same order, so the counts are those of a full
  // replay from |0...0>. A shot's generator is re-derived in phase 2 and
  // re-draws its sites, so the only per-shot state kept between the phases
  // is (first site, shot index).
  auto run_shots = [&](std::size_t begin, std::size_t end, Counts& out,
                       SampleStats& st) {
    auto finish = [&](std::size_t raw, Rng& shot_rng) {
      raw = apply_readout(raw, measured, noise.readout, shot_rng);
      ++out.histogram[project_index(raw, measured)];
    };
    std::vector<std::size_t> sites;
    std::vector<std::pair<std::size_t, std::size_t>> errored;
    for (std::size_t shot = begin; shot < end; ++shot) {
      Rng shot_rng = Rng::for_stream(base_seed, shot);
      draw_sites(shot_rng, sites);
      if (sites.empty()) {
        finish(ideal->sample_index(shot_rng), shot_rng);
      } else {
        errored.emplace_back(sites.front(), shot);
      }
    }
    if (errored.empty()) return;

    std::sort(errored.begin(), errored.end());
    const std::unique_ptr<Backend> cursor =
        make_backend(kind, circuit.num_qubits());
    const std::unique_ptr<Backend> traj =
        make_backend(kind, circuit.num_qubits());
    std::size_t resume = 0;   // first gate the cursor has not applied
    std::size_t next_op = 0;  // fused: first plan op the cursor has not applied
    for (const auto& [first_site, shot] : errored) {
      if (fused != nullptr) {
        resume = advance_fused(
            static_cast<StateVectorBackend&>(*cursor).state(), *fused,
            next_op, first_site + 1);
      } else {
        for (; resume <= first_site; ++resume) {
          cursor->apply_gate(gates[resume]);
        }
      }
      Rng shot_rng = Rng::for_stream(base_seed, shot);
      draw_sites(shot_rng, sites);
      traj->assign(*cursor);
      std::size_t next_err = 0;
      for (; next_err < sites.size() && sites[next_err] < resume; ++next_err) {
        inject_depolarizing(*traj, gates[sites[next_err]].qubits, shot_rng);
      }
      for (std::size_t i = resume; i < gates.size(); ++i) {
        traj->apply_gate(gates[i]);
        if (next_err < sites.size() && sites[next_err] == i) {
          inject_depolarizing(*traj, gates[i].qubits, shot_rng);
          ++next_err;
        }
      }
      st.tail_gates += gates.size() - resume;
      finish(traj->sample_index(shot_rng), shot_rng);
    }
    st.errored_shots += errored.size();
  };

  // Shard plan. The chunk grain is a pure performance knob: results are
  // bit-identical for any partition because shot i's randomness is
  // for_stream(base_seed, i) wherever it runs.
  runtime::ThreadPool* pool = options.pool;
  if (pool == nullptr) pool = runtime::ThreadPool::current();
  if (pool == nullptr) pool = &runtime::ThreadPool::global();
  const unsigned width = std::max(
      1u, options.threads == 0 ? pool->size() : options.threads);
  const std::size_t grain = std::max<std::size_t>(1, options.shots_per_chunk);
  // Floor division honors the "at least `grain` shots per chunk" contract
  // (ceil could halve the final chunks); the width*4 cap gives each
  // participant a few chunks so one slow (error-heavy) chunk does not
  // serialize the tail.
  const std::size_t by_grain = std::max<std::size_t>(1, options.shots / grain);
  const std::size_t num_chunks =
      std::min<std::size_t>(by_grain, static_cast<std::size_t>(width) * 4);
  SampleStats total;
  if (width == 1 || num_chunks <= 1) {
    run_shots(0, options.shots, counts, total);
  } else {
    // runtime::run_chunked is a caller-participates cursor: safe from inside
    // a pool worker, and degrades to serial on a saturated pool. Chunk c
    // writes only to partial[c], and the partials merge in index order, so
    // the histogram is independent of width, pool, and claim order.
    const std::size_t chunk = (options.shots + num_chunks - 1) / num_chunks;
    const std::size_t chunks = (options.shots + chunk - 1) / chunk;
    std::vector<Counts> partial(chunks);
    std::vector<SampleStats> partial_stats(chunks);
    runtime::run_chunked(*pool, chunks, width, [&](std::size_t c) {
      const std::size_t begin = c * chunk;
      run_shots(begin, std::min(options.shots, begin + chunk), partial[c],
                partial_stats[c]);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      for (const auto& [key, value] : partial[c].histogram) {
        counts.histogram[key] += value;
      }
      total.errored_shots += partial_stats[c].errored_shots;
      total.tail_gates += partial_stats[c].tail_gates;
    }
  }
  if (stats != nullptr) *stats = total;
  return counts;
}

std::map<std::string, double> ideal_distribution(const qir::Circuit& circuit,
                                                 const std::vector<int>& measured) {
  StateVectorBackend sv(circuit.num_qubits());
  sv.apply(circuit);
  return sv.distribution(measured);
}

std::string classical_outcome(const qir::Circuit& circuit,
                              const std::vector<int>& measured) {
  TETRIS_REQUIRE(circuit.is_classical(),
                 "classical_outcome requires a reversible (classical) circuit");
  const std::vector<int> m = resolve_measured(circuit.num_qubits(), measured);
  // Propagate the all-zero bit assignment through the permutation gates.
  std::vector<char> bits(static_cast<std::size_t>(circuit.num_qubits()), 0);
  for (const auto& g : circuit.gates()) {
    using qir::GateKind;
    switch (g.kind) {
      case GateKind::I:
      case GateKind::Barrier:
        break;
      case GateKind::X:
        bits[static_cast<std::size_t>(g.qubits[0])] ^= 1;
        break;
      case GateKind::SWAP:
        std::swap(bits[static_cast<std::size_t>(g.qubits[0])],
                  bits[static_cast<std::size_t>(g.qubits[1])]);
        break;
      case GateKind::CSWAP:
        if (bits[static_cast<std::size_t>(g.qubits[0])]) {
          std::swap(bits[static_cast<std::size_t>(g.qubits[1])],
                    bits[static_cast<std::size_t>(g.qubits[2])]);
        }
        break;
      case GateKind::CX:
      case GateKind::CCX:
      case GateKind::MCX: {
        bool all = true;
        for (std::size_t i = 0; i + 1 < g.qubits.size(); ++i) {
          all = all && bits[static_cast<std::size_t>(g.qubits[i])];
        }
        if (all) bits[static_cast<std::size_t>(g.qubits.back())] ^= 1;
        break;
      }
      default:
        throw InvalidArgument("classical_outcome: non-classical gate " + g.name());
    }
  }
  std::size_t index = 0;
  for (std::size_t q = 0; q < bits.size(); ++q) {
    if (bits[q]) index |= std::size_t{1} << q;
  }
  return project_index(index, m);
}

}  // namespace tetris::sim
