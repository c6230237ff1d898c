// Backend throughput: statevector vs stabilizer tableau across a register-
// width sweep, on random Clifford circuits (the workload the `auto` policy
// routes — see sim/backend/backend.h).
//
// The statevector costs O(2^n) per gate and per sampling sweep; the tableau
// costs O(n^2) per gate and O(n^3) once (the Gaussian elimination in
// prepare()) plus O(n) per shot. The sweep shows the crossover the
// kAutoStateVectorCeilingQubits constant encodes: the dense engine wins on
// narrow registers (tiny constant factors, cache-resident amplitudes), the
// tableau wins past ~20 qubits and is the only engine that reaches the
// 50-qubit scale circuits (cliff50) at all.
//
// Flags (bench_util.h): --shots N sets the sampling shots per width
// (default 1000), --iterations N the timed repetitions, --seed the circuit
// and sampling seed, --out the JSON path (default BENCH_backend.json).
//
// The harness is also a correctness gate: at every width both engines can
// hold, their sample() histograms under the same seed must match exactly
// (the shot-for-shot contract test_backend.cpp pins); any mismatch makes
// the exit status non-zero, which is what CI checks. Timing numbers are
// reported but NOT gated — the checked-in JSON comes from the dev
// container, so regenerate on target hardware for real ratios.
//
// CI runs `bench_backend_throughput --shots 64 --iterations 2` as a smoke
// check and validates the JSON with `python -m json.tool`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "qir/circuit.h"
#include "sim/backend/backend.h"

namespace {

using namespace tetris;

/// Random Clifford workload from the fixed-matrix alphabet (the same one
/// the differential harness uses): every gate is tableau-executable and
/// every statevector amplitude stays on the exact dyadic grid.
qir::Circuit random_clifford(int n, int gates, Rng& rng) {
  qir::Circuit c(n, "backend_bench");
  for (int i = 0; i < gates; ++i) {
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    switch (rng.uniform_int(0, 11)) {
      case 0: c.h(a); break;
      case 1: c.s(a); break;
      case 2: c.sdg(a); break;
      case 3: c.x(a); break;
      case 4: c.y(a); break;
      case 5: c.z(a); break;
      case 6: c.sx(a); break;
      case 7: c.sxdg(a); break;
      default: {
        if (n < 2) { c.h(a); break; }
        const int b =
            (a + 1 +
             static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)))) %
            n;
        switch (rng.uniform_int(0, 3)) {
          case 0: c.cx(a, b); break;
          case 1: c.cy(a, b); break;
          case 2: c.cz(a, b); break;
          default: c.swap(a, b); break;
        }
        break;
      }
    }
  }
  return c;
}

struct WidthPoint {
  int qubits = 0;
  std::size_t gates = 0;
  double sv_apply_seconds = 0.0;    // 0 when the width exceeds the engine
  double sv_sample_seconds = 0.0;
  double stab_apply_seconds = 0.0;  // includes prepare()
  double stab_sample_seconds = 0.0;
  double sample_speedup = 0.0;      // sv_sample / stab_sample, 0 when n/a
  bool both_ran = false;
  bool counts_match = true;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void write_json(const std::string& path, const benchutil::Args& args,
                bool counts_ok, const std::vector<WidthPoint>& sweep) {
  json::Writer w;
  benchutil::begin_result(w, "backend_throughput", args);
  w.key("counts_match_ok").value(counts_ok);
  w.key("results").begin_array();
  for (const WidthPoint& p : sweep) {
    w.begin_object();
    w.key("qubits").value(p.qubits);
    w.key("gates").value(p.gates);
    if (p.sv_apply_seconds > 0.0) {
      w.key("statevector_apply_seconds").value(p.sv_apply_seconds);
      w.key("statevector_sample_seconds").value(p.sv_sample_seconds);
    }
    w.key("stabilizer_apply_seconds").value(p.stab_apply_seconds);
    w.key("stabilizer_sample_seconds").value(p.stab_sample_seconds);
    if (p.both_ran) {
      w.key("sample_speedup_stab_vs_sv").value(p.sample_speedup);
      w.key("counts_match").value(p.counts_match);
    }
    w.end_object();
  }
  w.end_array();
  // The acceptance-relevant number: the tableau engine finishes the widest
  // register at all (the statevector cannot represent it).
  double widest = 0.0;
  for (const WidthPoint& p : sweep) {
    if (p.qubits == sweep.back().qubits) {
      widest = p.stab_apply_seconds + p.stab_sample_seconds;
    }
  }
  w.key("stabilizer_seconds_at_widest").value(widest);
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
      args.out.empty() ? "BENCH_backend.json" : args.out;
  const std::size_t shots = std::max<std::size_t>(1, args.shots);
  const int iterations = std::max(1, args.iterations);

  // 20 qubits is the auto-policy ceiling; 32 and 50 are tableau-only
  // territory (50 matches the cliff50 scale benchmark).
  const std::vector<int> widths = {4, 8, 12, 16, 20, 32, 50};
  std::cout << "workload: random Clifford circuits, 20*n gates, " << shots
            << " shots x " << iterations << " iterations\n\n";
  benchutil::Table table({"qubits", "gates", "sv apply (s)", "sv sample (s)",
                          "stab apply (s)", "stab sample (s)", "match"},
                         {7, 7, 13, 14, 15, 16, 6});
  table.print_header();

  std::vector<WidthPoint> sweep;
  bool counts_ok = true;
  for (int n : widths) {
    const int gates = 20 * n;
    Rng circuit_rng(args.seed + static_cast<std::uint64_t>(n));
    const auto circuit = random_clifford(n, gates, circuit_rng);

    WidthPoint point;
    point.qubits = n;
    point.gates = circuit.gate_count();

    std::map<std::string, std::size_t> sv_counts;
    const bool sv_fits = n <= sim::kAutoStateVectorCeilingQubits;
    if (sv_fits) {
      auto sv = sim::make_backend(sim::BackendKind::kStateVector, n);
      auto start = std::chrono::steady_clock::now();
      for (int it = 0; it < iterations; ++it) {
        sv->reset();
        sv->apply(circuit);
        sv->prepare();
      }
      point.sv_apply_seconds = seconds_since(start) / iterations;
      Rng rng(args.seed);
      start = std::chrono::steady_clock::now();
      for (int it = 0; it < iterations; ++it) {
        Rng shot_rng = rng;  // identical draws every iteration
        sv_counts = sv->sample(shots, {}, shot_rng);
      }
      point.sv_sample_seconds = seconds_since(start) / iterations;
    }

    auto stab = sim::make_backend(sim::BackendKind::kStabilizer, n);
    auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iterations; ++it) {
      stab->reset();
      stab->apply(circuit);
      stab->prepare();
    }
    point.stab_apply_seconds = seconds_since(start) / iterations;
    std::map<std::string, std::size_t> stab_counts;
    Rng rng(args.seed);
    start = std::chrono::steady_clock::now();
    for (int it = 0; it < iterations; ++it) {
      Rng shot_rng = rng;
      stab_counts = stab->sample(shots, {}, shot_rng);
    }
    point.stab_sample_seconds = seconds_since(start) / iterations;

    if (sv_fits) {
      point.both_ran = true;
      point.counts_match = sv_counts == stab_counts;
      if (!point.counts_match) counts_ok = false;
      point.sample_speedup = point.stab_sample_seconds > 0.0
                                 ? point.sv_sample_seconds /
                                       point.stab_sample_seconds
                                 : 0.0;
    }

    table.print_row(
        {std::to_string(n), std::to_string(point.gates),
         sv_fits ? fmt_double(point.sv_apply_seconds, 5) : std::string("-"),
         sv_fits ? fmt_double(point.sv_sample_seconds, 5) : std::string("-"),
         fmt_double(point.stab_apply_seconds, 5),
         fmt_double(point.stab_sample_seconds, 5),
         point.both_ran ? (point.counts_match ? "yes" : "NO") : "-"});
    sweep.push_back(point);
  }

  std::cout << "\n";
  write_json(out_path, args, counts_ok, sweep);
  if (!counts_ok) {
    std::cerr << "FAIL: engines disagreed on sampled counts\n";
    return 1;
  }
  return 0;
}
