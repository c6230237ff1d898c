#include "sim/statevector.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "runtime/thread_pool.h"
#include "sim/fusion.h"
#include "sim/kernels/kernels.h"

namespace tetris::sim {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
const cplx kI(0.0, 1.0);

/// Runs `kernel(begin, end)` over [0, count): chunked across the global pool
/// when `parallel` is set, as one serial call otherwise. Both paths execute
/// the same per-index arithmetic, so results are bit-identical. `align`
/// keeps chunk boundaries on vector-group multiples (AVX2 processes two
/// complex amplitudes per register) — a partitioning nicety, never a
/// correctness requirement.
template <typename Kernel>
void run_chunks(bool parallel, std::size_t grain, std::size_t align,
                std::size_t count, const Kernel& kernel) {
  if (parallel) {
    runtime::parallel_for(0, count, kernel, {grain, nullptr, align});
  } else {
    kernel(std::size_t{0}, count);
  }
}

/// Chunk alignment for the active mode: AVX2 packs 2 complex per register.
std::size_t mode_align(kernels::SimdMode mode) {
  return mode == kernels::SimdMode::kAvx2 ? 2 : 1;
}
}  // namespace

void single_qubit_matrix(qir::GateKind kind, const std::vector<double>& params,
                         cplx out[2][2]) {
  using qir::GateKind;
  auto set = [&](cplx a, cplx b, cplx c, cplx d) {
    out[0][0] = a; out[0][1] = b; out[1][0] = c; out[1][1] = d;
  };
  switch (kind) {
    case GateKind::I:    set(1, 0, 0, 1); return;
    case GateKind::X:    set(0, 1, 1, 0); return;
    case GateKind::Y:    set(0, -kI, kI, 0); return;
    case GateKind::Z:    set(1, 0, 0, -1); return;
    case GateKind::H:    set(kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2); return;
    case GateKind::S:    set(1, 0, 0, kI); return;
    case GateKind::Sdg:  set(1, 0, 0, -kI); return;
    case GateKind::T:    set(1, 0, 0, std::exp(kI * (M_PI / 4.0))); return;
    case GateKind::Tdg:  set(1, 0, 0, std::exp(-kI * (M_PI / 4.0))); return;
    case GateKind::SX:
      set(0.5 * cplx(1, 1), 0.5 * cplx(1, -1), 0.5 * cplx(1, -1), 0.5 * cplx(1, 1));
      return;
    case GateKind::SXdg:
      set(0.5 * cplx(1, -1), 0.5 * cplx(1, 1), 0.5 * cplx(1, 1), 0.5 * cplx(1, -1));
      return;
    case GateKind::RX: {
      double t = params.at(0) / 2.0;
      set(std::cos(t), -kI * std::sin(t), -kI * std::sin(t), std::cos(t));
      return;
    }
    case GateKind::RY: {
      double t = params.at(0) / 2.0;
      set(std::cos(t), -std::sin(t), std::sin(t), std::cos(t));
      return;
    }
    case GateKind::RZ: {
      double t = params.at(0) / 2.0;
      set(std::exp(-kI * t), 0, 0, std::exp(kI * t));
      return;
    }
    case GateKind::P:
      set(1, 0, 0, std::exp(kI * params.at(0)));
      return;
    default:
      throw InvalidArgument("single_qubit_matrix: kind '" +
                            qir::gate_kind_name(kind) + "' is not single-qubit");
  }
}

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  TETRIS_REQUIRE(num_qubits >= 0 && num_qubits <= 28,
                 "StateVector supports 0..28 qubits");
  amps_.assign(std::size_t{1} << num_qubits, cplx(0.0, 0.0));
  amps_[0] = 1.0;
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx(0.0, 0.0));
  amps_[0] = 1.0;
}

void StateVector::set_basis_state(std::size_t index) {
  TETRIS_REQUIRE(index < amps_.size(), "set_basis_state: index out of range");
  std::fill(amps_.begin(), amps_.end(), cplx(0.0, 0.0));
  amps_[index] = 1.0;
}

void StateVector::run_kernel(const kernels::SweepOp& op) {
  const kernels::SimdMode mode = kernels::simd_mode();
  cplx* amps = amps_.data();
  const kernels::SweepOp* sweep = &op;  // outlives the joined parallel_for
  // Every index of the op covers 2^shift amplitudes, so a chunk of
  // grain >> shift indices covers parallel_grain_ amplitudes. Indices touch
  // disjoint amplitude sets, so chunks are race-free and order-independent.
  run_chunks(use_parallel(),
             std::max<std::size_t>(1, parallel_grain_ >> op.shift),
             mode_align(mode), amps_.size() >> op.shift,
             [=](std::size_t begin, std::size_t end) {
               kernels::run(mode, amps, begin, end, *sweep);
             });
}

void StateVector::apply_matrix(const cplx m[2][2], int q) {
  TETRIS_REQUIRE(q >= 0 && q < num_qubits_, "apply_matrix: qubit out of range");
  run_kernel(kernels::lower(m, q));
}

void StateVector::apply_gang(const std::vector<SingleQubitOp>& ops) {
  if (ops.empty()) return;
  TETRIS_REQUIRE(ops.size() <= std::size_t{kMaxGangQubits},
                 "apply_gang: too many gang qubits");
  for (std::size_t j = 0; j < ops.size(); ++j) {
    TETRIS_REQUIRE(ops[j].qubit >= 0 && ops[j].qubit < num_qubits_,
                   "apply_gang: qubit out of range");
    for (std::size_t i = 0; i < j; ++i) {
      TETRIS_REQUIRE(ops[i].qubit != ops[j].qubit, "apply_gang: duplicate qubit");
    }
  }
  run_kernel(kernels::lower(ops.data(), ops.size()));
}

void StateVector::apply_two_qubit(const cplx m[4][4], int a, int b) {
  TETRIS_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                 "apply_two_qubit: qubit out of range");
  TETRIS_REQUIRE(a != b, "apply_two_qubit: qubits must be distinct");
  run_kernel(kernels::lower(m, a, b));
}

void StateVector::apply_gate(const qir::Gate& gate) {
  qir::validate_gate(gate, num_qubits_);
  if (gate.kind == qir::GateKind::Barrier) return;
  run_kernel(kernels::lower(gate));
}

void StateVector::apply_fused_op(const FusedOp& op) {
  TETRIS_REQUIRE((op.sweep.touched >> num_qubits_) == 0,
                 "apply_fused_op: op reaches past the register");
  run_kernel(op.sweep);
}

void StateVector::apply_tiled_run(const FusedOp* ops, std::size_t count) {
  const int tq = tile_qubits_;
  const std::size_t tile = std::size_t{1} << tq;
  const kernels::SimdMode mode = kernels::simd_mode();
  cplx* amps = amps_.data();
  // Each tile applies the run's ops in order before moving on. Ops are
  // tile-local, so tile t's amplitudes see exactly the operation sequence of
  // the whole-array sweeps — tiling reorders traversal, not arithmetic —
  // and tiles are disjoint, so parallel chunks of tiles stay bit-identical.
  run_chunks(use_parallel(), std::max<std::size_t>(1, parallel_grain_ >> tq),
             1, amps_.size() >> tq, [=](std::size_t t_begin, std::size_t t_end) {
               for (std::size_t t = t_begin; t < t_end; ++t) {
                 cplx* region = amps + (t << tq);
                 for (std::size_t i = 0; i < count; ++i) {
                   const kernels::SweepOp& op = ops[i].sweep;
                   kernels::run(mode, region, 0, tile >> op.shift, op);
                 }
               }
             });
}

void StateVector::apply_fused(const FusionPlan& plan) {
  TETRIS_REQUIRE(plan.num_qubits() <= num_qubits_,
                 "apply_fused: plan wider than register");
  const auto& ops = plan.ops();
  // Cache blocking pays once the register outgrows a tile; a run needs at
  // least two tile-local ops before the reordered traversal saves a pass.
  // An op is tile-local when every qubit it touches lies below the tile
  // width, so its index arithmetic never reaches outside the tile.
  const bool tiling = num_qubits_ > tile_qubits_ && tile_qubits_ >= 2;
  const auto tile_local = [&](const FusedOp& op) {
    return (op.sweep.touched >> tile_qubits_) == 0;
  };
  std::size_t i = 0;
  while (i < ops.size()) {
    if (tiling && tile_local(ops[i])) {
      std::size_t j = i + 1;
      while (j < ops.size() && tile_local(ops[j])) ++j;
      if (j - i >= 2) {
        apply_tiled_run(ops.data() + i, j - i);
        i = j;
        continue;
      }
    }
    apply_fused_op(ops[i]);
    ++i;
  }
}

void StateVector::apply_circuit(const qir::Circuit& circuit) {
  TETRIS_REQUIRE(circuit.num_qubits() <= num_qubits_,
                 "apply_circuit: circuit wider than register");
  for (const auto& g : circuit.gates()) apply_gate(g);
}

void StateVector::apply_pauli(char pauli, int q) {
  switch (pauli) {
    case 'I': return;
    case 'X': apply_gate(qir::make_x(q)); return;
    case 'Y': apply_gate(qir::make_y(q)); return;
    case 'Z': apply_gate(qir::make_z(q)); return;
    default:
      throw InvalidArgument(std::string("apply_pauli: bad Pauli '") + pauli + "'");
  }
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  double* out = p.data();
  const cplx* amps = amps_.data();
  run_chunks(use_parallel(), parallel_grain_, 1, amps_.size(),
             [=](std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 out[i] = std::norm(amps[i]);
               }
             });
  return p;
}

std::size_t StateVector::sample(Rng& rng) const {
  const std::vector<cplx>& amps = amps_;
  const double r = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    acc += std::norm(amps[i]);
    if (r < acc) return i;
  }
  // Numerical tail: rounding left the total at or below r. Kept out of the
  // scan above, which every shot's draw runs.
  for (std::size_t i = amps.size(); i-- > 0;) {
    if (std::norm(amps[i]) != 0.0) return i;
  }
  return amps.size() - 1;
}

cplx StateVector::inner(const StateVector& other) const {
  TETRIS_REQUIRE(num_qubits_ == other.num_qubits_, "inner: width mismatch");
  cplx acc(0.0, 0.0);
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::conj(amps_[i]) * other.amps_[i];
  }
  return acc;
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner(other));
}

double StateVector::max_abs_diff(const StateVector& other) const {
  TETRIS_REQUIRE(num_qubits_ == other.num_qubits_, "max_abs_diff: width mismatch");
  double mx = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    mx = std::max(mx, std::abs(amps_[i] - other.amps_[i]));
  }
  return mx;
}

void StateVector::normalize() {
  double norm2 = 0.0;
  for (const cplx& a : amps_) norm2 += std::norm(a);
  TETRIS_REQUIRE(norm2 > 0.0, "normalize: zero state");
  double inv = 1.0 / std::sqrt(norm2);
  for (cplx& a : amps_) a *= inv;
}

}  // namespace tetris::sim
