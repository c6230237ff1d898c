#include "sim/statevector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "sim/fusion.h"

namespace tetris::sim {
namespace {

constexpr double kTol = 1e-12;

TEST(StateVector, InitialState) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(1, 0)), 0.0, kTol);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitudes()[i]), 0.0, kTol);
  }
}

TEST(StateVector, WidthLimits) {
  EXPECT_NO_THROW(StateVector(0));
  EXPECT_THROW(StateVector(-1), InvalidArgument);
  EXPECT_THROW(StateVector(29), InvalidArgument);
}

TEST(StateVector, XFlipsBit) {
  StateVector sv(2);
  sv.apply_gate(qir::make_x(1));
  // little-endian: qubit 1 set -> index 2
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, HadamardCreatesSuperposition) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(s, 0)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - cplx(s, 0)), 0.0, kTol);
}

TEST(StateVector, BellState) {
  StateVector sv(2);
  qir::Circuit c(2);
  c.h(0).cx(0, 1);
  sv.apply_circuit(c);
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(s, 0)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[3] - cplx(s, 0)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[2]), 0.0, kTol);
}

TEST(StateVector, CxControlOff) {
  StateVector sv(2);
  sv.apply_gate(qir::make_cx(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, CxControlOn) {
  StateVector sv(2);
  sv.apply_gate(qir::make_x(0));
  sv.apply_gate(qir::make_cx(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitudes()[3] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, ToffoliTruthTable) {
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(3);
    sv.set_basis_state(input);
    sv.apply_gate(qir::make_ccx(0, 1, 2));
    unsigned expected = input;
    if ((input & 1u) && (input & 2u)) expected ^= 4u;
    EXPECT_NEAR(std::abs(sv.amplitudes()[expected] - cplx(1, 0)), 0.0, kTol)
        << "input=" << input;
  }
}

TEST(StateVector, McxTruthTable) {
  for (unsigned input = 0; input < 16; ++input) {
    StateVector sv(4);
    sv.set_basis_state(input);
    sv.apply_gate(qir::make_mcx({0, 1, 2}, 3));
    unsigned expected = input;
    if ((input & 7u) == 7u) expected ^= 8u;
    EXPECT_NEAR(std::abs(sv.amplitudes()[expected] - cplx(1, 0)), 0.0, kTol)
        << "input=" << input;
  }
}

TEST(StateVector, SwapExchangesQubits) {
  StateVector sv(2);
  sv.apply_gate(qir::make_x(0));    // |01> little-endian index 1
  sv.apply_gate(qir::make_swap(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, CswapTruthTable) {
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(3);
    sv.set_basis_state(input);
    sv.apply_gate(qir::make_cswap(0, 1, 2));
    unsigned expected = input;
    if (input & 1u) {
      bool b1 = input & 2u, b2 = input & 4u;
      expected = (input & 1u) | (b2 ? 2u : 0u) | (b1 ? 4u : 0u);
    }
    EXPECT_NEAR(std::abs(sv.amplitudes()[expected] - cplx(1, 0)), 0.0, kTol)
        << "input=" << input;
  }
}

TEST(StateVector, ZPhasesOne) {
  StateVector sv(1);
  sv.apply_gate(qir::make_x(0));
  sv.apply_gate(qir::make_z(0));
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - cplx(-1, 0)), 0.0, kTol);
}

TEST(StateVector, SGateGivesI) {
  StateVector sv(1);
  sv.apply_gate(qir::make_x(0));
  sv.apply_gate(qir::make_s(0));
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - cplx(0, 1)), 0.0, kTol);
}

TEST(StateVector, TSquaredIsS) {
  StateVector a(1), b(1);
  a.apply_gate(qir::make_h(0));
  a.apply_gate(qir::make_t(0));
  a.apply_gate(qir::make_t(0));
  b.apply_gate(qir::make_h(0));
  b.apply_gate(qir::make_s(0));
  EXPECT_NEAR(a.max_abs_diff(b), 0.0, kTol);
}

TEST(StateVector, SxSquaredIsX) {
  StateVector a(1), b(1);
  a.apply_gate(qir::make_sx(0));
  a.apply_gate(qir::make_sx(0));
  b.apply_gate(qir::make_x(0));
  // Global phase may differ; compare probabilities + fidelity.
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-10);
}

TEST(StateVector, RzIsDiagonalPhase) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  sv.apply_gate(qir::make_rz(M_PI / 2, 0));
  // RZ(pi/2) = diag(e^{-i pi/4}, e^{i pi/4}).
  const double s = 1.0 / std::sqrt(2.0);
  cplx expected0 = s * std::exp(cplx(0, -M_PI / 4));
  cplx expected1 = s * std::exp(cplx(0, M_PI / 4));
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - expected0), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - expected1), 0.0, kTol);
}

TEST(StateVector, GateAdjointRoundTripsState) {
  // Apply G then G^dagger and recover the input for every 1q kind.
  using qir::GateKind;
  std::vector<qir::Gate> gates = {
      qir::make_x(0),  qir::make_y(0),    qir::make_z(0),  qir::make_h(0),
      qir::make_s(0),  qir::make_sdg(0),  qir::make_t(0),  qir::make_tdg(0),
      qir::make_sx(0), qir::make_sxdg(0), qir::make_rx(0.3, 0),
      qir::make_ry(-0.9, 0), qir::make_rz(1.7, 0), qir::make_p(0.4, 0)};
  for (const auto& g : gates) {
    StateVector sv(1);
    sv.apply_gate(qir::make_h(0));  // non-trivial input
    StateVector ref = sv;
    sv.apply_gate(g);
    sv.apply_gate(g.adjoint());
    EXPECT_NEAR(sv.max_abs_diff(ref), 0.0, 1e-10) << g.name();
  }
}

TEST(StateVector, PauliInjection) {
  StateVector sv(2);
  sv.apply_pauli('X', 1);
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
  sv.apply_pauli('I', 0);
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
  EXPECT_THROW(sv.apply_pauli('Q', 0), InvalidArgument);
}

TEST(StateVector, ProbabilitiesSumToOne) {
  StateVector sv(3);
  qir::Circuit c(3);
  c.h(0).cx(0, 1).t(1).h(2).cx(2, 0);
  sv.apply_circuit(c);
  auto p = sv.probabilities();
  double sum = 0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(StateVector, SampleMatchesDistribution) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  Rng rng(17);
  int ones = 0;
  const int shots = 20000;
  for (int i = 0; i < shots; ++i) {
    ones += static_cast<int>(sv.sample(rng));
  }
  EXPECT_NEAR(static_cast<double>(ones) / shots, 0.5, 0.02);
}

// A sub-normalized register whose last index has zero probability: a draw
// at or past the accumulated total (r >= 0.25 here, about 75% of draws) must
// fall back to the last index with non-zero probability, not to index 1.
TEST(StateVector, SampleTailNeverReturnsZeroProbabilityIndex) {
  StateVector sv(1);
  const cplx half[2][2] = {{0.5, 0.0}, {0.0, 0.5}};
  sv.apply_matrix(half, 0);
  ASSERT_EQ(sv.amplitudes()[0], cplx(0.5, 0.0));
  ASSERT_EQ(std::norm(sv.amplitudes()[1]), 0.0);
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(sv.sample(rng), 0u) << "draw " << i;
}

TEST(StateVector, SampleConsumesOneDrawPerShot) {
  // The tail fallback must not change how many uniforms a draw consumes.
  StateVector sv(2);
  sv.apply_gate(qir::make_h(0));
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    sv.sample(a);
    b.uniform();
  }
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(StateVector, ApplyGateRejectsRepeatedQubits) {
  // Circuit::add rejects these, but a hand-built Gate can carry them.
  StateVector sv(3);
  for (int q = 0; q < 3; ++q) {
    EXPECT_THROW(sv.apply_gate(qir::make_cx(q, q)), InvalidArgument) << q;
  }
  EXPECT_THROW(sv.apply_gate(qir::make_swap(1, 1)), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(qir::make_ccx(0, 2, 0)), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(qir::make_cswap(0, 1, 1)), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(qir::make_cz(2, 2)), InvalidArgument);
  // apply_gate runs Circuit::add's per-gate checks, so a wrong arity or a
  // missing angle is an InvalidArgument too, not an out-of-range read.
  using qir::Gate;
  using qir::GateKind;
  EXPECT_THROW(sv.apply_gate(Gate(GateKind::SWAP, {1})), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(Gate(GateKind::RZ, {0})), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(Gate(GateKind::CX, {0, 1, 2})), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(Gate(GateKind::MCX, {0, 1, 2})), InvalidArgument);
  EXPECT_THROW(sv.apply_gate(Gate(GateKind::X, {0}, {0.5})), InvalidArgument);
  EXPECT_EQ(sv.amplitudes()[0], cplx(1.0, 0.0));  // untouched
}

TEST(StateVector, InnerAndFidelity) {
  StateVector a(1), b(1);
  a.apply_gate(qir::make_h(0));
  EXPECT_NEAR(std::abs(a.inner(b) - cplx(1.0 / std::sqrt(2.0), 0)), 0.0, kTol);
  EXPECT_NEAR(a.fidelity(b), 0.5, 1e-10);
  EXPECT_THROW(a.inner(StateVector(2)), InvalidArgument);
}

TEST(StateVector, NormalizeRestoresUnitNorm) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  // Simulate drift by re-normalizing (should be no-op for exact states).
  sv.normalize();
  auto p = sv.probabilities();
  EXPECT_NEAR(p[0] + p[1], 1.0, kTol);
}

TEST(StateVector, ApplyCircuitWidthGuard) {
  StateVector sv(1);
  qir::Circuit wide(3);
  wide.x(2);
  EXPECT_THROW(sv.apply_circuit(wide), InvalidArgument);
}

// ------------------------------------------------------- apply_two_qubit

/// Prepares a non-trivial product+entangled state on `n` qubits.
StateVector scrambled_state(int n, std::uint64_t seed) {
  StateVector sv(n);
  Rng rng(seed);
  for (int q = 0; q < n; ++q) {
    sv.apply_gate(qir::make_h(q));
    sv.apply_gate(qir::make_rz(rng.uniform() * 3.0, q));
  }
  for (int q = 0; q + 1 < n; ++q) sv.apply_gate(qir::make_cx(q, q + 1));
  return sv;
}

/// out = lhs * rhs for the 4x4 local matrices of apply_two_qubit.
void matmul4(const cplx lhs[4][4], const cplx rhs[4][4], cplx out[4][4]) {
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cplx acc(0.0, 0.0);
      for (int k = 0; k < 4; ++k) acc += lhs[r][k] * rhs[k][c];
      out[r][c] = acc;
    }
  }
}

TEST(ApplyTwoQubit, MatchesGateKernelsOnAdjacentAndNonAdjacentPairs) {
  // Every 2q kind, on an adjacent pair, a non-adjacent pair, and with the
  // (a, b) roles swapped — the matrix convention must track the argument
  // order, not the wire order.
  const std::vector<qir::Gate> gates = {
      qir::make_cx(0, 1),       qir::make_cx(1, 0),
      qir::make_cz(0, 2),       qir::make_cy(2, 0),
      qir::make_ch(1, 3),       qir::make_cp(0.8, 3, 1),
      qir::make_crz(1.1, 0, 3), qir::make_swap(1, 2)};
  for (const auto& g : gates) {
    const int a = g.qubits[0];
    const int b = g.qubits[1];
    cplx m[4][4];
    two_qubit_matrix(g, a, b, m);

    StateVector via_matrix = scrambled_state(4, 5);
    StateVector via_gate = scrambled_state(4, 5);
    via_matrix.apply_two_qubit(m, a, b);
    via_gate.apply_gate(g);
    EXPECT_LT(via_matrix.max_abs_diff(via_gate), 1e-12) << g.to_string();

    // Same matrix addressed with swapped (a, b) arguments must equal the
    // gate embedded with swapped roles.
    cplx swapped[4][4];
    two_qubit_matrix(g, b, a, swapped);
    StateVector via_swapped = scrambled_state(4, 5);
    via_swapped.apply_two_qubit(swapped, b, a);
    EXPECT_LT(via_swapped.max_abs_diff(via_gate), 1e-12) << g.to_string();
  }
}

TEST(ApplyTwoQubit, HighAndLowBitOrderings) {
  // a above b and b above a, including the top wire, on a 5-qubit register.
  for (auto [a, b] : std::vector<std::pair<int, int>>{{4, 0}, {0, 4}, {3, 1}}) {
    auto g = qir::make_cx(a, b);
    cplx m[4][4];
    two_qubit_matrix(g, a, b, m);
    StateVector via_matrix = scrambled_state(5, 9);
    StateVector via_gate = scrambled_state(5, 9);
    via_matrix.apply_two_qubit(m, a, b);
    via_gate.apply_gate(g);
    EXPECT_LT(via_matrix.max_abs_diff(via_gate), 1e-12)
        << "a=" << a << " b=" << b;
  }
}

TEST(ApplyTwoQubit, ProductMatrixEqualsTwoGateDecomposition) {
  // m = U_h(b) * U_cz: one fused 4x4 application == cz then h(b), the
  // textbook two-gate decomposition check.
  const int a = 2, b = 0;
  cplx m_cz[4][4], m_h[4][4], m[4][4];
  two_qubit_matrix(qir::make_cz(a, b), a, b, m_cz);
  two_qubit_matrix(qir::make_h(b), a, b, m_h);
  matmul4(m_h, m_cz, m);

  StateVector fused = scrambled_state(3, 21);
  StateVector stepwise = scrambled_state(3, 21);
  fused.apply_two_qubit(m, a, b);
  stepwise.apply_gate(qir::make_cz(a, b));
  stepwise.apply_gate(qir::make_h(b));
  EXPECT_LT(fused.max_abs_diff(stepwise), 1e-12);
}

TEST(ApplyTwoQubit, ParallelMatchesSerialAboveThreshold) {
  cplx m[4][4];
  two_qubit_matrix(qir::make_cx(6, 2), 6, 2, m);

  StateVector serial = scrambled_state(9, 33);
  serial.set_parallel_threshold(10);  // pin serial
  StateVector parallel = scrambled_state(9, 33);
  runtime::ThreadPool::set_global_threads(4);
  parallel.set_parallel_threshold(0);  // force parallel kernels
  parallel.set_parallel_grain(8);      // force real multi-chunk sweeps

  serial.apply_two_qubit(m, 6, 2);
  parallel.apply_two_qubit(m, 6, 2);
  EXPECT_EQ(parallel.max_abs_diff(serial), 0.0);  // bit-identical
  runtime::ThreadPool::set_global_threads(0);
}

TEST(ApplyTwoQubit, ValidatesItsArguments) {
  StateVector sv(3);
  cplx m[4][4] = {};
  for (int i = 0; i < 4; ++i) m[i][i] = 1.0;
  EXPECT_THROW(sv.apply_two_qubit(m, 1, 1), InvalidArgument);
  EXPECT_THROW(sv.apply_two_qubit(m, 0, 3), InvalidArgument);
  EXPECT_THROW(sv.apply_two_qubit(m, -1, 2), InvalidArgument);
  EXPECT_NO_THROW(sv.apply_two_qubit(m, 2, 0));
}

TEST(ApplyMatrix, MatchesNamedKind) {
  cplx m[2][2];
  single_qubit_matrix(qir::GateKind::H, {}, m);
  StateVector via_matrix(2), via_gate(2);
  via_matrix.apply_matrix(m, 1);
  via_gate.apply_gate(qir::make_h(1));
  EXPECT_EQ(via_matrix.max_abs_diff(via_gate), 0.0);
  EXPECT_THROW(via_matrix.apply_matrix(m, 2), InvalidArgument);
}

}  // namespace
}  // namespace tetris::sim
