#include "sim/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "qir/circuit.h"
#include "runtime/thread_pool.h"
#include "sim/fusion.h"
#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace tetris::sim {
namespace {

using kernels::SimdMode;

/// Restores the process-wide SIMD mode on scope exit, so a test that forces
/// a mode cannot leak it into its siblings.
class ModeGuard {
 public:
  ModeGuard() : saved_(kernels::simd_mode()) {}
  ~ModeGuard() { kernels::set_simd_mode(saved_); }

 private:
  SimdMode saved_;
};

/// A dense circuit touching every qubit of an n-wide register: same-qubit
/// runs (1q fusion), distinct-qubit rows (gangs), 2q pair windows, and a CCX
/// passthrough — every kernel family fires.
qir::Circuit dense_circuit(int n, std::uint64_t seed) {
  qir::Circuit c(n);
  Rng rng(seed);
  for (int q = 0; q < n; ++q) {
    c.h(q);
    c.rz(rng.uniform() * 3.0, q);
  }
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (int q = 0; q < n; ++q) c.ry(rng.uniform() - 0.5, q);
  if (n >= 3) c.ccx(0, 1, n - 1);
  for (int q = 0; q < n; ++q) c.t(q);
  c.cz(0, n - 1);
  return c;
}

/// Lone passthroughs below qubit 5 — every controlled 2x2 kind (CY, CZ, CH,
/// CP, CRZ) and the wide permutation kinds (CCX, CSWAP, MCX) — between
/// single-qubit layers that span the whole register. Consecutive 2q gates
/// never share a pair, and a 3q+ gate closes each run, so no pair window
/// absorbs them.
qir::Circuit passthrough_circuit(int n, std::uint64_t seed) {
  qir::Circuit c(n);
  Rng rng(seed);
  for (int q = 0; q < n; ++q) c.h(q).rz(rng.uniform() * 3.0, q);
  c.ccx(0, 1, 2).cy(0, 1).cz(1, 2).ch(2, 3).cp(0.7, 3, 4).crz(1.1, 4, 0);
  c.cswap(3, 0, 4).cy(4, 2).mcx({0, 2, 3}, 4);
  for (int q = 0; q < n; ++q) c.ry(rng.uniform() - 0.5, q);
  c.ccx(4, 3, 0).cz(0, 3).ch(1, 4).cp(-0.4, 0, 2).crz(2.3, 3, 1);
  c.mcx({4, 3, 1}, 2).cswap(1, 2, 0);
  for (int q = 0; q < n; ++q) c.sx(q);
  return c;
}

/// Runs `circuit` fused under a forced SIMD mode.
StateVector run_fused(const qir::Circuit& circuit, SimdMode mode) {
  ModeGuard guard;
  kernels::set_simd_mode(mode);
  StateVector sv(circuit.num_qubits());
  sv.apply_fused(FusionPlan::build(circuit));
  return sv;
}

/// Pseudorandom (but deterministic, mode-independent) amplitude fill.
std::vector<cplx> random_amps(std::size_t n, std::uint64_t seed) {
  std::vector<cplx> amps(n);
  Rng rng(seed);
  for (auto& a : amps) a = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  return amps;
}

// ------------------------------------------------------------ mode plumbing

TEST(Simd, ModeQueryAndOverride) {
  ModeGuard guard;
  kernels::set_simd_mode(SimdMode::kScalar);
  EXPECT_EQ(kernels::simd_mode(), SimdMode::kScalar);
  EXPECT_STREQ(kernels::simd_mode_name(SimdMode::kScalar), "scalar");
  EXPECT_STREQ(kernels::simd_mode_name(SimdMode::kAvx2), "avx2");
  if (kernels::avx2_available()) {
    kernels::set_simd_mode(SimdMode::kAvx2);
    EXPECT_EQ(kernels::simd_mode(), SimdMode::kAvx2);
  } else {
    EXPECT_THROW(kernels::set_simd_mode(SimdMode::kAvx2), InvalidArgument);
  }
}

TEST(Simd, AvailabilityImpliesCompiled) {
  // avx2_available() must never claim kernels the build does not contain.
  if (kernels::avx2_available()) {
    EXPECT_TRUE(kernels::avx2_compiled());
  }
}

// ------------------------------------------- scalar-vs-AVX2 differential

// Whole-circuit differential at odd (non-power-of-friendly) widths: the two
// modes reassociate FP differently, so they agree to tolerance, not bits.
TEST(SimdDifferential, ScalarVsAvx2AtOddWidths) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  for (int n : {5, 7, 9, 11}) {
    auto c = dense_circuit(n, 101 + static_cast<std::uint64_t>(n));
    StateVector scalar = run_fused(c, SimdMode::kScalar);
    StateVector avx2 = run_fused(c, SimdMode::kAvx2);
    EXPECT_LT(scalar.max_abs_diff(avx2), 1e-9) << "n=" << n;
    EXPECT_NEAR(avx2.fidelity(scalar), 1.0, 1e-12) << "n=" << n;
  }
}

// Target qubit below the vector lane width (q=0: pairs interleave within one
// 256-bit lane, the deinterleave path) vs at/above it (contiguous runs).
TEST(SimdDifferential, TargetQubitInsideAndOutsideLaneWidth) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  for (int q : {0, 1, 2, 6}) {
    qir::Circuit c(7);
    c.h(q).rz(0.7, q).sx(q).ry(-1.3, q);
    StateVector scalar = run_fused(c, SimdMode::kScalar);
    StateVector avx2 = run_fused(c, SimdMode::kAvx2);
    EXPECT_LT(scalar.max_abs_diff(avx2), 1e-9) << "q=" << q;
  }
}

// The AVX2 kernels use a fixed per-element instruction sequence, so where a
// chunk boundary falls must not change a single bit — this is what makes
// parallel AVX2 sweeps bit-identical to serial ones. Split every kernel's
// index range at an odd point (vector body on one side, 128-bit tail on the
// other) and compare against the unsplit sweep.
TEST(SimdKernels, ChunkSplitIsBitIdentical) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  // 6 qubits: 64 amplitudes, 32 pairs, 16 quads.
  const kernels::M2 m{cplx(0.6, 0.1), cplx(-0.3, 0.7), cplx(0.7, 0.3),
                      cplx(0.1, -0.6)};
  for (int q : {0, 1, 4}) {
    auto whole = random_amps(64, 7);
    auto split = whole;
    kernels::sweep_1q_avx2(whole.data(), 0, 32, q, m);
    kernels::sweep_1q_avx2(split.data(), 0, 13, q, m);
    kernels::sweep_1q_avx2(split.data(), 13, 32, q, m);
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(whole[i], split[i]) << "1q q=" << q << " i=" << i;
    }
  }
  kernels::M4 m4{};
  Rng rng(11);
  for (auto& v : m4.v) v = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  auto whole = random_amps(64, 9);
  auto split = whole;
  kernels::sweep_2q_avx2(whole.data(), 0, 16, 1, 3, m4);
  kernels::sweep_2q_avx2(split.data(), 0, 5, 1, 3, m4);
  kernels::sweep_2q_avx2(split.data(), 5, 16, 1, 3, m4);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i], split[i]) << "2q i=" << i;
  }
}

// A gang of k unmerged 2x2s must reproduce k consecutive 1q sweeps
// amplitude-for-amplitude IN BOTH MODES — the property the fused-prefix
// sampler fix leans on for its bit-identity pin.
TEST(SimdKernels, GangMatchesSequential1qSweepsBitwise) {
  std::vector<SingleQubitOp> ops;
  Rng rng(13);
  for (int q : {0, 2, 3}) {
    SingleQubitOp op;
    op.qubit = q;
    for (auto& row : op.m) {
      for (auto& v : row) v = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    }
    ops.push_back(op);
  }
  const kernels::SweepOp gang = kernels::lower(ops.data(), ops.size());
  ASSERT_TRUE(std::holds_alternative<std::shared_ptr<const kernels::GangPlan>>(
      gang.kernel));
  EXPECT_EQ(gang.shift, 3);
  EXPECT_EQ(gang.touched, std::size_t{0b1101});
  const std::size_t dim = 32;  // 5 qubits
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    auto ganged = random_amps(dim, 17);
    auto stepwise = ganged;
    kernels::run(mode, ganged.data(), 0, dim >> gang.shift, gang);
    for (const auto& op : ops) {
      const kernels::SweepOp single = kernels::lower(op.m, op.qubit);
      ASSERT_TRUE(std::holds_alternative<kernels::PairOp>(single.kernel));
      kernels::run(mode, stepwise.data(), 0, dim >> single.shift, single);
    }
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(ganged[i], stepwise[i])
          << kernels::simd_mode_name(mode) << " i=" << i;
    }
  }
}

TEST(Kernels, MonomialDecompose) {
  kernels::M4 cxm{};  // CX with a=control: |b a> -> basis (b<<1)|a
  cxm.v[0 * 4 + 0] = 1.0;
  cxm.v[1 * 4 + 3] = 1.0;  // a=1,b=0 -> a=1,b=1
  cxm.v[2 * 4 + 2] = 1.0;
  cxm.v[3 * 4 + 1] = 1.0;
  int src[4];
  cplx coef[4];
  ASSERT_TRUE(kernels::monomial_decompose(cxm, src, coef));
  EXPECT_EQ(src[0], 0);
  EXPECT_EQ(src[1], 3);
  EXPECT_EQ(src[2], 2);
  EXPECT_EQ(src[3], 1);

  kernels::M4 dense{};  // a Hadamard row: two nonzeros -> not monomial
  dense.v[0] = dense.v[1] = cplx(0.5, 0.0);
  EXPECT_FALSE(kernels::monomial_decompose(dense, src, coef));
  kernels::M4 zero{};  // zero row -> not monomial
  EXPECT_FALSE(kernels::monomial_decompose(zero, src, coef));
}

// ------------------------------------------------ permutation sweep

// The gate loops the permutation sweep replaced, kept as the reference:
// CX/CCX/MCX ran the arithmetic controlled 2x2 (X as 0*a0 + 1*a1 on every
// control-satisfied pair), X ran the dense 2x2 sweep, and SWAP/CSWAP scanned
// every index for the one that initiates each exchange.

void ref_controlled_single(std::vector<cplx>& amps, const cplx m[2][2],
                           std::size_t control_mask, int q) {
  const std::size_t stride = std::size_t{1} << q;
  const cplx m00 = m[0][0], m01 = m[0][1], m10 = m[1][0], m11 = m[1][1];
  for (std::size_t k = 0; k < amps.size() / 2; ++k) {
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    if ((i0 & control_mask) != control_mask) continue;
    const std::size_t i1 = i0 + stride;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void ref_swap(std::vector<cplx>& amps, int a, int b) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & bit_a) != 0 && (i & bit_b) == 0) {
      const std::size_t j = (i & ~bit_a) | bit_b;
      std::swap(amps[i], amps[j]);
    }
  }
}

void ref_controlled_swap(std::vector<cplx>& amps, std::size_t control_mask,
                         int a, int b) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & control_mask) != control_mask) continue;
    if ((i & bit_a) != 0 && (i & bit_b) == 0) {
      const std::size_t j = (i & ~bit_a) | bit_b;
      std::swap(amps[i], amps[j]);
    }
  }
}

/// The pre-sweep result of `g` on `sv` (a copy; `sv` is not modified).
std::vector<cplx> reference_apply(const StateVector& sv, const qir::Gate& g) {
  using qir::GateKind;
  if (g.kind == GateKind::X) {
    cplx x[2][2];
    single_qubit_matrix(GateKind::X, {}, x);
    StateVector dense = sv;
    dense.set_parallel_threshold(sv.num_qubits() + 1);
    dense.apply_matrix(x, g.qubits[0]);
    return dense.amplitudes();
  }
  std::vector<cplx> amps = sv.amplitudes();
  if (g.kind == GateKind::SWAP) {
    ref_swap(amps, g.qubits[0], g.qubits[1]);
  } else if (g.kind == GateKind::CSWAP) {
    ref_controlled_swap(amps, std::size_t{1} << g.qubits[0], g.qubits[1],
                        g.qubits[2]);
  } else {
    cplx x[2][2];
    single_qubit_matrix(GateKind::X, {}, x);
    std::size_t mask = 0;
    for (std::size_t i = 0; i + 1 < g.qubits.size(); ++i) {
      mask |= std::size_t{1} << g.qubits[i];
    }
    ref_controlled_single(amps, x, mask, g.qubits.back());
  }
  return amps;
}

/// A random normalized n-qubit state with no zero amplitude component:
/// random RY/RZ on every wire, a CX chain, and a second random layer.
StateVector random_state(int n, std::uint64_t seed) {
  StateVector sv(n);
  Rng rng(seed);
  const auto layer = [&] {
    for (int q = 0; q < n; ++q) {
      sv.apply_gate(qir::make_ry(0.2 + 2.5 * rng.uniform(), q));
      sv.apply_gate(qir::make_rz(0.2 + 2.5 * rng.uniform(), q));
    }
  };
  layer();
  for (int q = 0; q + 1 < n; ++q) sv.apply_gate(qir::make_cx(q, q + 1));
  layer();
  return sv;
}

/// Every permutation-gate placement on n wires: X on each wire, CX and SWAP
/// on every ordered pair (controls below and above the target), CCX and
/// CSWAP on every ordered triple, MCX with 3..n-1 controls around targets at
/// the bottom, middle and top wire.
std::vector<qir::Gate> permutation_placements(int n) {
  std::vector<qir::Gate> out;
  for (int t = 0; t < n; ++t) out.push_back(qir::make_x(t));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      out.push_back(qir::make_cx(a, b));
      out.push_back(qir::make_swap(a, b));
      for (int c = 0; c < n; ++c) {
        if (c == a || c == b) continue;
        out.push_back(qir::make_ccx(a, b, c));
        out.push_back(qir::make_cswap(a, b, c));
      }
    }
  }
  for (int k = 3; k <= n - 1; ++k) {
    for (int t : {0, n / 2, n - 1}) {
      std::vector<int> low, high;
      for (int q = 0; q < n; ++q) {
        if (q != t) low.push_back(q);
      }
      high.assign(low.end() - k, low.end());
      low.resize(static_cast<std::size_t>(k));
      out.push_back(qir::make_mcx(low, t));
      if (high != low) out.push_back(qir::make_mcx(high, t));
    }
  }
  return out;
}

/// Counts components that differ: by value, and — where non-zero — by bits.
int count_mismatches(const std::vector<cplx>& got,
                     const std::vector<cplx>& want) {
  int bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double g[2] = {got[i].real(), got[i].imag()};
    const double w[2] = {want[i].real(), want[i].imag()};
    for (int part = 0; part < 2; ++part) {
      if (g[part] != w[part]) {
        ++bad;
      } else if (w[part] != 0.0 &&
                 std::memcmp(&g[part], &w[part], sizeof(double)) != 0) {
        ++bad;
      }
    }
  }
  return bad;
}

// The permutation sweep is a pure data move, so it must reproduce the
// replaced arithmetic loops exactly — bit for bit on every non-zero
// component — at every width, placement, chunking and SIMD mode.
TEST(PermutationSweep, MatchesReplacedLoopsBitwise) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  runtime::ThreadPool::set_global_threads(4);
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    for (int n = 1; n <= 7; ++n) {
      const StateVector input = random_state(n, 300 + static_cast<std::uint64_t>(n));
      for (const cplx& a : input.amplitudes()) {
        ASSERT_NE(a.real(), 0.0);
        ASSERT_NE(a.imag(), 0.0);
      }
      for (const qir::Gate& g : permutation_placements(n)) {
        const std::vector<cplx> want = reference_apply(input, g);
        for (std::size_t grain : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
          StateVector sv = input;
          if (grain == 0) {
            sv.set_parallel_threshold(n + 1);  // serial
          } else {
            sv.set_parallel_threshold(0);  // forced multi-chunk parallel
            sv.set_parallel_grain(grain);
          }
          sv.apply_gate(g);
          EXPECT_EQ(count_mismatches(sv.amplitudes(), want), 0)
              << kernels::simd_mode_name(mode) << " n=" << n << " "
              << g.to_string() << " grain=" << grain;
        }
      }
    }
  }
  runtime::ThreadPool::set_global_threads(0);
}

// Splitting the subspace range at any point, including inside a contiguous
// run, reproduces the unsplit sweep — chunks never share a pair.
TEST(PermutationSweep, AnySplitPointIsBitIdentical) {
  const std::vector<qir::Gate> gates = {
      qir::make_x(3), qir::make_cx(0, 4), qir::make_cx(4, 2),
      qir::make_ccx(5, 3, 2), qir::make_swap(4, 1), qir::make_cswap(2, 5, 3),
      qir::make_mcx({1, 3, 4}, 5)};
  for (const qir::Gate& g : gates) {
    kernels::PermPlan plan;
    ASSERT_TRUE(kernels::permutation_plan(g, plan)) << g.to_string();
    const std::size_t count = std::size_t{64} >> plan.count;
    auto whole = random_amps(64, 19);
    kernels::sweep_perm(whole.data(), 0, count, plan);
    for (std::size_t cut = 1; cut < count; ++cut) {
      auto split = random_amps(64, 19);
      kernels::sweep_perm(split.data(), 0, cut, plan);
      kernels::sweep_perm(split.data(), cut, count, plan);
      EXPECT_EQ(std::memcmp(split.data(), whole.data(), 64 * sizeof(cplx)), 0)
          << g.to_string() << " cut=" << cut;
    }
  }
}

TEST(PermutationSweep, PlanCoversExactlyThePermutationKinds) {
  kernels::PermPlan plan;
  ASSERT_TRUE(kernels::permutation_plan(qir::make_cswap(4, 0, 2), plan));
  EXPECT_EQ(plan.count, 3);
  EXPECT_EQ(plan.fixed, std::size_t{0b10101});
  EXPECT_EQ(plan.set, std::size_t{0b10001});
  EXPECT_EQ(plan.flip, std::size_t{0b00101});
  ASSERT_TRUE(kernels::permutation_plan(qir::make_cx(3, 1), plan));
  EXPECT_EQ(plan.set, std::size_t{0b1000});
  EXPECT_EQ(plan.flip, std::size_t{0b0010});
  for (const qir::Gate& g :
       {qir::make_y(0), qir::make_h(0), qir::make_cz(0, 1), qir::make_cy(0, 1),
        qir::make_cp(0.3, 0, 1), qir::make_rz(0.1, 0)}) {
    EXPECT_FALSE(kernels::permutation_plan(g, plan)) << g.to_string();
  }
}

// ------------------------------------------------------------ cache tiling

// Tiling only reorders traversal, so tiled output is bit-identical to
// untiled within a mode — at widths below, at, and above the tile width.
TEST(Tiling, TiledMatchesUntiledBitwise) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    for (int n : {2, 3, 5, 8}) {  // tile=3: below, at, above, far above
      auto c = dense_circuit(n, 1000 + static_cast<std::uint64_t>(n));
      const auto plan = FusionPlan::build(c);
      StateVector untiled(n);
      untiled.set_tile_qubits(n);  // at-or-above width disables tiling
      untiled.apply_fused(plan);
      StateVector tiled(n);
      tiled.set_tile_qubits(3);
      tiled.apply_fused(plan);
      EXPECT_EQ(tiled.max_abs_diff(untiled), 0.0)
          << kernels::simd_mode_name(mode) << " n=" << n;
    }
    // Multi-qubit passthroughs below the tile width are tile-local too and
    // run inside tiles (tile=5: two and eight tiles).
    for (int n : {6, 8}) {
      const auto circuit =
          passthrough_circuit(n, 2000 + static_cast<std::uint64_t>(n));
      const auto plan = FusionPlan::build(circuit);
      std::set<qir::GateKind> lone;
      for (const FusedOp& op : plan.ops()) {
        const qir::Gate& source = circuit.gates()[op.first_gate];
        if (op.kind == FusedOp::Kind::kGate && source.qubits.size() >= 2) {
          lone.insert(source.kind);
        }
      }
      ASSERT_EQ(lone.size(), 8u) << "every kind must stay a passthrough";
      StateVector untiled(n);
      untiled.set_tile_qubits(n);
      untiled.apply_fused(plan);
      StateVector tiled(n);
      tiled.set_tile_qubits(5);
      tiled.apply_fused(plan);
      EXPECT_EQ(std::memcmp(tiled.amplitudes().data(),
                            untiled.amplitudes().data(),
                            untiled.dim() * sizeof(cplx)),
                0)
          << kernels::simd_mode_name(mode) << " passthroughs n=" << n;
    }
  }
}

// A lone X passthrough inside a tiled run lowers to the same permutation
// sweep apply_gate runs, so tiled and untiled agree bit for bit.
TEST(Tiling, LoneXPassthroughRunsInsideTiles) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    qir::Circuit c(7);
    for (int q = 0; q < 7; ++q) c.h(q).rz(0.3 + 0.1 * q, q);
    // cx(2,3) and x(1) stay lone passthroughs; x(1) and the (0,1) pair
    // window form a tile-local run.
    c.cx(2, 3).x(1).cx(0, 1).h(0).cx(6, 5).x(2).ccx(0, 1, 3);
    const auto plan = FusionPlan::build(c);
    const auto& ops = plan.ops();
    const auto lone_x = std::find_if(ops.begin(), ops.end(), [&](const FusedOp& op) {
      return op.kind == FusedOp::Kind::kGate &&
             c.gates()[op.first_gate].kind == qir::GateKind::X;
    });
    ASSERT_NE(lone_x, ops.end());
    ASSERT_EQ(std::next(lone_x)->kind, FusedOp::Kind::kTwoQubit);
    StateVector untiled(7);
    untiled.set_tile_qubits(7);
    untiled.apply_fused(plan);
    StateVector tiled(7);
    tiled.set_tile_qubits(4);
    tiled.apply_fused(plan);
    EXPECT_EQ(std::memcmp(tiled.amplitudes().data(), untiled.amplitudes().data(),
                          untiled.dim() * sizeof(cplx)),
              0)
        << kernels::simd_mode_name(mode);
  }
}

// High-qubit gates fence tile-local runs; the greedy splitter must still
// produce the same bits when tile-local runs are length 0, 1, and >= 2.
TEST(Tiling, MixedLocalAndGlobalOps) {
  ModeGuard guard;
  kernels::set_simd_mode(SimdMode::kScalar);
  qir::Circuit c(6);
  c.h(5);                      // never tile-local at tile=2
  c.h(0).rz(0.4, 1);           // local run of one gang
  c.cx(4, 5);                  // global fence
  c.h(1).t(0).sx(1).ry(0.2, 0);  // local pair-window run
  c.cx(0, 1);
  const auto plan = FusionPlan::build(c);
  StateVector untiled(6);
  untiled.set_tile_qubits(6);
  untiled.apply_fused(plan);
  StateVector tiled(6);
  tiled.set_tile_qubits(2);
  tiled.apply_fused(plan);
  EXPECT_EQ(tiled.max_abs_diff(untiled), 0.0);
}

// ------------------------------------------- parallel equivalence per mode

// Within one SIMD mode, 1-, 2- and 8-thread fused sweeps are bit-identical:
// disjoint chunks, position-independent per-element arithmetic. Ragged
// grains force chunk boundaries that are not multiples of the tile or
// vector width.
TEST(ParallelEquivalence, ThreadCountNeverChangesBits) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    auto c = dense_circuit(8, 77);
    const auto plan = FusionPlan::build(c);

    StateVector serial(8);
    serial.set_parallel_threshold(9);  // pin serial
    serial.apply_fused(plan);

    for (unsigned threads : {1u, 2u, 8u}) {
      runtime::ThreadPool::set_global_threads(threads);
      StateVector parallel(8);
      parallel.set_parallel_threshold(0);  // force the parallel kernels
      parallel.set_parallel_grain(5);      // ragged multi-chunk sweeps
      parallel.set_tile_qubits(4);         // tiled runs go parallel too
      parallel.apply_fused(plan);
      EXPECT_EQ(parallel.max_abs_diff(serial), 0.0)
          << kernels::simd_mode_name(mode) << " threads=" << threads;
    }
    runtime::ThreadPool::set_global_threads(0);
  }
}

}  // namespace
}  // namespace tetris::sim
