#include <algorithm>

#include "sim/kernels/kernels.h"

namespace tetris::sim::kernels {

namespace {

std::size_t bit(int q) { return std::size_t{1} << q; }

M2 to_m2(const cplx m[2][2]) { return M2{m[0][0], m[0][1], m[1][0], m[1][1]}; }

/// The one switch over kernel kinds and modes.
struct Runner {
  bool avx2;
  cplx* amps;
  std::size_t begin, end;

  void operator()(const PermPlan& p) const { sweep_perm(amps, begin, end, p); }
  void operator()(const ControlledOp& c) const {
    sweep_controlled(amps, begin, end, c);
  }
  void operator()(const DiagOp& d) const {
    (avx2 ? sweep_diag_avx2 : sweep_diag_scalar)(amps, begin, end, d.q, d.m00,
                                                 d.m11);
  }
  void operator()(const PairOp& p) const {
    (avx2 ? sweep_1q_avx2 : sweep_1q_scalar)(amps, begin, end, p.q, p.m);
  }
  void operator()(const std::shared_ptr<const GangPlan>& g) const {
    (avx2 ? sweep_gang_avx2 : sweep_gang_scalar)(amps, begin, end, *g);
  }
  void operator()(const QuadOp& o) const {
    (avx2 ? sweep_2q_avx2 : sweep_2q_scalar)(amps, begin, end, o.a, o.b, o.m);
  }
  void operator()(const MonomialOp& o) const {
    (avx2 ? sweep_2q_monomial_avx2 : sweep_2q_monomial_scalar)(
        amps, begin, end, o.a, o.b, o.src, o.coef);
  }
};

}  // namespace

SweepOp lower(const qir::Gate& gate) {
  using qir::GateKind;
  PermPlan perm;
  if (permutation_plan(gate, perm)) {
    return SweepOp{perm, perm.count, perm.fixed};
  }
  GateKind base;
  switch (gate.kind) {
    case GateKind::CY:  base = GateKind::Y; break;
    case GateKind::CZ:  base = GateKind::Z; break;
    case GateKind::CH:  base = GateKind::H; break;
    case GateKind::CP:  base = GateKind::P; break;
    case GateKind::CRZ: base = GateKind::RZ; break;
    default: {
      cplx m[2][2];
      single_qubit_matrix(gate.kind, gate.params, m);
      return lower(m, gate.qubits[0]);
    }
  }
  // Controls are every qubit but the last; the target gets the base kind's
  // 2x2.
  cplx m[2][2];
  single_qubit_matrix(base, gate.params, m);
  ControlledOp c{gate.qubits.back(), 0, to_m2(m)};
  for (std::size_t i = 0; i + 1 < gate.qubits.size(); ++i) {
    c.controls |= bit(gate.qubits[i]);
  }
  return SweepOp{c, 1, c.controls | bit(c.q)};
}

SweepOp lower(const cplx m[2][2], int q) {
  // The diagonal sweep skips terms that are exact zeros (m01 * a1 == 0), so
  // it cannot move any |amp| — only the sign of a zero.
  if (m[0][1] == cplx(0.0, 0.0) && m[1][0] == cplx(0.0, 0.0)) {
    return SweepOp{DiagOp{q, m[0][0], m[1][1]}, 0, bit(q)};
  }
  return SweepOp{PairOp{q, to_m2(m)}, 1, bit(q)};
}

SweepOp lower(const SingleQubitOp* ops, std::size_t count) {
  auto plan = std::make_shared<GangPlan>();
  GangPlan& g = *plan;
  g.count = static_cast<int>(count);
  const int k = g.count;
  // Ascending qubit list for the zero-splice index arithmetic; the ops keep
  // their own (stream) order, which is the order the matrices are applied in.
  for (int j = 0; j < k; ++j) g.sorted[j] = ops[j].qubit;
  std::sort(g.sorted, g.sorted + k);
  g.block = std::size_t{1} << k;
  for (std::size_t l = 0; l < g.block; ++l) {
    std::size_t off = 0;
    for (int p = 0; p < k; ++p) {
      if ((l >> p) & 1) off |= bit(g.sorted[p]);
    }
    g.offsets[l] = off;
  }
  std::size_t touched = 0;
  for (int j = 0; j < k; ++j) {
    g.local_pos[j] = static_cast<int>(
        std::lower_bound(g.sorted, g.sorted + k, ops[j].qubit) - g.sorted);
    g.m[j] = to_m2(ops[j].m);
    touched |= bit(ops[j].qubit);
  }
  return SweepOp{std::move(plan), k, touched};
}

SweepOp lower(const cplx m[4][4], int a, int b) {
  // Monomial fast path: exactly one nonzero per row covers every product of
  // permutation and phase gates (CX/CZ/CP/CRZ/SWAP runs, X/Z/S/T/RZ on the
  // pair, and their mixtures) — one multiply per amplitude instead of the
  // dense 16-multiply row sums. The dropped terms are exact zeros, so only
  // zero signs can differ from the dense sweep.
  QuadOp quad{a, b, {}};
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) quad.m.v[r * 4 + c] = m[r][c];
  }
  const std::size_t touched = bit(a) | bit(b);
  MonomialOp mono{a, b, {0, 0, 0, 0}, {}};
  if (monomial_decompose(quad.m, mono.src, mono.coef)) {
    return SweepOp{mono, 2, touched};
  }
  return SweepOp{quad, 2, touched};
}

void run(SimdMode mode, cplx* amps, std::size_t begin, std::size_t end,
         const SweepOp& op) {
  std::visit(Runner{mode == SimdMode::kAvx2, amps, begin, end}, op.kernel);
}

}  // namespace tetris::sim::kernels
