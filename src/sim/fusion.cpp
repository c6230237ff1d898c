#include "sim/fusion.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace tetris::sim {

namespace {

/// True for the kinds the 1q-window scanner accepts.
bool is_single_qubit_gate(const qir::Gate& g) {
  return g.kind != qir::GateKind::Barrier && g.qubits.size() == 1;
}

/// True for the kinds the pair-window scanner can absorb into a 4x4: any
/// gate whose qubits are a subset of {a, b}.
bool acts_within_pair(const qir::Gate& g, int a, int b) {
  if (g.kind == qir::GateKind::Barrier) return false;
  if (g.qubits.empty() || g.qubits.size() > 2) return false;
  for (int q : g.qubits) {
    if (q != a && q != b) return false;
  }
  return true;
}

/// out = lhs * rhs (2x2).
void multiply2(const cplx lhs[2][2], const cplx rhs[2][2], cplx out[2][2]) {
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      out[r][c] = lhs[r][0] * rhs[0][c] + lhs[r][1] * rhs[1][c];
    }
  }
}

/// out = lhs * rhs (4x4).
void multiply4(const cplx lhs[4][4], const cplx rhs[4][4], cplx out[4][4]) {
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cplx acc(0.0, 0.0);
      for (int k = 0; k < 4; ++k) acc += lhs[r][k] * rhs[k][c];
      out[r][c] = acc;
    }
  }
}

}  // namespace

double FusionStats::sweep_reduction() const {
  if (gates_in == 0) return 0.0;
  return 1.0 - static_cast<double>(ops_out) / static_cast<double>(gates_in);
}

void two_qubit_matrix(const qir::Gate& gate, int a, int b, cplx out[4][4]) {
  TETRIS_REQUIRE(a != b, "two_qubit_matrix: qubits must be distinct");
  TETRIS_REQUIRE(acts_within_pair(gate, a, b),
                 "two_qubit_matrix: gate '" + gate.name() +
                     "' does not act within the qubit pair");
  // Execute the gate on a 2-wire register with a -> wire 0 and b -> wire 1;
  // basis index (bit1 << 1) | bit0 is then exactly apply_two_qubit's local
  // convention, and reusing apply_gate guarantees the embedded matrix agrees
  // with the unfused kernels for every kind.
  qir::Gate local = gate;
  for (int& q : local.qubits) q = (q == a) ? 0 : 1;
  StateVector sv(2);
  for (std::size_t col = 0; col < 4; ++col) {
    sv.set_basis_state(col);
    sv.apply_gate(local);
    const auto& amps = sv.amplitudes();
    for (std::size_t row = 0; row < 4; ++row) out[row][col] = amps[row];
  }
}

FusionPlan FusionPlan::build(const qir::Circuit& circuit) {
  FusionPlan plan;
  plan.num_qubits_ = circuit.num_qubits();
  const auto& gates = circuit.gates();
  const auto emit_passthrough = [&](std::size_t index) {
    FusedOp op;
    op.kind = FusedOp::Kind::kGate;
    op.first_gate = index;
    op.gate_count = 1;
    op.sweep = kernels::lower(gates[index]);
    plan.ops_.push_back(std::move(op));
  };

  std::size_t i = 0;
  while (i < gates.size()) {
    const qir::Gate& g = gates[i];
    if (g.kind == qir::GateKind::Barrier) {
      // Barriers have no unitary action; they survive only as fences (the
      // window scanners below stop at them).
      ++plan.stats_.barriers;
      ++i;
      continue;
    }

    if (is_single_qubit_gate(g)) {
      // Window of consecutive 1q gates on at most kMaxGangQubits distinct
      // qubits, stopped by barriers and multi-qubit gates.
      std::vector<int> order;  // distinct qubits, first-occurrence order
      std::size_t j = i;
      while (j < gates.size()) {
        const qir::Gate& h = gates[j];
        if (!is_single_qubit_gate(h)) break;
        const int q = h.qubits[0];
        const bool known = std::find(order.begin(), order.end(), q) != order.end();
        if (!known) {
          if (static_cast<int>(order.size()) == StateVector::kMaxGangQubits) {
            break;
          }
          order.push_back(q);
        }
        ++j;
      }
      const std::size_t count = j - i;
      plan.stats_.gates_in += count;
      if (count == 1) {
        emit_passthrough(i);
      } else {
        // One 2x2 per distinct qubit: the first gate's matrix, then each
        // later same-qubit gate left-multiplied onto it (temporal order).
        std::vector<SingleQubitOp> gang;
        gang.reserve(order.size());
        for (int q : order) {
          SingleQubitOp entry;
          entry.qubit = q;
          gang.push_back(entry);
        }
        std::vector<bool> seeded(order.size(), false);
        for (std::size_t t = i; t < j; ++t) {
          const std::size_t slot = static_cast<std::size_t>(
              std::find(order.begin(), order.end(), gates[t].qubits[0]) -
              order.begin());
          cplx m[2][2];
          single_qubit_matrix(gates[t].kind, gates[t].params, m);
          if (!seeded[slot]) {
            std::memcpy(gang[slot].m, m, sizeof(m));
            seeded[slot] = true;
          } else {
            cplx product[2][2];
            multiply2(m, gang[slot].m, product);
            std::memcpy(gang[slot].m, product, sizeof(product));
          }
        }
        FusedOp op;
        op.first_gate = i;
        op.gate_count = count;
        if (gang.size() == 1) {
          op.kind = FusedOp::Kind::kSingle;
          op.sweep = kernels::lower(gang[0].m, gang[0].qubit);
        } else {
          op.kind = FusedOp::Kind::kGang;
          op.sweep = kernels::lower(gang.data(), gang.size());
        }
        plan.stats_.gates_fused += count;
        plan.ops_.push_back(std::move(op));
      }
      i = j;
      continue;
    }

    if (g.qubits.size() == 2) {
      // Pair window: absorb everything that stays within {a, b}.
      const int a = g.qubits[0];
      const int b = g.qubits[1];
      std::size_t j = i;
      while (j < gates.size() && acts_within_pair(gates[j], a, b)) ++j;
      const std::size_t count = j - i;
      plan.stats_.gates_in += count;
      if (count == 1) {
        emit_passthrough(i);
      } else {
        cplx two[4][4];
        two_qubit_matrix(gates[i], a, b, two);
        for (std::size_t t = i + 1; t < j; ++t) {
          cplx gm[4][4];
          two_qubit_matrix(gates[t], a, b, gm);
          cplx product[4][4];
          multiply4(gm, two, product);
          std::memcpy(two, product, sizeof(product));
        }
        FusedOp op;
        op.kind = FusedOp::Kind::kTwoQubit;
        op.first_gate = i;
        op.gate_count = count;
        op.sweep = kernels::lower(two, a, b);
        plan.stats_.gates_fused += count;
        plan.ops_.push_back(std::move(op));
      }
      i = j;
      continue;
    }

    // 3+-qubit gates (CCX, CSWAP, MCX): keep the permutation sweep.
    plan.stats_.gates_in += 1;
    emit_passthrough(i);
    ++i;
  }
  plan.stats_.ops_out = plan.ops_.size();
  return plan;
}

std::size_t advance_fused(StateVector& sv, const FusionPlan& plan,
                          std::size_t& next_op, std::size_t gate_end) {
  const auto& ops = plan.ops();
  for (; next_op < ops.size(); ++next_op) {
    const FusedOp& op = ops[next_op];
    if (op.first_gate + op.gate_count > gate_end) break;
    sv.apply_fused_op(op);
  }
  if (next_op == 0) return 0;
  const FusedOp& last = ops[next_op - 1];
  return last.first_gate + last.gate_count;
}

}  // namespace tetris::sim
