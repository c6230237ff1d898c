#include "sim/backend/unitary_backend.h"

#include "sim/statevector.h"

namespace tetris::sim {

DenseUnitaryBackend::DenseUnitaryBackend(int num_qubits)
    : num_qubits_(num_qubits), circuit_(num_qubits) {
  TETRIS_REQUIRE(num_qubits >= 0 && num_qubits <= kMaxQubits,
                 "DenseUnitaryBackend supports 0..12 qubits");
}

void DenseUnitaryBackend::reset() {
  circuit_ = qir::Circuit(num_qubits_);
  prepared_ = false;
  unitary_ = Unitary{};
  state_.clear();
}

void DenseUnitaryBackend::apply_gate(const qir::Gate& gate) {
  circuit_.add(gate);
  prepared_ = false;
}

void DenseUnitaryBackend::assign(const Backend& other) {
  (void)other;
  throw InvalidArgument(
      "unitary backend cannot copy trajectory state "
      "(supports_noise is false)");
}

void DenseUnitaryBackend::apply_pauli(char pauli, int q) {
  (void)pauli;
  (void)q;
  throw InvalidArgument(
      "unitary backend cannot inject mid-circuit Pauli noise "
      "(supports_noise is false)");
}

void DenseUnitaryBackend::prepare() {
  if (prepared_) return;
  unitary_ = build_unitary(circuit_);
  const std::size_t dim = unitary_.dim();
  state_.assign(dim, {0.0, 0.0});
  for (std::size_t row = 0; row < dim; ++row) {
    state_[row] = unitary_.at(row, 0);
  }
  prepared_ = true;
}

const Unitary& DenseUnitaryBackend::unitary() const {
  TETRIS_REQUIRE(prepared_,
                 "DenseUnitaryBackend::unitary: call prepare() first");
  return unitary_;
}

std::vector<std::complex<double>> DenseUnitaryBackend::column0() const {
  if (prepared_) return state_;
  // Column 0 alone is one statevector run — the same kernel arithmetic
  // build_unitary uses for the full operator, so either path is
  // bit-identical to a direct StateVector execution.
  StateVector sv(num_qubits_);
  sv.apply_circuit(circuit_);
  return sv.amplitudes();
}

double DenseUnitaryBackend::probability(std::size_t index) const {
  const std::vector<std::complex<double>> state = column0();
  TETRIS_REQUIRE(index < state.size(),
                 "DenseUnitaryBackend::probability: index out of range");
  return std::norm(state[index]);
}

std::size_t DenseUnitaryBackend::sample_index(Rng& rng) const {
  if (prepared_) return sample_amplitudes(state_, rng);
  return sample_amplitudes(column0(), rng);
}

std::map<std::string, double> DenseUnitaryBackend::distribution(
    const std::vector<int>& measured) const {
  const std::vector<int> m = resolve_measured(num_qubits_, measured);
  std::map<std::string, double> out;
  const std::vector<std::complex<double>> state = column0();
  for (std::size_t i = 0; i < state.size(); ++i) {
    const double p = std::norm(state[i]);
    if (p <= 0.0) continue;
    out[project_index(i, m)] += p;
  }
  return out;
}

}  // namespace tetris::sim
