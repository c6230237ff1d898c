#pragma once

#include "sim/backend/backend.h"
#include "sim/statevector.h"

namespace tetris::sim {

/// The dense amplitude engine behind the Backend interface — a thin adapter
/// that forwards every call verbatim to sim::StateVector. The register
/// stays a concrete class because the fusion engine and the tests drive it
/// directly; `state()` exposes it, which is how sim::sample runs the fused
/// ideal run and walks the errored shots' cursor through the plan. Executes
/// every gate kind of the IR; width-capped at 28 qubits by the underlying
/// register.
class StateVectorBackend final : public Backend {
 public:
  static BackendCaps caps() { return {28, /*clifford_only=*/false}; }

  explicit StateVectorBackend(int num_qubits) : sv_(num_qubits) {}

  const char* name() const override { return "statevector"; }
  int num_qubits() const override { return sv_.num_qubits(); }

  void reset() override { sv_.reset(); }
  /// Amplitude copy from another statevector register of the same width.
  void assign(const Backend& other) override;
  void apply_gate(const qir::Gate& gate) override { sv_.apply_gate(gate); }
  void apply_pauli(char pauli, int q) override { sv_.apply_pauli(pauli, q); }

  double probability(std::size_t index) const override;
  std::size_t sample_index(Rng& rng) const override { return sv_.sample(rng); }
  std::map<std::string, double> distribution(
      const std::vector<int>& measured = {}) const override;

  /// The wrapped register, for callers that need the concrete API (fusion,
  /// amplitude comparisons against a raw StateVector).
  StateVector& state() { return sv_; }
  const StateVector& state() const { return sv_; }

 private:
  StateVector sv_;
};

}  // namespace tetris::sim
