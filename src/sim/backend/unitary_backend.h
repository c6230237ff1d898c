#pragma once

#include "sim/backend/backend.h"
#include <complex>

#include "sim/unitary.h"

namespace tetris::sim {

/// Dense-operator reference engine: accumulates the full 2^n x 2^n unitary
/// of the applied gates (sim/unitary.h) and answers state queries from its
/// first column, U|0...0>. This is the verification backend — it holds the
/// whole operator, so tests can cross-check it against build_unitary — and
/// correspondingly the narrowest one (12 qubits; the matrix is 4^n
/// doubles). Column 0 is computed with exactly the statevector's kernel
/// arithmetic, so its probabilities — and therefore its sampled indices for
/// equal draws — are bit-identical to StateVectorBackend's.
///
/// No mid-circuit Pauli injection: a trajectory step would have to rebuild
/// the operator per shot, so `supports_noise` is false and the sampler
/// rejects gate-noise runs on this engine up front.
class DenseUnitaryBackend final : public Backend {
 public:
  static constexpr int kMaxQubits = 12;

  static BackendCaps caps() {
    BackendCaps c;
    c.max_qubits = kMaxQubits;
    c.clifford_only = false;
    c.supports_noise = false;
    c.dense_state = true;
    return c;
  }

  explicit DenseUnitaryBackend(int num_qubits);

  const char* name() const override { return "unitary"; }
  BackendCaps capabilities() const override { return caps(); }
  int num_qubits() const override { return num_qubits_; }

  void reset() override;
  /// Always throws InvalidArgument: the engine hosts no trajectories.
  void assign(const Backend& other) override;
  /// Records the gate; the operator is materialized lazily by prepare().
  void apply_gate(const qir::Gate& gate) override;
  /// Always throws InvalidArgument (see class comment).
  void apply_pauli(char pauli, int q) override;

  /// Materializes the operator and its column-0 state. Gates applied after
  /// this invalidate the materialization; unprepared const queries rebuild
  /// the column-0 state locally per call.
  void prepare() override;

  double probability(std::size_t index) const override;
  std::size_t sample_index(Rng& rng) const override;
  std::map<std::string, double> distribution(
      const std::vector<int>& measured = {}) const override;

  /// The accumulated operator (column-major); requires prepare() first.
  const Unitary& unitary() const;

 protected:
  const std::vector<std::complex<double>>* dense_state() const override {
    return prepared_ ? &state_ : nullptr;
  }

 private:
  std::vector<std::complex<double>> column0() const;

  int num_qubits_ = 0;
  qir::Circuit circuit_;  ///< gates recorded since the last reset
  bool prepared_ = false;
  Unitary unitary_;
  std::vector<std::complex<double>> state_;  ///< column 0 of unitary_: U|0...0>
};

}  // namespace tetris::sim
