#include "sim/backend/statevector_backend.h"

namespace tetris::sim {

void StateVectorBackend::assign(const Backend& other) {
  const auto* src = dynamic_cast<const StateVectorBackend*>(&other);
  TETRIS_REQUIRE(src != nullptr && src->num_qubits() == num_qubits(),
                 "StateVectorBackend::assign: source must be a statevector "
                 "register of the same width");
  sv_ = src->sv_;
}

double StateVectorBackend::probability(std::size_t index) const {
  TETRIS_REQUIRE(index < sv_.dim(),
                 "StateVectorBackend::probability: index out of range");
  return std::norm(sv_.amplitudes()[index]);
}

std::map<std::string, double> StateVectorBackend::distribution(
    const std::vector<int>& measured) const {
  const std::vector<int> m = resolve_measured(sv_.num_qubits(), measured);
  std::map<std::string, double> out;
  const auto& amps = sv_.amplitudes();
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const double p = std::norm(amps[i]);
    if (p <= 0.0) continue;
    out[project_index(i, m)] += p;
  }
  return out;
}

}  // namespace tetris::sim
