#include "qir/circuit.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/hash.h"

namespace tetris::qir {

Circuit::Circuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  TETRIS_REQUIRE(num_qubits >= 0, "Circuit requires num_qubits >= 0");
}

Circuit& Circuit::add(Gate g) {
  validate_gate(g, num_qubits_);
  gates_.push_back(std::move(g));
  return *this;
}

Circuit& Circuit::barrier() {
  Gate g(GateKind::Barrier, {});
  g.qubits.resize(static_cast<std::size_t>(num_qubits_));
  std::iota(g.qubits.begin(), g.qubits.end(), 0);
  gates_.push_back(std::move(g));
  return *this;
}

Circuit& Circuit::append(const Circuit& other) {
  TETRIS_REQUIRE(other.num_qubits_ <= num_qubits_,
                 "append: other circuit is wider than this register");
  for (const Gate& g : other.gates_) add(g);
  return *this;
}

Circuit& Circuit::append_mapped(const Circuit& other,
                                const std::vector<int>& qubit_map) {
  TETRIS_REQUIRE(static_cast<int>(qubit_map.size()) == other.num_qubits_,
                 "append_mapped: map size must equal other.num_qubits()");
  for (const Gate& g : other.gates_) {
    Gate mapped = g;
    for (int& q : mapped.qubits) q = qubit_map.at(static_cast<std::size_t>(q));
    add(std::move(mapped));
  }
  return *this;
}

Circuit Circuit::inverse() const {
  Circuit inv(num_qubits_, name_.empty() ? "" : name_ + "_dg");
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    inv.add(it->adjoint());
  }
  return inv;
}

Circuit Circuit::remapped(const std::vector<int>& qubit_map,
                          int new_num_qubits) const {
  TETRIS_REQUIRE(static_cast<int>(qubit_map.size()) == num_qubits_,
                 "remapped: map size must equal num_qubits()");
  Circuit out(new_num_qubits, name_);
  for (const Gate& g : gates_) {
    Gate mapped = g;
    for (int& q : mapped.qubits) {
      int nq = qubit_map.at(static_cast<std::size_t>(q));
      TETRIS_REQUIRE(nq >= 0 && nq < new_num_qubits,
                     "remapped: mapped index out of range");
      q = nq;
    }
    out.add(std::move(mapped));
  }
  return out;
}

Circuit Circuit::subcircuit(const std::vector<std::size_t>& indices) const {
  Circuit out(num_qubits_, name_);
  for (std::size_t i : indices) out.add(gates_.at(i));
  return out;
}

std::size_t Circuit::gate_count() const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(), [](const Gate& g) {
        return g.kind != GateKind::Barrier;
      }));
}

std::map<std::string, std::size_t> Circuit::count_ops() const {
  std::map<std::string, std::size_t> out;
  for (const Gate& g : gates_) {
    if (g.kind == GateKind::Barrier) continue;
    ++out[g.name()];
  }
  return out;
}

std::size_t Circuit::multi_qubit_gate_count() const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(), [](const Gate& g) {
        return g.kind != GateKind::Barrier && g.num_qubits() >= 2;
      }));
}

int Circuit::depth() const {
  std::vector<int> frontier(static_cast<std::size_t>(num_qubits_), 0);
  int depth = 0;
  for (const Gate& g : gates_) {
    if (g.kind == GateKind::Barrier) {
      // A barrier aligns the frontier across the qubits it spans but does not
      // itself occupy a layer.
      int mx = 0;
      for (int q : g.qubits) mx = std::max(mx, frontier[static_cast<std::size_t>(q)]);
      for (int q : g.qubits) frontier[static_cast<std::size_t>(q)] = mx;
      continue;
    }
    int layer = 0;
    for (int q : g.qubits) layer = std::max(layer, frontier[static_cast<std::size_t>(q)]);
    ++layer;
    for (int q : g.qubits) frontier[static_cast<std::size_t>(q)] = layer;
    depth = std::max(depth, layer);
  }
  return depth;
}

std::set<int> Circuit::used_qubits() const {
  std::set<int> out;
  for (const Gate& g : gates_) {
    if (g.kind == GateKind::Barrier) continue;
    out.insert(g.qubits.begin(), g.qubits.end());
  }
  return out;
}

bool Circuit::is_classical() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.is_classical(); });
}

bool Circuit::is_clifford() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.is_clifford(); });
}

Circuit Circuit::without_barriers() const {
  Circuit out(num_qubits_, name_);
  for (const Gate& g : gates_) {
    if (g.kind != GateKind::Barrier) out.add(g);
  }
  return out;
}

std::uint64_t Circuit::content_hash() const {
  // Every field is folded through the shared FNV-1a mix so the digest is a
  // pure function of (num_qubits, gate list) — independent of platform,
  // name, and how the circuit was built.
  Fnv64 f;
  f.mix(static_cast<std::uint64_t>(num_qubits_));
  f.mix(gates_.size());
  for (const Gate& g : gates_) {
    f.mix(static_cast<std::uint64_t>(g.kind));
    f.mix(g.qubits.size());
    for (int q : g.qubits) f.mix(static_cast<std::uint64_t>(q));
    f.mix(g.params.size());
    for (double p : g.params) f.mix(p);
  }
  return f.digest();
}

bool Circuit::operator==(const Circuit& other) const {
  return num_qubits_ == other.num_qubits_ && gates_ == other.gates_;
}

bool Circuit::approx_equal(const Circuit& other, double atol) const {
  if (num_qubits_ != other.num_qubits_ || gates_.size() != other.gates_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (!gates_[i].approx_equal(other.gates_[i], atol)) return false;
  }
  return true;
}

std::string Circuit::to_string() const {
  std::string out;
  if (!name_.empty()) out += "// " + name_ + "\n";
  out += "qubits: " + std::to_string(num_qubits_) + "\n";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    out += std::to_string(i) + ": " + gates_[i].to_string() + "\n";
  }
  return out;
}

}  // namespace tetris::qir
