#include "sim/backend/stabilizer.h"

#include <cmath>

namespace tetris::sim {

namespace {

/// Exponent of i in the single-qubit Pauli product sigma_a * sigma_b, with
/// the operators coded as x | (z << 1): I=0, X=1, Z=2, Y=3. The non-zero
/// entries are the Levi-Civita cycle X*Y = iZ, Y*Z = iX, Z*X = iY and its
/// anti-cyclic negatives.
constexpr int kPhaseTable[4][4] = {
    // b:  I   X   Z   Y            a:
    {0, 0, 0, 0},   // I
    {0, 0, -1, 1},  // X
    {0, 1, 0, -1},  // Z
    {0, -1, 1, 0},  // Y
};

int msb(std::uint64_t v) {
  int best = 0;
  for (int b = 0; b < 64; ++b) {
    if ((v >> b) & 1) best = b;
  }
  return best;
}

}  // namespace

StabilizerBackend::StabilizerBackend(int num_qubits)
    : num_qubits_(num_qubits) {
  TETRIS_REQUIRE(num_qubits >= 0 && num_qubits <= kMaxQubits,
                 "StabilizerBackend supports 0..64 qubits");
  init_rows();
}

void StabilizerBackend::init_rows() {
  const std::size_t n = static_cast<std::size_t>(num_qubits_);
  xs_.assign(n, 0);
  zs_.assign(n, 0);
  rs_.assign(n, 0);
  // |0...0> is stabilized by +Z_q for every wire.
  for (std::size_t q = 0; q < n; ++q) zs_[q] = std::uint64_t{1} << q;
}

void StabilizerBackend::reset() {
  init_rows();
  touch();
}

void StabilizerBackend::assign(const Backend& other) {
  const auto* src = dynamic_cast<const StabilizerBackend*>(&other);
  TETRIS_REQUIRE(src != nullptr && src->num_qubits_ == num_qubits_,
                 "StabilizerBackend::assign: source must be a stabilizer "
                 "register of the same width");
  xs_ = src->xs_;
  zs_ = src->zs_;
  rs_ = src->rs_;
  touch();
}

// Conjugation rules, in the convention "row = (-1)^r * product of sigma_q"
// with sigma coded by (x, z) bits as I/X/Z/Y. Each rule is the textbook
// Heisenberg update: H swaps X and Z (Y picks up a sign), S sends X -> Y ->
// -X, CX copies X from control to target and Z from target to control with
// the Aaronson-Gottesman sign term.

void StabilizerBackend::op_h(int q) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const bool x = xs_[i] & bit, z = zs_[i] & bit;
    rs_[i] ^= static_cast<std::uint8_t>(x && z);
    if (x != z) {
      xs_[i] ^= bit;
      zs_[i] ^= bit;
    }
  }
}

void StabilizerBackend::op_s(int q) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const bool x = xs_[i] & bit, z = zs_[i] & bit;
    rs_[i] ^= static_cast<std::uint8_t>(x && z);
    if (x) zs_[i] ^= bit;
  }
}

void StabilizerBackend::op_sdg(int q) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const bool x = xs_[i] & bit, z = zs_[i] & bit;
    rs_[i] ^= static_cast<std::uint8_t>(x && !z);
    if (x) zs_[i] ^= bit;
  }
}

void StabilizerBackend::op_x(int q) {
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    rs_[i] ^= static_cast<std::uint8_t>((zs_[i] >> q) & 1);
  }
}

void StabilizerBackend::op_y(int q) {
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    rs_[i] ^= static_cast<std::uint8_t>(((xs_[i] ^ zs_[i]) >> q) & 1);
  }
}

void StabilizerBackend::op_z(int q) {
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    rs_[i] ^= static_cast<std::uint8_t>((xs_[i] >> q) & 1);
  }
}

void StabilizerBackend::op_cx(int c, int t) {
  const std::uint64_t bc = std::uint64_t{1} << c;
  const std::uint64_t bt = std::uint64_t{1} << t;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const bool xc = xs_[i] & bc, zc = zs_[i] & bc;
    const bool xt = xs_[i] & bt, zt = zs_[i] & bt;
    rs_[i] ^= static_cast<std::uint8_t>(xc && zt && (xt == zc));
    if (xc) xs_[i] ^= bt;
    if (zt) zs_[i] ^= bc;
  }
}

void StabilizerBackend::op_swap(int a, int b) {
  const std::uint64_t ba = std::uint64_t{1} << a;
  const std::uint64_t bb = std::uint64_t{1} << b;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const bool xa = xs_[i] & ba, xb = xs_[i] & bb;
    if (xa != xb) xs_[i] ^= ba | bb;
    const bool za = zs_[i] & ba, zb = zs_[i] & bb;
    if (za != zb) zs_[i] ^= ba | bb;
  }
}

void StabilizerBackend::apply_pauli(char pauli, int q) {
  TETRIS_REQUIRE(q >= 0 && q < num_qubits_,
                 "StabilizerBackend::apply_pauli: qubit out of range");
  switch (pauli) {
    case 'I': return;
    case 'X': op_x(q); break;
    case 'Y': op_y(q); break;
    case 'Z': op_z(q); break;
    default:
      throw InvalidArgument(std::string("unknown Pauli '") + pauli + "'");
  }
  touch();
}

void StabilizerBackend::apply_gate(const qir::Gate& g) {
  using qir::GateKind;
  const auto& q = g.qubits;
  int k = 0;
  switch (g.kind) {
    case GateKind::I:
    case GateKind::Barrier:
      return;
    case GateKind::X: op_x(q[0]); break;
    case GateKind::Y: op_y(q[0]); break;
    case GateKind::Z: op_z(q[0]); break;
    case GateKind::H: op_h(q[0]); break;
    case GateKind::S: op_s(q[0]); break;
    case GateKind::Sdg: op_sdg(q[0]); break;
    case GateKind::SX:  // ~ H S H up to global phase
      op_h(q[0]); op_s(q[0]); op_h(q[0]);
      break;
    case GateKind::SXdg:
      op_h(q[0]); op_sdg(q[0]); op_h(q[0]);
      break;
    case GateKind::RZ:
    case GateKind::P:
      // RZ(k*pi/2) ~ P(k*pi/2) = S^k up to global phase.
      if (!qir::quarter_turns(g.params[0], &k)) break;
      for (int i = 0; i < k; ++i) op_s(q[0]);
      touch();
      return;
    case GateKind::RX:
      // RX(k*pi/2) ~ H S^k H.
      if (!qir::quarter_turns(g.params[0], &k)) break;
      op_h(q[0]);
      for (int i = 0; i < k; ++i) op_s(q[0]);
      op_h(q[0]);
      touch();
      return;
    case GateKind::RY:
      // RY = S RX Sdg as matrices, i.e. temporally Sdg, RX, S
      // (compiler/decompose.cpp uses the same identity).
      if (!qir::quarter_turns(g.params[0], &k)) break;
      op_sdg(q[0]);
      op_h(q[0]);
      for (int i = 0; i < k; ++i) op_s(q[0]);
      op_h(q[0]);
      op_s(q[0]);
      touch();
      return;
    case GateKind::CX: op_cx(q[0], q[1]); break;
    case GateKind::CZ:  // CX conjugated by H on the target
      op_h(q[1]); op_cx(q[0], q[1]); op_h(q[1]);
      break;
    case GateKind::CY:  // CX conjugated by S on the target
      op_sdg(q[1]); op_cx(q[0], q[1]); op_s(q[1]);
      break;
    case GateKind::CP: {
      // CP(k*pi/2): identity for k == 0 mod 4, CZ for k == 2 mod 4.
      if (!qir::quarter_turns(g.params[0], &k) || k % 2 != 0) break;
      if (k == 2) {
        op_h(q[1]); op_cx(q[0], q[1]); op_h(q[1]);
        touch();
      }
      return;
    }
    case GateKind::CRZ: {
      // CRZ(theta) is Clifford only at theta = 2*pi*m, where RZ(2*pi) = -I
      // puts a -1 on the control=1 subspace: CRZ(2*pi*m) = Z^m on the
      // control. quarter_turns reduces mod 4, so recover m's parity from
      // the raw quarter-turn count.
      if (!qir::quarter_turns(g.params[0], &k) || k != 0) break;
      const long long quarters =
          std::llround(g.params[0] / 1.5707963267948966);
      if (((quarters / 4) % 2) != 0) op_z(q[0]);
      touch();
      return;
    }
    case GateKind::SWAP: op_swap(q[0], q[1]); break;
    default:
      break;  // T/Tdg/CH/CCX/CSWAP/MCX fall through to the throw
  }
  if (!g.is_clifford()) {
    throw UnsupportedGate(name(), g.to_string());
  }
  touch();
}

void StabilizerBackend::prepare() {
  if (!has_support_) {
    support_ = build_support();
    has_support_ = true;
  }
}

StabilizerBackend::Support StabilizerBackend::build_support() const {
  const std::size_t n = xs_.size();
  std::vector<std::uint64_t> x = xs_, z = zs_;
  std::vector<std::uint8_t> r = rs_;

  // Multiplies generator row a by row b (both remain valid commuting
  // stabilizer elements): masks XOR, and the sign accumulates the exponent
  // of i over the per-qubit Pauli products — even for commuting rows, so it
  // folds to a plain sign flip.
  auto rowmult = [&](std::size_t a, std::size_t b) {
    int phase = 2 * (static_cast<int>(r[a]) + static_cast<int>(r[b]));
    for (int qb = 0; qb < num_qubits_; ++qb) {
      const int ca = static_cast<int>((x[a] >> qb) & 1) |
                     (static_cast<int>((z[a] >> qb) & 1) << 1);
      const int cb = static_cast<int>((x[b] >> qb) & 1) |
                     (static_cast<int>((z[b] >> qb) & 1) << 1);
      phase += kPhaseTable[ca][cb];
    }
    phase = ((phase % 4) + 4) % 4;
    TETRIS_REQUIRE(phase % 2 == 0,
                   "stabilizer rowmult: anticommuting generators");
    x[a] ^= x[b];
    z[a] ^= z[b];
    r[a] = static_cast<std::uint8_t>(phase / 2);
  };

  // Reduced row echelon form of the X-matrix with the pivot as each row's
  // MSB: scanning columns high to low guarantees a pivot row has no set bit
  // above its pivot, which is what makes the m -> support-element map of
  // sample_from monotone.
  std::size_t rank = 0;
  for (int qb = num_qubits_ - 1; qb >= 0; --qb) {
    const std::uint64_t bit = std::uint64_t{1} << qb;
    std::size_t pivot = n;
    for (std::size_t i = rank; i < n; ++i) {
      if (x[i] & bit) {
        pivot = i;
        break;
      }
    }
    if (pivot == n) continue;
    std::swap(x[rank], x[pivot]);
    std::swap(z[rank], z[pivot]);
    std::swap(r[rank], r[pivot]);
    for (std::size_t i = 0; i < n; ++i) {
      if (i != rank && (x[i] & bit)) rowmult(i, rank);
    }
    ++rank;
  }

  Support s;
  s.k = static_cast<int>(rank);
  // Pivot rows were produced in descending-pivot order; ascending is the
  // enumeration order (pivot = MSB, so numeric sort = pivot sort).
  s.basis.reserve(rank);
  for (std::size_t i = rank; i > 0; --i) s.basis.push_back(x[i - 1]);

  // X-free rows are pure Z strings: (-1)^r * Z^z fixes |x_b> iff the basis
  // assignment satisfies the parity check x_b . z == r. Solving the checks
  // (free variables zeroed) gives one support element x0.
  std::vector<std::pair<std::uint64_t, std::uint8_t>> eqs;
  for (std::size_t i = rank; i < n; ++i) {
    eqs.emplace_back(z[i], r[i]);
    s.checks.emplace_back(z[i], r[i]);
  }
  std::uint64_t x0 = 0;
  std::vector<std::uint64_t> pivots;
  for (std::size_t e = 0; e < eqs.size(); ++e) {
    // Reduce by already-pivoted equations.
    for (std::size_t j = 0; j < e; ++j) {
      if (eqs[e].first & pivots[j]) {
        eqs[e].first ^= eqs[j].first;
        eqs[e].second ^= eqs[j].second;
      }
    }
    TETRIS_REQUIRE(eqs[e].first != 0 || eqs[e].second == 0,
                   "stabilizer support: inconsistent parity checks");
    if (eqs[e].first == 0) {
      pivots.push_back(0);
      continue;
    }
    const std::uint64_t pbit = std::uint64_t{1} << msb(eqs[e].first);
    // Full RREF: clear this pivot from every earlier equation.
    for (std::size_t j = 0; j < e; ++j) {
      if (eqs[j].first & pbit) {
        eqs[j].first ^= eqs[e].first;
        eqs[j].second ^= eqs[e].second;
      }
    }
    pivots.push_back(pbit);
  }
  for (std::size_t e = 0; e < eqs.size(); ++e) {
    if (pivots[e] != 0 && eqs[e].second) x0 |= pivots[e];
  }
  // Canonicalize: zero x0 on the V-pivot bits (XOR-ing basis vectors stays
  // inside the solution coset), the normal form sample_from's monotone
  // enumeration needs.
  for (std::size_t j = s.basis.size(); j > 0; --j) {
    const std::uint64_t pbit = std::uint64_t{1} << msb(s.basis[j - 1]);
    if (x0 & pbit) x0 ^= s.basis[j - 1];
  }
  s.x0 = x0;
  return s;
}

std::size_t StabilizerBackend::sample_from(const Support& s, Rng& rng) const {
  const double r = rng.uniform();
  // floor(r * 2^k) is exact (scaling by a power of two shifts only the
  // exponent), and selects precisely the support element the statevector's
  // cumulative scan of k uniform 2^-k probabilities picks for the same r.
  std::uint64_t m = static_cast<std::uint64_t>(std::ldexp(r, s.k));
  std::uint64_t index = s.x0;
  for (int j = 0; j < s.k; ++j) {
    if ((m >> j) & 1) index ^= s.basis[static_cast<std::size_t>(j)];
  }
  return static_cast<std::size_t>(index);
}

std::size_t StabilizerBackend::sample_index(Rng& rng) const {
  if (has_support_) return sample_from(support_, rng);
  return sample_from(build_support(), rng);
}

int StabilizerBackend::support_dim() const {
  if (has_support_) return support_.k;
  return build_support().k;
}

double StabilizerBackend::probability(std::size_t index) const {
  if (num_qubits_ < 64) {
    TETRIS_REQUIRE(index < (std::uint64_t{1} << num_qubits_),
                   "StabilizerBackend::probability: index out of range");
  }
  const Support local = has_support_ ? Support{} : build_support();
  const Support& s = has_support_ ? support_ : local;
  for (const auto& [zmask, parity] : s.checks) {
    int bits = 0;
    std::uint64_t overlap = index & zmask;
    while (overlap) {
      bits ^= 1;
      overlap &= overlap - 1;
    }
    if (bits != static_cast<int>(parity)) return 0.0;
  }
  return std::ldexp(1.0, -s.k);
}

std::map<std::string, double> StabilizerBackend::distribution(
    const std::vector<int>& measured) const {
  const Support local = has_support_ ? Support{} : build_support();
  const Support& s = has_support_ ? support_ : local;
  TETRIS_REQUIRE(s.k <= kMaxEnumerationQubits,
                 "StabilizerBackend::distribution: support too large to "
                 "enumerate (2^" + std::to_string(s.k) + " elements)");
  const std::vector<int> m = resolve_measured(num_qubits_, measured);
  std::map<std::string, double> out;
  const double p = std::ldexp(1.0, -s.k);
  const std::uint64_t count = std::uint64_t{1} << s.k;
  for (std::uint64_t mask = 0; mask < count; ++mask) {
    std::uint64_t index = s.x0;
    for (int j = 0; j < s.k; ++j) {
      if ((mask >> j) & 1) index ^= s.basis[static_cast<std::size_t>(j)];
    }
    out[project_index(static_cast<std::size_t>(index), m)] += p;
  }
  return out;
}

}  // namespace tetris::sim
