#pragma once

#include <string>
#include <vector>

namespace tetris::qir {

/// The gate alphabet of the IR.
///
/// Controls always precede targets in Gate::qubits. The set covers everything
/// the RevLib benchmarks need (X/CX/CCX/MCX Toffoli family, Fredkin), the
/// obfuscation alphabet of the paper (X, CX, H), and the {X, SX, RZ, CX}
/// physical basis the compiler lowers to — plus the standard single-qubit
/// Cliffords and rotations required by the decomposition rules.
enum class GateKind {
  I,      ///< identity (1 qubit)
  X,      ///< Pauli-X
  Y,      ///< Pauli-Y
  Z,      ///< Pauli-Z
  H,      ///< Hadamard
  S,      ///< sqrt(Z)
  Sdg,    ///< S adjoint
  T,      ///< fourth root of Z
  Tdg,    ///< T adjoint
  SX,     ///< sqrt(X)
  SXdg,   ///< SX adjoint
  RX,     ///< rotation about X, params[0] = theta
  RY,     ///< rotation about Y, params[0] = theta
  RZ,     ///< rotation about Z, params[0] = theta
  P,      ///< phase gate diag(1, e^{i*theta}), params[0] = theta
  CX,     ///< controlled-X (control, target)
  CY,     ///< controlled-Y
  CZ,     ///< controlled-Z
  CH,     ///< controlled-H
  CP,     ///< controlled-phase, params[0] = theta
  CRZ,    ///< controlled-RZ, params[0] = theta
  SWAP,   ///< exchange two qubits
  CCX,    ///< Toffoli (c0, c1, target)
  CSWAP,  ///< Fredkin (control, a, b)
  MCX,    ///< multi-controlled X (c0..ck-1, target), k >= 3 controls
  Barrier ///< scheduling barrier; no unitary action
};

/// One gate instance: a kind, the qubits it acts on, and rotation parameters.
///
/// Gate is a value type with no invariants beyond "qubits are distinct and the
/// count matches the kind's arity"; Circuit::add enforces those on insertion.
struct Gate {
  GateKind kind = GateKind::I;
  std::vector<int> qubits;   ///< controls first, then target(s)
  std::vector<double> params;

  Gate() = default;
  Gate(GateKind k, std::vector<int> qs, std::vector<double> ps = {})
      : kind(k), qubits(std::move(qs)), params(std::move(ps)) {}

  /// Number of qubits this gate touches.
  int num_qubits() const { return static_cast<int>(qubits.size()); }

  /// The adjoint (inverse) gate. Self-inverse kinds return a copy; rotation
  /// kinds negate their angle; S/T/SX map to their dagger partners.
  Gate adjoint() const;

  /// True if G == G^-1 (X, Z, H, CX, CCX, SWAP, ...).
  bool is_self_inverse() const;

  /// True for CX/CY/CZ/CH/CP/CRZ/CCX/CSWAP/MCX.
  bool is_controlled() const;

  /// True if the gate is diagonal in the computational basis (Z/S/T/RZ/P/CZ/CP/CRZ).
  bool is_diagonal() const;

  /// True for X/CX/CCX/MCX/SWAP/CSWAP/I/Barrier: permutes basis states, so a
  /// circuit of such gates is classically reversible (the RevLib class).
  bool is_classical() const;

  /// True if the gate is a Clifford operation — it maps Pauli strings to
  /// Pauli strings under conjugation, so a stabilizer simulator
  /// (sim/backend/stabilizer.h) can execute it in O(n) tableau updates.
  /// Fixed kinds (I/X/Y/Z/H/S/Sdg/SX/SXdg/CX/CY/CZ/SWAP/Barrier) always
  /// qualify; the parametric kinds qualify on the Clifford angle lattice:
  /// RX/RY/RZ/P at multiples of pi/2, CP at multiples of pi, CRZ at
  /// multiples of 2*pi (each within `quarter_turns`'s tolerance). T/Tdg and
  /// the Toffoli family (CH/CCX/CSWAP/MCX) never qualify.
  bool is_clifford() const;

  /// Lower-case mnemonic ("cx", "ccx", "rz", ...).
  std::string name() const;

  /// Human-readable form, e.g. "cx q1, q3" or "rz(0.7854) q0".
  std::string to_string() const;

  /// Structural equality; rotation angles compare within `atol`.
  bool approx_equal(const Gate& other, double atol = 1e-12) const;

  bool operator==(const Gate& other) const;
};

/// Expected qubit arity for a kind; returns -1 for variadic (MCX, Barrier).
int gate_arity(GateKind kind);

/// Expected parameter count for a kind (0 or 1 in this alphabet).
int gate_param_count(GateKind kind);

/// True if the kind is one of the single-qubit kinds.
bool is_single_qubit_kind(GateKind kind);

/// Checks `g` against a `num_qubits`-wide register: the kind's arity (MCX
/// needs >= 3 controls + target), its parameter count, and every qubit in
/// range and distinct. Throws InvalidArgument naming the first violation and
/// allocates nothing when `g` passes. Circuit::add and
/// sim::StateVector::apply_gate both run it.
void validate_gate(const Gate& g, int num_qubits);

/// True if `theta` is an integer multiple of pi/2 within `atol`; when it is,
/// `*turns` (if non-null) receives that multiple reduced mod 4, in [0, 3].
/// This is the angle test behind Gate::is_clifford, shared with the
/// stabilizer backend, which maps RZ(k*pi/2) to S^k etc. The tolerance
/// absorbs the float error of compiler-accumulated angles (sums of pi/2
/// literals drift by ~1e-16 per term) while still separating T (pi/4) by
/// eight orders of magnitude.
bool quarter_turns(double theta, int* turns = nullptr, double atol = 1e-9);

/// Parses a mnemonic ("cx") back to a kind; throws ParseError if unknown.
GateKind gate_kind_from_name(const std::string& name);

/// Mnemonic for a kind.
std::string gate_kind_name(GateKind kind);

// ---- Convenience factories (controls first, target last) -------------------
Gate make_x(int q);
Gate make_y(int q);
Gate make_z(int q);
Gate make_h(int q);
Gate make_s(int q);
Gate make_sdg(int q);
Gate make_t(int q);
Gate make_tdg(int q);
Gate make_sx(int q);
Gate make_sxdg(int q);
Gate make_rx(double theta, int q);
Gate make_ry(double theta, int q);
Gate make_rz(double theta, int q);
Gate make_p(double theta, int q);
Gate make_cx(int control, int target);
Gate make_cy(int control, int target);
Gate make_cz(int control, int target);
Gate make_ch(int control, int target);
Gate make_cp(double theta, int control, int target);
Gate make_crz(double theta, int control, int target);
Gate make_swap(int a, int b);
Gate make_ccx(int c0, int c1, int target);
Gate make_cswap(int control, int a, int b);
Gate make_mcx(std::vector<int> controls, int target);

}  // namespace tetris::qir
