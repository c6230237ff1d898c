#pragma once

#include <cstddef>
#include <vector>

#include "qir/circuit.h"
#include "sim/kernels/kernels.h"
#include "sim/statevector.h"

namespace tetris::sim {

/// What the pass did — each emitted op costs exactly one amplitude sweep, so
/// ops_out / gates_in is the memory-pass ratio fusion buys.
struct FusionStats {
  std::size_t gates_in = 0;     ///< non-barrier source gates scanned
  std::size_t barriers = 0;     ///< barrier gates dropped (they are fences)
  std::size_t ops_out = 0;      ///< fused ops emitted == amplitude sweeps
  std::size_t gates_fused = 0;  ///< source gates folded into multi-gate ops

  /// Fraction of amplitude sweeps eliminated: 1 - ops_out / gates_in.
  double sweep_reduction() const;
};

/// One executable unit of a FusionPlan — exactly one amplitude sweep,
/// lowered once when the plan is built.
///
/// `first_gate` / `gate_count` tie the op back to the source gate stream
/// (barriers included in the indexing), which is what the fence tests and
/// the stats assert on; a passthrough's source gate is
/// `circuit.gates()[first_gate]`. `sweep` is what every execution path
/// runs: whole register (apply_fused_op, advance_fused) and cache tile
/// (apply_fused) alike.
struct FusedOp {
  enum class Kind {
    kGate,      ///< passthrough: the source gate's own sweep, as apply_gate
                ///< runs it
    kSingle,    ///< one 2x2: a same-qubit run multiplied into one matrix
    kGang,      ///< several 2x2s on distinct qubits, one gathered sweep
    kTwoQubit,  ///< one 4x4 on a wire pair
  };
  Kind kind = Kind::kGate;
  std::size_t first_gate = 0;  ///< index of the first source gate
  std::size_t gate_count = 1;  ///< source gates folded into this op
  kernels::SweepOp sweep;      ///< the lowered sweep
};

/// A fused compilation of a gate stream: the same unitary as the source
/// circuit, expressed as fewer amplitude sweeps.
///
/// The greedy pass merges, in stream order:
///  (a) runs of single-qubit gates on the same qubit into one 2x2 product,
///  (b) windows of consecutive single-qubit gates on at most
///      StateVector::kMaxGangQubits distinct qubits into a gang applied in
///      one sweep (they commute exactly), and
///  (c) adjacent gates acting within one qubit pair — 2q gates in either
///      orientation plus interleaved 1q gates on the pair — into one 4x4.
/// Multi-qubit gates (CCX, CSWAP, MCX) pass through unfused; a lone gate
/// that nothing merges with also passes through and keeps the sweep
/// apply_gate would run (the arithmetic-free permutation sweep for the
/// permutation kinds).
///
/// **Fences.** No fused op ever spans a Barrier gate. A per-shot
/// noise-injection site needs no fence in the plan: sim::sample walks one
/// cursor register forward through the plan with advance_fused, which stops
/// before any op that reaches a shot's first injection site, resumes each
/// errored shot from a copy of that cursor, and runs only the rest of the
/// trajectory gate by gate.
///
/// **Floating point.** Merging gates multiplies their matrices, which
/// reorders FP arithmetic: a fused run is tolerance-equal to the unfused one
/// (~1e-13 per merged gate), not bit-identical. Gang ops whose entries are
/// single unmerged gates apply the exact per-amplitude operation sequence of
/// the unfused stream (the sweeps differ only in memory-access order).
/// Serial-vs-parallel execution of one plan is always bit-identical
/// (disjoint chunks, no reassociation) — see docs/ARCHITECTURE.md,
/// "Gate fusion".
class FusionPlan {
 public:
  /// Plans the fused execution of `circuit`.
  static FusionPlan build(const qir::Circuit& circuit);

  int num_qubits() const { return num_qubits_; }
  const std::vector<FusedOp>& ops() const { return ops_; }
  const FusionStats& stats() const { return stats_; }

 private:
  int num_qubits_ = 0;
  std::vector<FusedOp> ops_;
  FusionStats stats_;
};

/// 4x4 matrix of `gate` acting on the wire pair (a, b), in the local basis
/// convention of StateVector::apply_two_qubit (qubit `a` = low local bit).
/// Accepts any single-qubit gate on a or b and any two-qubit gate on {a, b}
/// in either orientation; throws InvalidArgument otherwise.
void two_qubit_matrix(const qir::Gate& gate, int a, int b, cplx out[4][4]);

/// Resumable forward walk over `plan`: starting at op index `next_op`,
/// applies every op whose source gates lie entirely before `gate_end` (an
/// exclusive gate-stream index), in order, leaves `next_op` at the first op
/// NOT applied, and returns the index of the first gate not applied — the
/// point a gate-by-gate replay resumes from. An op that straddles
/// `gate_end` stops the walk, so no fused arithmetic ever crosses the
/// boundary; a later call with a larger `gate_end` picks up where this one
/// stopped, and a `gate_end` at or below the current position applies
/// nothing. From `next_op = 0` on |0...0>, a run of calls with ascending
/// `gate_end` leaves `sv` bit-identical to a single call with the last one.
/// This is the errored-trajectory cursor of sim::sample: shots sorted by
/// first injection site g advance one register through gate g
/// (gate_end = g + 1), and each shot simulates only its tail unfused. Ops
/// are applied via StateVector::apply_fused_op, so the prefix is exactly as
/// tolerance- or bit-equal to the unfused gates as apply_fused itself.
std::size_t advance_fused(StateVector& sv, const FusionPlan& plan,
                          std::size_t& next_op, std::size_t gate_end);

}  // namespace tetris::sim
