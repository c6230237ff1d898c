#pragma once

#include <cstddef>
#include <memory>
#include <variant>

#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace tetris::sim::kernels {

/// The amplitude-sweep kernels behind every StateVector sweep, and the one
/// place that chooses among them.
///
/// `lower` turns a gate, a 2x2 on one qubit, a gang, or a 4x4 on a pair into
/// a SweepOp: the operands of exactly one kernel, plus the index-space shift
/// and touched-qubit mask its callers need. `run` is the only switch over
/// kernel kinds and SIMD modes. Gate-by-gate sweeps, fused ops and cache
/// tiles all lower and run through this pair, so one gate executes the same
/// kernel on every path.
///
/// **Regions.** run(mode, base, begin, end, op) sweeps the op's indices
/// [begin, end) of a region in the region's own coordinates. The full
/// amplitude array with a runtime::parallel_for chunk of [0, dim >> shift)
/// is the whole-register sweep; a 2^t-amplitude tile with its full range
/// [0, 2^t >> shift) runs the same op on one cache-resident tile, which is
/// valid whenever `touched >> t == 0`. Both execute identical
/// per-amplitude arithmetic, so serial, chunked and tiled sweeps of one mode
/// are bit-identical.
///
/// **Modes.** The scalar kernels are verbatim copies of the historical
/// StateVector loops: the byte-identity reference. The AVX2 kernels compute
/// each amplitude with a fixed per-element instruction sequence (packed
/// complex multiply via FMA) that does not depend on where a chunk boundary
/// falls; against scalar they are tolerance-equal only (FMA fuses a
/// rounding step). The permutation and controlled-2x2 sweeps have one
/// portable kernel that serves both modes.

/// One 2x2 complex matrix, flattened for by-value capture into kernels.
struct M2 {
  cplx m00, m01, m10, m11;
};

/// One 4x4 complex matrix, row-major.
struct M4 {
  cplx v[16];
};

/// Execution form of one permutation sweep: every index i whose fixed bits
/// equal `set` exchanges its amplitude with index i ^ flip. `flip` lies
/// inside the fixed bits, so each exchanged pair is visited exactly once.
/// The permutation gates map onto it as
///   X, CX, CCX, MCX   fixed = controls | t   set = controls   flip = t
///   SWAP(a, b)        fixed = a | b          set = a          flip = a | b
///   CSWAP(c; a, b)    fixed = c | a | b      set = c | a      flip = a | b
struct PermPlan {
  std::size_t fixed = 0;  ///< mask of the fixed-bit positions (non-empty)
  std::size_t set = 0;
  std::size_t flip = 0;
  int count = 0;          ///< popcount(fixed): the sweep covers 2^(n-count)
};

/// Diagonal 2x2 on qubit q: amplitude i is multiplied by m11 where bit q of
/// i is set and by m00 elsewhere (one multiply per amplitude).
struct DiagOp {
  int q;
  cplx m00, m11;
};

/// Dense 2x2 on qubit q, applied to every amplitude pair.
struct PairOp {
  int q;
  M2 m;
};

/// 2x2 on target qubit q, applied to the pairs whose index has every
/// `controls` bit set (CY, CZ, CH, CP, CRZ).
struct ControlledOp {
  int q;
  std::size_t controls;
  M2 m;
};

/// Execution form of one gang sweep (k distinct-qubit 2x2s in one gathered
/// pass).
struct GangPlan {
  int count = 0;            ///< number of ops == distinct qubits (k)
  std::size_t block = 0;    ///< 2^k amplitudes gathered per outer index
  int sorted[StateVector::kMaxGangQubits] = {};  ///< gang qubits, ascending
  /// offsets[l]: global offset of local index l from a block's base index
  /// (local bit p maps to wire sorted[p]).
  std::size_t offsets[std::size_t{1} << StateVector::kMaxGangQubits] = {};
  /// local_pos[j]: position of op j's qubit within `sorted` — its local
  /// "qubit" inside the gathered block. Ops stay in stream order.
  int local_pos[StateVector::kMaxGangQubits] = {};
  M2 m[StateVector::kMaxGangQubits];  ///< op j's matrix, stream order
};

/// Dense 4x4 on the wire pair (a, b), local basis (bit_b << 1) | bit_a —
/// exactly StateVector::apply_two_qubit's convention.
struct QuadOp {
  int a, b;
  M4 m;
};

/// Monomial 4x4 on (a, b), same basis: row r's output is
/// coef[r] * input[src[r]] (see monomial_decompose).
struct MonomialOp {
  int a, b;
  int src[4];
  cplx coef[4];
};

/// One lowered sweep. Only the chosen kernel's operands are built, so
/// lowering a lone gate stays as cheap as the gate itself. A gang is held
/// by pointer: its plan is about 1 KiB, four times the largest other
/// operands, and every op of a FusionPlan stores one SweepOp.
struct SweepOp {
  std::variant<PermPlan, DiagOp, PairOp, ControlledOp,
               std::shared_ptr<const GangPlan>, QuadOp, MonomialOp>
      kernel;
  int shift = 0;            ///< the sweep covers indices [0, dim >> shift)
  std::size_t touched = 0;  ///< mask of every qubit the sweep touches
};

/// Lowers a gate that passed qir::validate_gate (Barrier excluded): the
/// permutation kinds to a PermPlan, CY/CZ/CH/CP/CRZ to a ControlledOp, and
/// every single-qubit kind as its matrix (below).
SweepOp lower(const qir::Gate& gate);

/// A 2x2 on qubit q: a DiagOp when both off-diagonal entries are exact
/// zeros (Z/S/T/RZ/P and their products), a PairOp otherwise.
SweepOp lower(const cplx m[2][2], int q);

/// A gang of `count` 2x2s on distinct qubits, applied in op order; count
/// within StateVector::kMaxGangQubits (apply_gang validates both).
SweepOp lower(const SingleQubitOp* ops, std::size_t count);

/// A 4x4 on the pair (a, b), a != b: a MonomialOp when monomial_decompose
/// succeeds, a QuadOp otherwise.
SweepOp lower(const cplx m[4][4], int a, int b);

/// Runs `op` over its indices [begin, end) of the region at `amps` with the
/// kernels of `mode`.
void run(SimdMode mode, cplx* amps, std::size_t begin, std::size_t end,
         const SweepOp& op);

/// Decomposes `m` as a monomial matrix (exactly one nonzero per row):
/// row r's output is coef[r] * input[src[r]]. Returns false when any row has
/// zero or several nonzeros. The decomposition is mode-independent, so the
/// scalar and AVX2 paths always agree on which kernel runs.
bool monomial_decompose(const M4& m, int src[4], cplx coef[4]);

/// Builds the sweep for `gate` when it is one of the permutation kinds
/// above; returns false (leaving `out` unspecified) for every other kind.
/// Qubits must be distinct — apply_gate validates them.
bool permutation_plan(const qir::Gate& gate, PermPlan& out);

// --- the kernels `run` dispatches to ---

// 2x2 pair sweep over pair indices [k_begin, k_end), target qubit q.
void sweep_1q_scalar(cplx* amps, std::size_t k_begin, std::size_t k_end,
                     int q, const M2& m);
void sweep_1q_avx2(cplx* amps, std::size_t k_begin, std::size_t k_end,
                   int q, const M2& m);

// Diagonal 2x2 over amplitude indices [i_begin, i_end).
void sweep_diag_scalar(cplx* amps, std::size_t i_begin, std::size_t i_end,
                       int q, cplx m00, cplx m11);
void sweep_diag_avx2(cplx* amps, std::size_t i_begin, std::size_t i_end,
                     int q, cplx m00, cplx m11);

// Dense 4x4 over quad indices [idx_begin, idx_end), wire pair (a, b).
void sweep_2q_scalar(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                     int a, int b, const M4& m);
void sweep_2q_avx2(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                   int a, int b, const M4& m);

// Monomial 4x4 (src/coef from monomial_decompose), same index space.
void sweep_2q_monomial_scalar(cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]);
void sweep_2q_monomial_avx2(cplx* amps, std::size_t idx_begin,
                            std::size_t idx_end, int a, int b,
                            const int src[4], const cplx coef[4]);

// Gang sweep over outer (block) indices [outer_begin, outer_end). Each block
// applies the plan's 2x2s in op order with exactly the per-amplitude
// arithmetic of the 1q pair sweep above, so a gang of single unmerged gates
// reproduces the unfused stream amplitude-for-amplitude.
void sweep_gang_scalar(cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g);
void sweep_gang_avx2(cplx* amps, std::size_t outer_begin,
                     std::size_t outer_end, const GangPlan& g);

// Permutation sweep over subspace indices [k_begin, k_end): k enumerates the
// 2^(n - count) indices with every fixed bit cleared. It only moves
// amplitudes, so any chunking of k is bit-identical to one serial pass.
void sweep_perm(cplx* amps, std::size_t k_begin, std::size_t k_end,
                const PermPlan& p);

// Controlled 2x2 over pair indices [k_begin, k_end); pairs whose controls do
// not all hold are skipped.
void sweep_controlled(cplx* amps, std::size_t k_begin, std::size_t k_end,
                      const ControlledOp& c);

}  // namespace tetris::sim::kernels
