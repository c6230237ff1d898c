#pragma once

#include <cstddef>

#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace tetris::sim::kernels {

/// The amplitude-sweep kernels behind StateVector's gate application, in one
/// scalar and one AVX2 flavour each.
///
/// Every kernel operates on a REGION: a base pointer plus an index range in
/// the region's own coordinates. Passing the full amplitude array with a
/// chunk of its global range runs the classic whole-vector sweep (this is
/// what runtime::parallel_for chunks feed); passing a 2^t-amplitude tile
/// with its full local range runs the same gate on one cache-resident tile
/// (the L2 blocking path of StateVector::apply_fused). Both uses execute
/// identical per-amplitude arithmetic, so tiled and untiled sweeps of one
/// mode are bit-identical.
///
/// The scalar kernels are verbatim copies of the historical StateVector
/// loops — they are the byte-identity reference. The permutation sweep is
/// the exception to the two-flavour rule: it only moves amplitudes, so one
/// portable kernel serves both modes. The AVX2 kernels compute
/// each amplitude with a fixed per-element instruction sequence (packed
/// complex multiply via FMA) that does not depend on where a chunk boundary
/// falls, so parallel AVX2 sweeps are bit-identical to serial AVX2 sweeps;
/// against scalar they are tolerance-equal only (FMA fuses a rounding step).

/// One 2x2 complex matrix, flattened for by-value capture into kernels.
struct M2 {
  cplx m00, m01, m10, m11;
};

/// One 4x4 complex matrix, row-major.
struct M4 {
  cplx v[16];
};

/// Precomputed execution form of one gang sweep (k distinct-qubit 2x2s in
/// one gathered pass). Built once per apply_gang / tiled run by
/// make_gang_plan, then shared read-only by every chunk and tile.
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

/// Builds the gang execution plan. Preconditions (distinct qubits, count
/// within kMaxGangQubits) are the caller's — apply_gang validates them.
GangPlan make_gang_plan(const SingleQubitOp* ops, std::size_t count);

/// Decomposes `m` as a monomial matrix (exactly one nonzero per row):
/// row r's output is coef[r] * input[src[r]]. Returns false when any row has
/// zero or several nonzeros. The decomposition is mode-independent, so the
/// scalar and AVX2 paths always agree on which kernel runs.
bool monomial_decompose(const M4& m, int src[4], cplx coef[4]);

// --- 2x2 pair sweep over pair indices [k_begin, k_end), target qubit q ---
void sweep_1q_scalar(cplx* amps, std::size_t k_begin, std::size_t k_end,
                     int q, const M2& m);
void sweep_1q_avx2(cplx* amps, std::size_t k_begin, std::size_t k_end,
                   int q, const M2& m);

// --- diagonal 2x2 over amplitude indices [i_begin, i_end) ---
void sweep_diag_scalar(cplx* amps, std::size_t i_begin, std::size_t i_end,
                       int q, cplx m00, cplx m11);
void sweep_diag_avx2(cplx* amps, std::size_t i_begin, std::size_t i_end,
                     int q, cplx m00, cplx m11);

// --- dense 4x4 over quad indices [idx_begin, idx_end), wire pair (a, b) ---
// Local basis (bit_b << 1) | bit_a, exactly StateVector::apply_two_qubit.
void sweep_2q_scalar(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                     int a, int b, const M4& m);
void sweep_2q_avx2(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                   int a, int b, const M4& m);

// --- monomial 4x4 (src/coef from monomial_decompose), same index space ---
void sweep_2q_monomial_scalar(cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]);
void sweep_2q_monomial_avx2(cplx* amps, std::size_t idx_begin,
                            std::size_t idx_end, int a, int b,
                            const int src[4], const cplx coef[4]);

// --- gang sweep over outer (block) indices [outer_begin, outer_end) ---
// Each block applies the plan's 2x2s in op order with exactly the
// per-amplitude arithmetic of the 1q pair sweep above, so a gang of single
// unmerged gates reproduces the unfused stream amplitude-for-amplitude.
void sweep_gang_scalar(cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g);
void sweep_gang_avx2(cplx* amps, std::size_t outer_begin,
                     std::size_t outer_end, const GangPlan& g);

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

/// Builds the sweep for `gate` when it is one of the permutation kinds
/// above; returns false (leaving `out` unspecified) for every other kind.
/// Qubits must be distinct — apply_gate validates them.
bool permutation_plan(const qir::Gate& gate, PermPlan& out);

// --- permutation sweep over subspace indices [k_begin, k_end) ---
// k enumerates the 2^(n - count) indices with every fixed bit cleared; the
// sweep only moves amplitudes, so one portable kernel serves both SIMD modes
// and any chunking of k is bit-identical to one serial pass.
void sweep_perm(cplx* amps, std::size_t k_begin, std::size_t k_end,
                const PermPlan& p);

// --- mode dispatchers ---
inline void sweep_1q(SimdMode mode, cplx* amps, std::size_t k_begin,
                     std::size_t k_end, int q, const M2& m) {
  if (mode == SimdMode::kAvx2) {
    sweep_1q_avx2(amps, k_begin, k_end, q, m);
  } else {
    sweep_1q_scalar(amps, k_begin, k_end, q, m);
  }
}

inline void sweep_diag(SimdMode mode, cplx* amps, std::size_t i_begin,
                       std::size_t i_end, int q, cplx m00, cplx m11) {
  if (mode == SimdMode::kAvx2) {
    sweep_diag_avx2(amps, i_begin, i_end, q, m00, m11);
  } else {
    sweep_diag_scalar(amps, i_begin, i_end, q, m00, m11);
  }
}

inline void sweep_2q(SimdMode mode, cplx* amps, std::size_t idx_begin,
                     std::size_t idx_end, int a, int b, const M4& m) {
  if (mode == SimdMode::kAvx2) {
    sweep_2q_avx2(amps, idx_begin, idx_end, a, b, m);
  } else {
    sweep_2q_scalar(amps, idx_begin, idx_end, a, b, m);
  }
}

inline void sweep_2q_monomial(SimdMode mode, cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]) {
  if (mode == SimdMode::kAvx2) {
    sweep_2q_monomial_avx2(amps, idx_begin, idx_end, a, b, src, coef);
  } else {
    sweep_2q_monomial_scalar(amps, idx_begin, idx_end, a, b, src, coef);
  }
}

inline void sweep_gang(SimdMode mode, cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g) {
  if (mode == SimdMode::kAvx2) {
    sweep_gang_avx2(amps, outer_begin, outer_end, g);
  } else {
    sweep_gang_scalar(amps, outer_begin, outer_end, g);
  }
}

}  // namespace tetris::sim::kernels
