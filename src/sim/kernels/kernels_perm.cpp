#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/kernels/kernels.h"

namespace tetris::sim::kernels {

namespace {

std::size_t bit(int q) { return std::size_t{1} << q; }

int lowest_bit(std::size_t mask) {
  return __builtin_ctzll(static_cast<unsigned long long>(mask));
}

/// Shortest contiguous run (in amplitudes) the sweep swaps as a range.
constexpr std::size_t kMinRun = 8;

/// Exchanges two amplitudes as 16-byte blocks (one load and one store each
/// way, where element-wise std::complex moves split into doubles).
void swap_amp(cplx* a, cplx* b) {
  unsigned char x[sizeof(cplx)], y[sizeof(cplx)];
  std::memcpy(x, a, sizeof(cplx));
  std::memcpy(y, b, sizeof(cplx));
  std::memcpy(a, y, sizeof(cplx));
  std::memcpy(b, x, sizeof(cplx));
}

}  // namespace

bool permutation_plan(const qir::Gate& gate, PermPlan& out) {
  using qir::GateKind;
  const std::vector<int>& qs = gate.qubits;
  switch (gate.kind) {
    case GateKind::X:
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
      // Controls are every qubit but the last (the target).
      out.fixed = 0;
      for (int q : qs) out.fixed |= bit(q);
      out.flip = bit(qs.back());
      out.set = out.fixed & ~out.flip;
      break;
    case GateKind::SWAP:
      out.fixed = bit(qs[0]) | bit(qs[1]);
      out.set = bit(qs[0]);
      out.flip = out.fixed;
      break;
    case GateKind::CSWAP:
      out.fixed = bit(qs[0]) | bit(qs[1]) | bit(qs[2]);
      out.set = bit(qs[0]) | bit(qs[1]);
      out.flip = bit(qs[1]) | bit(qs[2]);
      break;
    default:
      return false;
  }
  out.count = __builtin_popcountll(static_cast<unsigned long long>(out.fixed));
  return true;
}

void sweep_perm(cplx* amps, std::size_t k_begin, std::size_t k_end,
                const PermPlan& p) {
  // i: subspace index k with a zero bit spliced in at each fixed position
  // (ascending order keeps the later positions valid in the widened index).
  std::size_t i = k_begin;
  for (std::size_t rest = p.fixed; rest != 0; rest &= rest - 1) {
    const int q = lowest_bit(rest);
    i = ((i >> q) << (q + 1)) | (i & (bit(q) - 1));
  }
  // Bits below the lowest fixed position pass through the splice unchanged,
  // so a run of consecutive k maps to a contiguous range of i — and, since
  // flip only touches fixed bits, of i ^ flip. Runs are cut at the chunk
  // end, so a chunk never touches a pair owned by another chunk. Runs
  // shorter than kMinRun cost more in loop overhead than they save, so
  // those sweeps step one pair at a time.
  const std::size_t run = bit(lowest_bit(p.fixed));
  if (run < kMinRun) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      const std::size_t j = i | p.set;
      swap_amp(amps + j, amps + (j ^ p.flip));
      // Next index with every fixed bit clear: the carry ripples through
      // the (temporarily set) fixed bits.
      i = ((i | p.fixed) + 1) & ~p.fixed;
    }
    return;
  }
  std::size_t k = k_begin;
  while (k < k_end) {
    const std::size_t len = std::min(run - (k & (run - 1)), k_end - k);
    // std::complex<double> is array-compatible with double[2], so a run is
    // 2 * len contiguous doubles on each side.
    double* a = reinterpret_cast<double*>(amps + (i | p.set));
    double* b = reinterpret_cast<double*>(amps + ((i | p.set) ^ p.flip));
    for (std::size_t r = 0; r < 2 * len; ++r) std::swap(a[r], b[r]);
    k += len;
    i = (((i + len - 1) | p.fixed) + 1) & ~p.fixed;
  }
}

void sweep_controlled(cplx* amps, std::size_t k_begin, std::size_t k_end,
                      const ControlledOp& c) {
  const int q = c.q;
  const std::size_t stride = bit(q);
  const std::size_t control_mask = c.controls;
  const cplx m00 = c.m.m00, m01 = c.m.m01, m10 = c.m.m10, m11 = c.m.m11;
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    if ((i0 & control_mask) != control_mask) continue;
    const std::size_t i1 = i0 + stride;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

}  // namespace tetris::sim::kernels
