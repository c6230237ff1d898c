#include <algorithm>

#include "sim/kernels/kernels.h"

namespace tetris::sim::kernels {

// The scalar kernels below are the byte-identity reference: their loop
// bodies are verbatim the historical StateVector gate loops, so a scalar
// build reproduces pre-kernel-layer amplitudes bit for bit.

bool monomial_decompose(const M4& m, int src[4], cplx coef[4]) {
  for (int r = 0; r < 4; ++r) {
    int nonzeros = 0;
    for (int c = 0; c < 4; ++c) {
      if (m.v[r * 4 + c] != cplx(0.0, 0.0)) {
        src[r] = c;
        ++nonzeros;
      }
    }
    if (nonzeros != 1) return false;
  }
  for (int r = 0; r < 4; ++r) coef[r] = m.v[r * 4 + src[r]];
  return true;
}

void sweep_1q_scalar(cplx* amps, std::size_t k_begin, std::size_t k_end,
                     int q, const M2& m) {
  const std::size_t stride = std::size_t{1} << q;
  const cplx m00 = m.m00, m01 = m.m01, m10 = m.m10, m11 = m.m11;
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    const std::size_t i1 = i0 + stride;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void sweep_diag_scalar(cplx* amps, std::size_t i_begin, std::size_t i_end,
                       int q, cplx m00, cplx m11) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    amps[i] *= ((i >> q) & 1) ? m11 : m00;
  }
}

void sweep_2q_scalar(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                     int a, int b, const M4& m) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  const cplx* mm = m.v;
  for (std::size_t idx = idx_begin; idx < idx_end; ++idx) {
    // Splice zero bits at the two wires (lowest first).
    std::size_t base = ((idx >> lo) << (lo + 1)) |
                       (idx & ((std::size_t{1} << lo) - 1));
    base = ((base >> hi) << (hi + 1)) |
           (base & ((std::size_t{1} << hi) - 1));
    // Local basis l = (bit_b << 1) | bit_a.
    const std::size_t i0 = base;
    const std::size_t i1 = base | bit_a;
    const std::size_t i2 = base | bit_b;
    const std::size_t i3 = base | bit_a | bit_b;
    const cplx v0 = amps[i0], v1 = amps[i1], v2 = amps[i2], v3 = amps[i3];
    amps[i0] = mm[0] * v0 + mm[1] * v1 + mm[2] * v2 + mm[3] * v3;
    amps[i1] = mm[4] * v0 + mm[5] * v1 + mm[6] * v2 + mm[7] * v3;
    amps[i2] = mm[8] * v0 + mm[9] * v1 + mm[10] * v2 + mm[11] * v3;
    amps[i3] = mm[12] * v0 + mm[13] * v1 + mm[14] * v2 + mm[15] * v3;
  }
}

void sweep_2q_monomial_scalar(cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  const cplx c0 = coef[0], c1 = coef[1], c2 = coef[2], c3 = coef[3];
  const int s0 = src[0], s1 = src[1], s2 = src[2], s3 = src[3];
  for (std::size_t idx = idx_begin; idx < idx_end; ++idx) {
    std::size_t base = ((idx >> lo) << (lo + 1)) |
                       (idx & ((std::size_t{1} << lo) - 1));
    base = ((base >> hi) << (hi + 1)) |
           (base & ((std::size_t{1} << hi) - 1));
    std::size_t at[4];
    at[0] = base;
    at[1] = base | bit_a;
    at[2] = base | bit_b;
    at[3] = base | bit_a | bit_b;
    const cplx v0 = amps[at[s0]], v1 = amps[at[s1]],
               v2 = amps[at[s2]], v3 = amps[at[s3]];
    amps[at[0]] = c0 * v0;
    amps[at[1]] = c1 * v1;
    amps[at[2]] = c2 * v2;
    amps[at[3]] = c3 * v3;
  }
}

void sweep_gang_scalar(cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g) {
  const int k = g.count;
  const std::size_t block = g.block;
  cplx local[std::size_t{1} << StateVector::kMaxGangQubits];
  for (std::size_t outer = outer_begin; outer < outer_end; ++outer) {
    // Splice a zero bit at each gang wire (ascending order keeps later
    // positions valid in the progressively widened index).
    std::size_t base = outer;
    for (int p = 0; p < k; ++p) {
      const int q = g.sorted[p];
      base = ((base >> q) << (q + 1)) |
             (base & ((std::size_t{1} << q) - 1));
    }
    for (std::size_t l = 0; l < block; ++l) {
      local[l] = amps[base + g.offsets[l]];
    }
    // Each 2x2 transforms its pairs with exactly the arithmetic of the
    // full-sweep kernel, in op order — per amplitude the operation sequence
    // matches the unfused gate stream.
    for (int j = 0; j < k; ++j) {
      sweep_1q_scalar(local, 0, block >> 1, g.local_pos[j], g.m[j]);
    }
    for (std::size_t l = 0; l < block; ++l) {
      amps[base + g.offsets[l]] = local[l];
    }
  }
}

}  // namespace tetris::sim::kernels
