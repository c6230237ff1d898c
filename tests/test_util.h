#pragma once

// Shared helpers for the TetrisLock test-suite.

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "qir/circuit.h"

namespace tetris::testutil {

/// Appends SWAP gates to `circuit` realising `perm`: the content currently on
/// wire p moves to wire perm[p]. Used to express "compiled circuit ==
/// original + final permutation" equivalences in routing/compiler tests.
inline void apply_wire_permutation(qir::Circuit& circuit,
                                   const std::vector<int>& perm) {
  const int n = static_cast<int>(perm.size());
  // pos[w] = current wire of the content that started on wire w.
  std::vector<int> pos(perm.size());
  for (int w = 0; w < n; ++w) pos[static_cast<std::size_t>(w)] = w;
  for (int w = 0; w < n; ++w) {
    int want = perm[static_cast<std::size_t>(w)];
    int cur = pos[static_cast<std::size_t>(w)];
    if (cur == want) continue;
    int other = -1;
    for (int v = 0; v < n; ++v) {
      if (pos[static_cast<std::size_t>(v)] == want) {
        other = v;
        break;
      }
    }
    circuit.swap(cur, want);
    pos[static_cast<std::size_t>(w)] = want;
    if (other >= 0) pos[static_cast<std::size_t>(other)] = cur;
  }
}

/// Embeds `circuit` on a wider physical register via layout
/// (logical q -> physical layout[q]).
inline qir::Circuit embed(const qir::Circuit& circuit,
                          const std::vector<int>& layout, int num_physical) {
  return circuit.remapped(layout, num_physical);
}

/// A small non-classical test circuit (GHZ preparation plus phases).
inline qir::Circuit ghz_with_phases(int n) {
  qir::Circuit c(n, "ghz_phases");
  c.h(0);
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.t(0);
  if (n > 1) c.s(1);
  return c;
}

/// Random Clifford circuit over the FIXED-matrix Clifford gates (H, S, Sdg,
/// X, Y, Z, SX, SXdg, CX, CY, CZ, SWAP). Parametric quarter-turn gates are
/// deliberately excluded here: their statevector matrices go through libm
/// cos/sin, which is correct to <1 ulp but not guaranteed exactly on the
/// Clifford grid — the exact shot-for-shot harness needs the grid.
inline qir::Circuit random_clifford(int num_qubits, int num_gates,
                                    Rng& rng) {
  qir::Circuit c(num_qubits);
  for (int i = 0; i < num_gates; ++i) {
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(num_qubits)));
    const int b = num_qubits < 2
                      ? a
                      : (a + 1 +
                         static_cast<int>(rng.index(
                             static_cast<std::size_t>(num_qubits - 1)))) %
                            num_qubits;
    switch (rng.index(12)) {
      case 0: c.add(qir::make_h(a)); break;
      case 1: c.add(qir::make_s(a)); break;
      case 2: c.add(qir::make_sdg(a)); break;
      case 3: c.add(qir::make_x(a)); break;
      case 4: c.add(qir::make_y(a)); break;
      case 5: c.add(qir::make_z(a)); break;
      case 6: c.add(qir::make_sx(a)); break;
      case 7: c.add(qir::make_sxdg(a)); break;
      case 8: c.add(qir::make_cx(a, b)); break;
      case 9: c.add(qir::make_cy(a, b)); break;
      case 10: c.add(qir::make_cz(a, b)); break;
      default: c.add(qir::make_swap(a, b)); break;
    }
  }
  return c;
}

}  // namespace tetris::testutil
