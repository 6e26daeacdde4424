"""Play and decide the matrix Lights Out game.

A game instance is a square matrix M over Z_ell together with a labeling.
Toggling index j adds column j of M to the labels, so a toggle vector x
moves labeling pi to pi + M x, and a labeling is winnable exactly when
M x = -pi has a solution.  Cycle-specific closed forms cover the labelings
that put a on one vertex, b on the next, and 0 elsewhere.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

from .graphs import Graph, adjacency_matrix, cycle_graph
from .modular import (
    AuditError,
    ZModMatrix,
    check_modulus,
    is_invertible,
    solve,
)


def apply_toggles(
    m: ZModMatrix, pi: Sequence[int], x: Sequence[int]
) -> Tuple[int, ...]:
    """Labeling after performing toggle vector x from labeling pi."""
    if len(pi) != m.rows:
        raise ValueError(f"labeling length {len(pi)} != rows {m.rows}")
    ell = m.modulus
    moved = m.mul_vec(x)
    return tuple((p + d) % ell for p, d in zip(pi, moved))


def winnable(m: ZModMatrix, pi: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A toggle vector clearing pi, or None when pi cannot be cleared.

    The vector is audited once, by solve's check that m x = -pi.  A sweep
    of labelings on one m diagonalises it once (see normal_form).
    """
    if not m.is_square:
        raise ValueError("game matrix must be square")
    if len(pi) != m.rows:
        raise ValueError(f"labeling length {len(pi)} != rows {m.rows}")
    ell = m.modulus
    sol = solve(m, [(-p) % ell for p in pi])
    return None if sol is None else sol.particular


def is_AW(m: ZModMatrix) -> bool:
    """True when every labeling is winnable, i.e. m is invertible."""
    return is_invertible(m)


def shift_labeling(
    pi: Sequence[int], u_set: Iterable[int], r: int, ell: int
) -> Tuple[int, ...]:
    """Add r to the labels at positions in u_set, mod ell."""
    check_modulus(ell)
    out = [p % ell for p in pi]
    for v in set(u_set):
        if not (0 <= v < len(out)):
            raise ValueError(f"vertex {v} out of range")
        out[v] = (out[v] + r) % ell
    return tuple(out)


def lambda_labeling(k: int, a: int, b: int, ell: int) -> Tuple[int, ...]:
    """Cycle labeling with a at index 0, b at index 1, zero elsewhere."""
    check_modulus(ell)
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    out = [0] * k
    out[0] = a % ell
    out[1] = b % ell
    return tuple(out)


def _require_even(ell: int) -> None:
    check_modulus(ell)
    if ell % 2:
        raise ValueError(f"closed form requires an even modulus, got {ell}")


def cycle_lambda_winnable(k: int, a: int, b: int, ell: int) -> bool:
    """Closed-form winnability of the (a, b) cycle labeling, even ell only.

    Depending on k mod 4 the labeling clears exactly when: 0 -> a and b are
    both zero; 1 or 3 -> a and b have the same parity; 2 -> both are even.
    """
    _require_even(ell)
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    a %= ell
    b %= ell
    residue = k % 4
    if residue == 0:
        return a == 0 and b == 0
    if residue == 2:
        return a % 2 == 0 and b % 2 == 0
    return a % 2 == b % 2


def cycle_shift_canonical(
    k: int, a: int, b: int, s: int, ell: int
) -> Tuple[int, int]:
    """Reduce the all-vertex shift by s of the (a, b) cycle labeling.

    Returns (a', b') such that shifting lambda_{a,b} by s everywhere is
    toggle-equivalent to lambda_{a',b'}; the equivalence is re-verified by
    checking the difference of the two labelings lies in the toggle image.
    """
    _require_even(ell)
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    residue = k % 4
    if residue == 0:
        out = (a % ell, b % ell)
    elif residue == 1:
        out = (a % ell, (b - s) % ell)
    elif residue == 2:
        out = ((a - s) % ell, (b - s) % ell)
    else:
        out = ((a - s) % ell, b % ell)
    mat = adjacency_matrix(cycle_graph(k), ell)
    shifted = shift_labeling(lambda_labeling(k, a, b, ell), range(k), s, ell)
    target = lambda_labeling(k, out[0], out[1], ell)
    diff = [(t - p) % ell for p, t in zip(shifted, target)]
    if solve(mat, diff) is None:
        raise AuditError(
            f"shift reduction not toggle-reachable for k={k}, a={a}, b={b}, s={s}"
        )
    return out


def _shift_game(m: ZModMatrix) -> ZModMatrix:
    """[m | 1]: the toggles of m plus a column that adds 1 to every label."""
    flat = [e for row in m.data for e in row + (1,)]
    return ZModMatrix(m.rows, m.cols + 1, m.modulus, flat)


def exists_shift_winnable(
    g: Graph, pi: Sequence[int], ell: int
) -> Optional[int]:
    """Smallest s for which pi shifted by s everywhere clears, else None.

    The pairs (x, s) with A x + s 1 = -pi are the solutions y of
    [A | 1] y = -pi, so one solve decides every shift.  Their s parts form
    the coset s0 + <h> of Z_ell, where h is the gcd of ell and the last
    entries of the null generators, and the least shift is s0 mod h.
    """
    check_modulus(ell)
    n = g.n
    if len(pi) != n:
        raise ValueError(f"labeling length {len(pi)} != rows {n}")
    sol = solve(_shift_game(adjacency_matrix(g, ell)), [(-p) % ell for p in pi])
    if sol is None:
        return None
    h = ell
    for gen in sol.null_generators:
        h = math.gcd(h, gen[-1])
    return sol.particular[-1] % h
