"""Every labeled complement's det(J - B), the brute-force oracle for the
complement scan.

complement_dets(n, e) takes every labeled complement B with e edges on n
vertices and computes det(J - B) directly, by fraction-free (Bareiss)
elimination on a numpy stack of int64 matrices, one chunk at a time.
winners() then filters that table for one modulus and prune setting, the
Lemma 4.6 degree cap being a plain filter on the largest degree.  No other
rule applies, and nothing here comes from the lightsout package.

The arithmetic is exact.  Every entry after a Bareiss step is a minor of
the 0/1 matrix being reduced (up to the sign of a row swap), and by
Hadamard's bound a 0/1 matrix of order m <= 9 has
|det| <= (m + 1)^((m + 1)/2) / 2^m < 200.  So a product before the
division is below 200^2 in absolute value, far inside int64, and the
division by the previous pivot leaves no remainder.
"""

from __future__ import annotations

import itertools
import math
from typing import Tuple

import numpy as np

# Matrices per Bareiss batch: 42 MB of int64 at n = 9, and a few times that
# with the temporaries of one step.
CHUNK = 65536


def bareiss_dets(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (b, n, n) stack of integer matrices, n >= 1,
    whose minors all fit comfortably in int64, such as 0/1 matrices with
    n <= 9.

    Each step eliminates the first column and keeps the block below and
    to the right of the pivot, contiguous, as the next matrix.
    """
    a = np.array(mats, dtype=np.int64)
    b, n = a.shape[:2]
    sign = np.ones(b, dtype=np.int64)
    prev = np.ones(b, dtype=np.int64)
    for _ in range(n - 1):
        p = (a[:, :, 0] != 0).argmax(axis=1)
        swap = np.flatnonzero(p)
        if swap.size:
            row = a[swap, 0].copy()
            a[swap, 0] = a[swap, p[swap]]
            a[swap, p[swap]] = row
            sign[swap] = -sign[swap]
        # With no pivot the first column is zero, so the pivot 0 clears the
        # block and the determinant ends as 0; its divisor from then on is 1.
        pivot = a[:, 0, 0].copy()
        block = a[:, 1:, 1:] * pivot[:, None, None]
        block -= a[:, 1:, :1] * a[:, :1, 1:]
        if (prev != 1).any():
            block //= prev[:, None, None]
        a = block
        prev = np.where(pivot == 0, 1, pivot)
    return sign * a[:, 0, 0]


def complement_dets(n: int, e: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masks, largest degrees, det(J - B)) over every e-edge complement B
    on n vertices, in lexicographic order of its pair indices.

    A mask packs B's pair indicators with pair (0, 1) most significant.
    """
    us, vs = np.triu_indices(n, 1)  # the pairs in lexicographic order
    npairs = len(us)
    count = math.comb(npairs, e)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(npairs), e)),
        dtype=np.int8,
        count=count * e,
    ).reshape(count, e)
    masks = np.left_shift(np.int64(1), npairs - 1 - combos).sum(axis=1, dtype=np.int64)
    tops = np.empty(count, dtype=np.int64)
    dets = np.empty(count, dtype=np.int64)
    for lo in range(0, count, CHUNK):
        chunk = combos[lo:lo + CHUNK]
        b = len(chunk)
        which = np.arange(b)[:, None]
        u, v = us[chunk], vs[chunk]
        mats = np.ones((b, n, n), dtype=np.int64)
        mats[which, u, v] = 0
        mats[which, v, u] = 0
        ends = (which * n + np.concatenate([u, v], axis=1)).ravel()
        degrees = np.bincount(ends, minlength=b * n).reshape(b, n)
        tops[lo:lo + b] = degrees.max(axis=1)
        dets[lo:lo + b] = bareiss_dets(mats)
    return masks, tops, dets


def winners(table, n: int, ell: int, e: int, prune: bool) -> np.ndarray:
    """The sorted masks of table = complement_dets(n, e) whose determinant
    is coprime to ell and, when prune applies (n even and t = e - n/2 >= 1),
    whose largest degree is at most t + 1."""
    masks, tops, dets = table
    keep = np.gcd(dets, ell) == 1
    t = e - n // 2
    if prune and n % 2 == 0 and t >= 1:
        keep &= tops <= t + 1
    return np.sort(masks[keep])
