"""The reference computation: the unit of the benchmark's cost metric.

The CPU speed of the shared virtual machines this benchmark runs on swings
by up to 1.8x, in spells from a fraction of a second to minutes, so that
two runs of the same code minutes apart can differ by 40% in wall time.
The benchmark therefore times a fixed computation right before and after
each operation and reports the operation's time in units of it: a slow
spell stretches both alike.

The computation mixes what the workloads do: interpreter-bound arithmetic
with scalar draws from a numpy generator (the fuzzers), small-array numpy
calls (the 1D stepping), sparse LU factorisations of a 1024-point operator
(the operator builds) and sparse products on a 128 x 128 grid (the 2D
elliptic solves). It uses numpy and scipy only, never chemostab, and must
not change: it defines the unit in which every run of the benchmark is
compared. It takes about 30 ms.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_N = 1024
_SECOND_DIFFERENCE = sp.diags([np.ones(_N - 1), -2.0 * np.ones(_N), np.ones(_N - 1)],
                              [-1, 0, 1], format="csc")
_IDENTITY = sp.identity(_N, format="csc")
_AXIS = sp.diags([np.ones(127), -2.0 * np.ones(128), np.ones(127)], [-1, 0, 1])
_LAPLACIAN_2D = sp.kronsum(_AXIS, _AXIS, format="csr")
_FIELD_2D = np.random.default_rng(1).random(128 * 128)
_CELLS = np.linspace(0.0, 1.0, 64)


def compute() -> float:
    """The reference computation; returns a checksum so none of it is skipped."""
    total = 0.0
    for k in range(8):
        lu = spla.splu(_IDENTITY * (1.0 + 0.01 * k) - 1e-3 * _SECOND_DIFFERENCE)
        total += float(lu.solve(np.ones(_N))[0])
    w = _FIELD_2D
    for _ in range(30):
        w = _LAPLACIAN_2D @ w * 1e-3 + _FIELD_2D
    total += float(w[0])
    for i in range(300):
        y = np.diff(np.pad(_CELLS, 1)) * 0.5 + _CELLS[i % 64]
        total += float(y.sum())
        for j in range(30):
            total += j * 0.5
    rng = np.random.default_rng(0)
    for _ in range(2500):
        x = float(10.0 ** rng.uniform(-1.0, 1.0))
        total += (x**1.5 - x) / (1.0 + x)
    for _ in range(30):
        a = _FIELD_2D.reshape(128, 128)
        b = 4.0 * a[1:-1, 1:-1] - a[:-2, 1:-1] - a[2:, 1:-1] - a[1:-1, :-2] - a[1:-1, 2:]
        total += float(np.dot(b.ravel(), b.ravel()))
    return total


def seconds() -> float:
    """The wall time of one reference computation."""
    t = perf_counter()
    compute()
    return perf_counter() - t
