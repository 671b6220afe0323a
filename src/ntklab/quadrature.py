"""Gauss-Hermite quadrature for expectations under the standard normal measure.

Rules are expressed for integrals of the form E[f(z)] with z ~ N(0, 1),
i.e. the probabilists' weight exp(-z^2/2)/sqrt(2*pi).  The two-dimensional
rule integrates over a correlated Gaussian pair built from two independent
standard normals:

    u1 = sqrt(q_s) * z1,   u2 = sqrt(q_r) * (c * z1 + sqrt(1 - c^2) * z2).

Both rules are array-valued: normal_expectation takes an array of scales and
normal_pair_expectation an array of correlations, returning one expectation
per entry (a NumPy scalar for scalar input).

The two-dimensional rule sums over half the grid.  The nodes and weights
are exactly mirror-symmetric, x[n-1-i] = -x[i] and w[n-1-i] = w[i]
(gauss_hermite_rule checks this), so the grid point (n-1-i, n-1-j) has
u1 and u2 negated bit for bit.  For an odd or an even f the product
f(u1) f(u2) is the same at both points, and the rule evaluates only the
rows i < n/2, each counted twice; for odd n the middle row (x = 0) is its
own mirror and is counted once.  For any other f the fold is wrong, so
normal_pair_expectation raises ValueError unless f(sqrt(q_s) x) is exactly
odd or exactly even on the nodes.

normal_pair_expectation fills the u2 half-grid of each block of
correlations into one buffer allocated per call and hands that buffer to
f, which may overwrite and return it; callers pass in-place integrands such
as lambda u: phi(kind, u, out=u), so the rule allocates no grid-sized
temporary per block.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_NODES = 64

# Correlations per block of the two-dimensional rule; each call holds one
# (PAIR_CHUNK, ceil(n/2), n) block buffer, 0.26 MB at the default 64 nodes.
PAIR_CHUNK = 16


@lru_cache(maxsize=16)
def gauss_hermite_rule(n_nodes: int = DEFAULT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights normalized so that sum(w * f(x)) ~ E[f(Z)], Z ~ N(0,1)."""
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * np.pi)
    # the half-grid pair rule relies on exact mirror symmetry
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w), \
        f"{n_nodes}-node Gauss-Hermite rule is not mirror-symmetric"
    return x, w


def normal_expectation(f, scale=1.0, n_nodes: int = DEFAULT_NODES):
    """E[f(scale * Z)] for Z ~ N(0, 1), elementwise over an array of scales."""
    x, w = gauss_hermite_rule(n_nodes)
    return f(np.multiply.outer(scale, x)) @ w


def normal_pair_expectation(f, q_s: float, q_r: float, c,
                            n_nodes: int = DEFAULT_NODES):
    """E[f(u1) * f(u2)] over the correlated pair with variances q_s, q_r
    (scalars) and correlation c (a scalar or an array, one expectation per
    entry), for an odd or an even f.

    The half-grid sum is contracted as (f(u2) @ w) . (fold * w * f(u1)),
    over the rows i < n/2 (and the middle row of odd n), with fold 2 for a
    row standing in for its mirror and 1 for the middle row.  f(u1) is
    evaluated once and f(u2) in blocks of PAIR_CHUNK correlations; an entry
    of an array c equals the result for that correlation alone.

    f may overwrite its argument (the per-call block buffer) and return it;
    it must return an array of its argument's shape.  Raises ValueError
    unless f(sqrt(q_s) x) is exactly odd or exactly even on the nodes.
    """
    x, w = gauss_hermite_rule(n_nodes)
    c = np.asarray(c, dtype=float)
    flat = c.reshape(-1)
    f_u1 = f(np.sqrt(q_s) * x)
    mirrored = f_u1[::-1]
    # NaN (from a NaN variance) passes, to come out as a NaN expectation
    if not (np.array_equal(mirrored, f_u1, equal_nan=True)
            or np.array_equal(mirrored, -f_u1, equal_nan=True)):
        raise ValueError("normal_pair_expectation needs an odd or an even integrand: "
                         "f(sqrt(q_s) x) is neither on the Gauss-Hermite nodes")
    rows = (n_nodes + 1) // 2
    fold = np.full(rows, 2.0)
    fold[n_nodes // 2:] = 1.0  # the middle row of odd n is its own mirror
    weighted_u1 = fold * (w * f_u1)[:rows]
    x_rows = x[:rows, None]
    scale_r = np.sqrt(q_r)
    out = np.empty(flat.shape)
    buf = np.empty((min(PAIR_CHUNK, flat.size), rows, n_nodes))
    for start in range(0, flat.size, PAIR_CHUNK):
        ck = flat[start:start + PAIR_CHUNK, None, None]
        sk = np.sqrt(np.maximum(1.0 - ck * ck, 0.0))
        u2 = buf[:len(ck)]
        # (scale_r ck) x_i + (scale_r sk) x_j: negating x_i and x_j negates u2 exactly
        np.add((scale_r * ck) * x_rows, (scale_r * sk) * x, out=u2)
        # a row-wise sum, not a matrix-vector product, so that each entry's
        # rounding does not depend on the block it falls in
        out[start:start + PAIR_CHUNK] = ((f(u2) @ w) * weighted_u1).sum(axis=-1)
    return out.reshape(c.shape)[()]
