"""Gauss-Hermite quadrature for expectations under the standard normal measure.

Rules are expressed for integrals of the form E[f(z)] with z ~ N(0, 1),
i.e. the probabilists' weight exp(-z^2/2)/sqrt(2*pi).  The two-dimensional
rule integrates over a correlated Gaussian pair built from two independent
standard normals:

    u1 = sqrt(q_s) * z1,   u2 = sqrt(q_r) * (c * z1 + sqrt(1 - c^2) * z2).

Both rules are array-valued: normal_expectation takes an array of scales and
normal_pair_expectation an array of correlations, returning one expectation
per entry (a NumPy scalar for scalar input).

normal_pair_expectation fills the u2 grid of each block of correlations
into one buffer allocated per call and hands that buffer to f, which may
overwrite and return it; callers pass in-place integrands such as
lambda u: phi(kind, u, out=u), so the rule allocates no grid-sized
temporary per block.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_NODES = 64

# Correlations per block of the two-dimensional rule; each call holds one
# (PAIR_CHUNK, n, n) block buffer, 0.5 MB at the default 64 nodes.
PAIR_CHUNK = 16


@lru_cache(maxsize=16)
def gauss_hermite_rule(n_nodes: int = DEFAULT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights normalized so that sum(w * f(x)) ~ E[f(Z)], Z ~ N(0,1)."""
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return x, w / np.sqrt(2.0 * np.pi)


def normal_expectation(f, scale=1.0, n_nodes: int = DEFAULT_NODES):
    """E[f(scale * Z)] for Z ~ N(0, 1), elementwise over an array of scales."""
    x, w = gauss_hermite_rule(n_nodes)
    return f(np.multiply.outer(scale, x)) @ w


def normal_pair_expectation(f, q_s: float, q_r: float, c,
                            n_nodes: int = DEFAULT_NODES):
    """E[f(u1) * f(u2)] over the correlated pair with variances q_s, q_r
    (scalars) and correlation c (a scalar or an array, one expectation per
    entry).

    The grid sum is contracted as (f(u2) @ w) . (w * f(u1)), so f(u1) is
    evaluated once and f(u2) in blocks of PAIR_CHUNK correlations; an entry
    of an array c equals the result for that correlation alone.

    f may overwrite its argument (the per-call block buffer) and return it;
    it must return an array of its argument's shape.
    """
    x, w = gauss_hermite_rule(n_nodes)
    c = np.asarray(c, dtype=float)
    flat = c.reshape(-1)
    weighted_u1 = w * f(np.sqrt(q_s) * x)
    scale_r = np.sqrt(q_r)
    out = np.empty(flat.shape)
    buf = np.empty((min(PAIR_CHUNK, flat.size), n_nodes, n_nodes))
    for start in range(0, flat.size, PAIR_CHUNK):
        ck = flat[start:start + PAIR_CHUNK, None, None]
        sk = np.sqrt(np.maximum(1.0 - ck * ck, 0.0))
        u2 = buf[:len(ck)]
        # scale_r * (ck x_i + sk x_j), the same operations in the same order
        np.add(ck * x[:, None], sk * x[None, :], out=u2)
        u2 *= scale_r
        # a row-wise sum, not a matrix-vector product, so that each entry's
        # rounding does not depend on the block it falls in
        out[start:start + PAIR_CHUNK] = ((f(u2) @ w) * weighted_u1).sum(axis=-1)
    return out.reshape(c.shape)[()]
