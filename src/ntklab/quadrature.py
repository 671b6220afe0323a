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

normal_pair_expectation has two paths over an array of correlations.

  direct        the half-grid rule at every entry, in blocks of PAIR_CHUNK
                correlations; an entry equals the result for that
                correlation alone, bit for bit.
  interpolated  a Chebyshev interpolant in c of the half-grid rule, fitted
                at nested Chebyshev-Lobatto nodes cos(pi k / n) (17, 33, 65,
                129, 257 of them, each set containing the last), doubling n
                until the last CHEB_TAIL Chebyshev coefficients are within
                CHEB_TOL of the largest, and evaluated at every entry.  It
                agrees with the direct path to ~1e-14 of the scale
                sqrt(E f(u1)^2 E f(u2)^2).

The interpolated path uses the parity of the rule in c.  Reflecting the
rows (x_i -> -x_i) turns the rule at c into the rule at -c with f(u1)
replaced by f(-u1) = +-f(u1), so the rule is odd in c for an odd f and even
for an even f.  The fit runs the rule only at the
nodes with c >= 0 (k <= n/2, 129 calls up to n = 256) and gives the others
the exact +-mirror; the coefficients of the other parity are then rounding
noise and are dropped.  With T_2j(c) = T_j(x) and T_2j+1(c) = c V_j(x) in
x = 2 c^2 - 1 (V_j the third-kind polynomials), the interpolant is a series
of half the degree in x, summed by a Clenshaw loop over preallocated
buffers of the array's size.  x rounds the same for c and -c, so the
interpolant is exactly even or odd.

A fit depends only on (f, q_s, q_r, n_nodes), not on the correlations, so
it is kept across calls.  A call of more than 34 correlations, all in
[-1, 1], looks its fit up by that key.  On a miss it fits only up to the
largest degree D with 2 (D + 1) < its size, where fitting saves work, as a
fit for that call alone would; the fit is kept if it converged, or if it
ran to the last degree (then as None: not converged at 257 nodes, or
coefficients that are not finite, as from a NaN variance).  A fit that
stopped short is dropped, so a larger array refits.  The last FIT_CACHE_SIZE
fits are kept, each as its coefficients of one parity, its parity and its
degree D, never the rule and its block buffer.  The key holds the integrand
object itself, so a caller that builds a new f per call never hits;
meanfield passes one object per activation and function.  A call takes the
interpolated path where its fit is not None and it has more than 2 (D + 1)
entries; scalars, smaller arrays and all other calls take the direct path.
A result therefore does not depend on what the cache holds, bit for bit.

The fit is smooth in c: the rule's inner sum over the nodes x_j is even in
s = sqrt(1 - c^2), because the nodes are mirror-symmetric, so it is a
function of s^2 = 1 - c^2, and for an analytic f (tanh, tanh') the rule's
value is analytic in c on [-1, 1], endpoints included.  Its Chebyshev
coefficients then decay geometrically (Trefethen, Approximation Theory and
Approximation Practice), more slowly for larger q: at the 64-node rule,
tanh and tanh' converge by n = 256 up to q = 16.

The rule fills the u2 half-grid of each block of correlations into one
buffer allocated per call and hands that buffer to f, which may overwrite
and return it; callers pass in-place integrands such as
lambda u: phi(kind, u, out=u), so the rule allocates no grid-sized
temporary per block.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

DEFAULT_NODES = 64

# Correlations per block of the two-dimensional rule; each call holds one
# (PAIR_CHUNK, ceil(n/2), n) block buffer, 0.26 MB at the default 64 nodes.
PAIR_CHUNK = 16

# Polynomial degrees of the nested Chebyshev-Lobatto fits in c, and their
# stopping rule: the last CHEB_TAIL coefficients within CHEB_TOL of the largest.
CHEB_DEGREES = (16, 32, 64, 128, 256)
CHEB_TAIL = 4
CHEB_TOL = 1e-14

# Fits kept by _FITS, the least recently used dropped first; an entry holds
# at most 129 coefficients, so a full cache is ~0.4 MB.
FIT_CACHE_SIZE = 256


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

    A large array of correlations in [-1, 1] goes through a Chebyshev
    interpolant of the rule in c, fitted once per (f, q_s, q_r, n_nodes)
    and kept for later calls, which agrees with the direct rule to
    ~1e-14 of sqrt(E f(u1)^2 E f(u2)^2); a scalar or a smaller array is
    evaluated directly, each entry equal to the result for that correlation
    alone (see the module docstring).

    f may overwrite its argument (the per-call block buffer) and return it;
    it must return an array of its argument's shape.  Raises ValueError
    unless f(sqrt(q_s) x) is exactly odd or exactly even on the nodes.
    """
    c = np.asarray(c, dtype=float)
    flat = c.reshape(-1)
    fit = rule = None
    # np.all is also false for a NaN correlation
    if flat.size > 2 * (CHEB_DEGREES[0] + 1) and np.all(np.abs(flat) <= 1.0):
        # as numpy scalars, so that 0-d array variances are hashable keys
        fit, rule = _FITS.fit(f, np.asarray(q_s)[()], np.asarray(q_r)[()], n_nodes, flat.size)
    if fit is not None and flat.size > 2 * (fit[2] + 1):
        coeffs, odd, _ = fit
        out = _evaluate_in_x(coeffs, flat, odd)
    else:
        if rule is None:
            rule = _half_grid_rule(f, q_s, q_r, n_nodes, flat.size)
        out = rule(flat)
    return out.reshape(c.shape)[()]


class _FitCache:
    """The last maxsize kept Chebyshev fits of the half-grid rule, keyed by
    (f, q_s, q_r, n_nodes), the least recently used dropped first; safe to
    call from concurrent threads (two of them may make the same fit).
    hits and misses count the lookups since the last clear().
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = self.misses = 0
        self._fits = OrderedDict()
        self._lock = threading.Lock()

    def fit(self, f, q_s, q_r, n_nodes: int, size: int):
        """(fit, rule).  fit is (coeffs, odd, degree) of the fit for (f, q_s,
        q_r, n_nodes), or None where it did not converge or its coefficients
        are not finite.  On a miss the fit stops at the largest degree D that
        an array of size correlations can use, 2 (D + 1) < size (size > 34),
        and rule is the direct rule it ran, for calls of up to size
        correlations; on a hit rule is None.
        """
        # typed, so that a float32 variance, whose square root rounds
        # differently, does not share the fit of the equal float64
        key = (f, type(q_s), q_s, type(q_r), q_r, n_nodes)
        with self._lock:
            if key in self._fits:
                self.hits += 1
                self._fits.move_to_end(key)
                return self._fits[key], None
            self.misses += 1
        max_degree = max(d for d in CHEB_DEGREES if size > 2 * (d + 1))
        rule = _half_grid_rule(f, q_s, q_r, n_nodes, size)
        fit = _chebyshev_fit(rule, max_degree)
        if fit is not None:
            coeffs, degree = fit
            coeffs.flags.writeable = False  # shared by every call that hits the entry
            fit = coeffs, rule.odd, degree
        if fit is not None or max_degree == CHEB_DEGREES[-1]:
            with self._lock:
                self._fits[key] = fit
                self._fits.move_to_end(key)
                while len(self._fits) > self.maxsize:
                    self._fits.popitem(last=False)
        return fit, rule

    def clear(self):
        with self._lock:
            self._fits.clear()
            self.hits = self.misses = 0

    def __len__(self):
        with self._lock:
            return len(self._fits)


_FITS = _FitCache(FIT_CACHE_SIZE)


def _half_grid_rule(f, q_s: float, q_r: float, n_nodes: int, size: int):
    """The direct half-grid rule for (f, q_s, q_r): a function of a 1-D array
    of correlations returning one expectation per entry, with one block
    buffer for calls of up to size correlations at a time.

    The half-grid sum is contracted as (f(u2) @ w) . (fold * w * f(u1)),
    over the rows i < n/2 (and the middle row of odd n), with fold 2 for a
    row standing in for its mirror and 1 for the middle row.  f(u1) is
    evaluated once and f(u2) in blocks of PAIR_CHUNK correlations; an entry
    equals the result for that correlation alone.

    The function's attribute odd is true for an odd f: the rule is then odd
    in c, and even for an even f, to rounding (at -c a row's terms are
    summed in the other order).
    """
    x, w = gauss_hermite_rule(n_nodes)
    f_u1 = f(np.sqrt(q_s) * x)
    mirrored = f_u1[::-1]
    # NaN (from a NaN variance) passes, to come out as a NaN expectation
    odd = not np.array_equal(mirrored, f_u1, equal_nan=True)
    if odd and not np.array_equal(mirrored, -f_u1, equal_nan=True):
        raise ValueError("normal_pair_expectation needs an odd or an even integrand: "
                         "f(sqrt(q_s) x) is neither on the Gauss-Hermite nodes")
    rows = (n_nodes + 1) // 2
    fold = np.full(rows, 2.0)
    fold[n_nodes // 2:] = 1.0  # the middle row of odd n is its own mirror
    weighted_u1 = fold * (w * f_u1)[:rows]
    x_rows = x[:rows, None]
    scale_r = np.sqrt(q_r)
    buf = np.empty((min(PAIR_CHUNK, size), rows, n_nodes))

    def rule(c: np.ndarray) -> np.ndarray:
        out = np.empty(c.shape)
        for start in range(0, c.size, PAIR_CHUNK):
            ck = c[start:start + PAIR_CHUNK, None, None]
            sk = np.sqrt(np.maximum(1.0 - ck * ck, 0.0))
            u2 = buf[:len(ck)]
            # (scale_r ck) x_i + (scale_r sk) x_j: negating x_i and x_j negates u2 exactly
            np.add((scale_r * ck) * x_rows, (scale_r * sk) * x, out=u2)
            # a row-wise sum, not a matrix-vector product, so that each entry's
            # rounding does not depend on the block it falls in
            out[start:start + PAIR_CHUNK] = ((f(u2) @ w) * weighted_u1).sum(axis=-1)
        return out

    rule.odd = odd
    return rule


def _chebyshev_fit(rule, max_degree: int = CHEB_DEGREES[-1]) -> tuple[np.ndarray, int] | None:
    """(coeffs, degree): the Chebyshev coefficients on [-1, 1] of rule,
    sampled at nested Chebyshev-Lobatto nodes cos(pi k / n), n = degree = 16,
    32, ..., max_degree, at the first degree whose coefficient tail has
    converged; None where none converges or the coefficients are not finite.

    The rule is run only at the nodes k <= n/2 (c >= 0); a node k > n/2
    takes the value at node n - k, negated for an odd rule.  Of the
    coefficients, those of the rule's parity are returned, as a copy: a_0,
    a_2, ... for an even rule, a_1, a_3, ... for an odd one (see
    _evaluate_in_x).
    """
    sign = -1.0 if rule.odd else 1.0
    half = None
    for degree in CHEB_DEGREES:
        if degree > max_degree:
            break
        nodes = np.cos(np.pi / degree * np.arange(degree // 2 + 1))
        if half is None:
            half = rule(nodes)
        else:
            # the even-indexed nodes are the previous degree's, bit for bit
            merged = np.empty(degree // 2 + 1)
            merged[::2] = half
            merged[1::2] = rule(nodes[1::2])
            half = merged
        values = np.concatenate([half, sign * half[-2::-1]])
        # the type-I discrete cosine transform of the values, by an FFT of
        # their even extension
        coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / degree
        coeffs[[0, degree]] /= 2.0
        if not np.isfinite(coeffs).all():
            return None
        if np.abs(coeffs[-CHEB_TAIL:]).max() <= CHEB_TOL * np.abs(coeffs).max():
            return coeffs[int(rule.odd)::2].copy(), degree
    return None


def _evaluate_in_x(coeffs: np.ndarray, c: np.ndarray, odd: bool) -> np.ndarray:
    """The Chebyshev series of one parity at every entry of c, summed in
    x = 2 c^2 - 1 with T_2j(c) = T_j(x) and T_2j+1(c) = c V_j(x): for an even
    series sum_j coeffs[j] T_j(x), for an odd one c sum_j coeffs[j] V_j(x),
    V_j being the third-kind polynomials (V_0 = 1, V_1 = 2x - 1, and T's
    recurrence).  A Clenshaw loop over three buffers of c's size and the
    output; x rounds the same for c and -c, so the result is exactly even or
    odd in c.
    """
    two_x = np.multiply(c, c)
    two_x *= 4.0
    two_x -= 2.0
    b1 = np.zeros_like(c)  # b_{k+1}
    b2 = np.zeros_like(c)  # b_{k+2}, then b_k
    out = np.empty_like(c)
    # b_k = a_k + 2x b_{k+1} - b_{k+2}, for k = N, ..., 0
    for a in coeffs[::-1]:
        np.multiply(two_x, b1, out=out)
        np.subtract(out, b2, out=b2)
        b2 += a
        b1, b2 = b2, b1
    # b1 holds b_0 and b2 holds b_1; sum = b_0 - x b_1 for T, b_0 - b_1 for V
    if odd:
        np.subtract(b1, b2, out=out)
        out *= c
    else:
        two_x *= 0.5
        np.multiply(two_x, b2, out=out)
        np.subtract(b1, out, out=out)
    return out
