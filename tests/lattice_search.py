"""Where ``riscov.montecarlo.LATTICE`` comes from: a component-by-component search.

A rank-1 lattice of ``N = 2**m`` points with generating vector ``z`` is the
point set ``{k * z / N mod 1 : k < N}``. Its figure of merit here is the
``P_2`` of Sloan & Joe (*Lattice Methods for Multiple Integration*, 1994),
the squared worst-case error in the Korobov space of smoothness one with
unit product weights:

    e(z)**2 = -1 + (1/N) * sum_k prod_j (1 + omega(k * z_j / N mod 1)),

with ``omega(x) = 2 * pi**2 * B2(x)`` and ``B2(x) = x**2 - x + 1/6`` the
Bernoulli polynomial, which is symmetric about 1/2. ``montecarlo`` applies
the tent transform after each shift, and a tent-transformed rule's
worst-case error in the half-period cosine space is the plain rule's in the
Korobov space (Cools, Kuo, Nuyens & Suryanarayana, J. Complexity 2016), so
this is the criterion for the rule as used.

The search fixes one component at a time, after ``z_1 = 1``, each the odd
candidate of least error given the components before it (Sloan & Reztsov
2002), and evaluates every candidate at once by FFT (Nuyens & Cools, "Fast
component-by-component construction of rank-1 lattice rules with a
non-prime number of points", J. Complexity 2006): the odd residues modulo
``2**n`` are ``+-5**b`` for ``b < 2**(n - 2)``, so indices ``k = 2**l * u``
with ``u`` odd form one cyclic group per ``l``, and the sum over each is a
cyclic correlation.

``montecarlo`` uses the points in radical-inverse order, so each prefix of
``2**m`` points is the lattice of ``2**m`` points with the same ``z``. The
vector is embedded (Cools, Kuo & Nuyens, "Constructing embedded lattice
rules for multivariate integration", SIAM J. Sci. Comput. 2006): a
candidate scores the worst, over the sizes ``2**m_min`` to ``2**m_max``, of
its error over the least error of that size's candidates.
"""
from __future__ import annotations

import math

import numpy as np


def omega(x):
    return 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)


def _powers_of_five(n: int) -> np.ndarray:
    """``5**b mod 2**n`` for ``b < 2**(n - 2)``: the odd residues up to sign."""
    values = np.empty(max(1 << (n - 2), 1), dtype=np.int64)
    values[0] = 1
    for b in range(1, len(values)):
        values[b] = values[b - 1] * 5 % (1 << n)
    return values


class _Size:
    """The running products ``prod_j (1 + omega(k * z_j / N))`` of one size ``N = 2**m``, over every ``k``."""

    def __init__(self, m: int):
        self.m = m
        self.products = np.ones(1 << m)

    def squared_errors(self, m_max: int) -> np.ndarray:
        """``e(z)**2`` with one more component ``z = 5**a mod 2**m_max``, for every ``a < 2**(m_max - 2)``."""
        m, p = self.m, self.products
        n_points = 1 << m
        # k = 0 and k = N/2 (u = 1 modulo 2) are their own negatives
        base = p[0] * omega(0.0) + p[n_points >> 1] * omega(0.5)
        correlation = np.zeros(1 << (m_max - 2))
        for n in range(2, m + 1):  # k = 2**(m - n) * u, u odd modulo 2**n
            fives = _powers_of_five(n)
            p_n = p[(fives << (m - n)) % n_points]
            w_n = omega(fives / float(1 << n))
            # sum_b p(5**b) * omega(5**(a + b) / 2**n), twice for the signs of u
            folded = np.fft.irfft(np.conj(np.fft.rfft(p_n)) * np.fft.rfft(w_n), len(fives))
            correlation += 2.0 * np.resize(folded, len(correlation))
        return (p.sum() + base + correlation) / n_points - 1.0

    def add(self, z: int) -> None:
        k = np.arange(1 << self.m)
        self.products *= 1.0 + omega((k * z % (1 << self.m)) / float(1 << self.m))


def search(dimension: int, m_min: int, m_max: int) -> tuple[int, ...]:
    """The embedded generating vector for the sizes ``2**m_min`` to ``2**m_max``, least candidate on ties."""
    sizes = [_Size(m) for m in range(m_min, m_max + 1)]
    fives = _powers_of_five(m_max)
    # a candidate and its negative give the same error; keep the smaller
    candidates = np.minimum(fives, (1 << m_max) - fives)
    vector = [1]  # every odd first component gives the same points
    for s in sizes:
        s.add(1)
    for _ in range(dimension - 1):
        errors = [s.squared_errors(m_max) for s in sizes]
        scores = np.max([e / e.min() for e in errors], axis=0)
        best = np.flatnonzero(scores == scores.min())
        z = int(candidates[best[np.argmin(candidates[best])]])
        vector.append(z)
        for s in sizes:
            s.add(z)
    return tuple(vector)


def plain_search(dimension: int, m: int) -> tuple[int, ...]:
    """The ordinary (not embedded) component-by-component vector for ``2**m`` points."""
    return search(dimension, m, m)


def squared_error(z, m: int) -> float:
    """``e(z)**2`` for ``2**m`` points, summed directly over every point."""
    k = np.arange(1 << m)[:, None]
    points = (k * np.asarray(z) % (1 << m)) / float(1 << m)
    return float(np.mean(np.prod(1.0 + omega(points), axis=1)) - 1.0)
