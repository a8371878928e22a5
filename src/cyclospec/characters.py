"""Dirichlet characters mod k: enumeration, classification, Gauss sums.

The characters mod k are one exact table.  logs is an int matrix of shape
phi(k) x k: chi_i(j) = exp(2 pi i logs[i, j] / e) on the units j, where e
is the exponent of (Z/kZ)*, and logs[i, j] = -1 off the units.  roots holds
the e roots of unity exp(2 pi i a / e), exact at the quarter turns, and
then 0, so the complex table is values = roots[logs].  Order, parity,
realness, conductor and conjugates are integer operations on logs, so they
never depend on floating-point rounding.

Each DirichletCharacter holds its rows of logs and values as read-only
views.  Arrays have no truth value, so == between characters is identity.
The table has phi(k) k entries, capped at 2^22 (every k <= 2048 passes);
a larger modulus is refused with RangeError before anything is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import HypothesisError, RangeError

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "conductor",
    "gauss_sum",
]

# most entries phi(k) k of one character table, a memory and time bound:
# characters --modulus 2039, the largest prime under it, takes about 1 s and
# peaks at about 310 MB RSS (370 MB as json), most of it the formatted rows
_MAX_TABLE = 1 << 22


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _totient(n: int) -> int:
    out = n
    for p, _ in _factorize(n):
        out -= out // p
    return out


def _divisors(n: int):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _primitive_root(q: int, p: int) -> int:
    # q = p^e with p an odd prime
    phi = q - q // p
    prime_factors = [f for f, _ in _factorize(phi)]
    for g in range(2, q):
        if g % p == 0:
            continue
        if all(pow(g, phi // f, q) != 1 for f in prime_factors):
            return g
    raise RuntimeError(f"no primitive root mod {q}")


def _crt_lift(r: int, q: int, k: int) -> int:
    # x = r mod q, x = 1 mod k/q
    m = k // q
    if m == 1:
        return r % k
    t = ((1 - r) * pow(q, -1, m)) % m
    return (r + q * t) % k


def _unit_group_generators(k: int):
    """Cyclic decomposition of (Z/kZ)*: list of (generator mod k, order)."""
    gens = []
    for p, e in _factorize(k):
        q = p ** e
        if p == 2:
            if e == 2:
                gens.append((_crt_lift(3, q, k), 2))
            elif e >= 3:
                gens.append((_crt_lift(q - 1, q, k), 2))
                gens.append((_crt_lift(5, q, k), 2 ** (e - 2)))
        else:
            gens.append((_crt_lift(_primitive_root(q, p), q, k), q - q // p))
    return gens


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """One character mod k: row `index` of its modulus's table."""

    modulus: int
    exponent: int  # e, the common denominator of the logs
    logs: np.ndarray  # read-only int row: logs[j] in [0, e) on units, -1 elsewhere
    index: int
    values: np.ndarray = field(repr=False)  # read-only complex row, roots[logs]
    roots: np.ndarray = field(repr=False)  # exp(2 pi i a / e) for a = 0..e-1, then 0
    order: int
    is_even: bool
    is_real: bool
    is_principal: bool
    conductor: int
    is_primitive: bool
    conjugate_index: int

    def __call__(self, j: int) -> complex:
        return complex(self.values[j % self.modulus])

    def int_value(self, j: int) -> int:
        """chi(j) as an exact integer in {-1, 0, 1}; real characters only."""
        if not self.is_real:
            raise HypothesisError(f"character ({self.modulus},{self.index}) is not real")
        a = self.logs[j % self.modulus]
        return 0 if a < 0 else 1 if a == 0 else -1

    def conjugate(self) -> "DirichletCharacter":
        """The conjugate character; an involution, identity on real chi."""
        return enumerate_characters(self.modulus)[self.conjugate_index]


def _roots(e: int) -> np.ndarray:
    """exp(2 pi i a / e) for a = 0..e-1, exact at the quarter turns, then 0.

    Not _roots_of_unity(e): np.exp differs from math.cos/sin in the last bits,
    and the printed character values keep theirs.
    """
    tau = 2.0 * math.pi / e
    quarter = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
    return np.array([quarter[4 * a // e] if (4 * a) % e == 0
                     else complex(math.cos(tau * a), math.sin(tau * a))
                     for a in range(e)] + [0.0j])


@lru_cache(maxsize=None)
def enumerate_characters(k: int):
    """All phi(k) characters mod k in a deterministic order.

    Sorted lexicographically by the logs on the units, so the principal
    character is index 0.
    """
    if k < 1:
        raise HypothesisError("modulus must be a positive integer")
    # phi(k) k >= k, so a modulus past the cap is refused before it is factorised
    if k > _MAX_TABLE or _totient(k) * k > _MAX_TABLE:
        raise RangeError(f"the character table mod {k} has phi(k) k > {_MAX_TABLE} entries")
    gens = _unit_group_generators(k)
    orders = np.array([o for _, o in gens], dtype=np.int64)
    e = math.lcm(*orders.tolist())
    phi = math.prod(orders.tolist())
    # row p of x holds the exponents of unit p = prod g_i^x[p, i] in product
    # order, and character p maps g_i to exp(2 pi i x[p, i] / o_i)
    x = np.indices(orders, dtype=np.int64).reshape(len(gens), phi).T
    units = np.ones(1, dtype=np.int64) % k
    for g, o in gens:
        powers = np.array([pow(g, i, k) for i in range(o)], dtype=np.int64)
        units = (units[:, None] * powers % k).ravel()
    logs = np.full((phi, k), -1, dtype=np.int64)
    logs[:, units] = (x * (e // orders)) @ x.T % e
    perm = np.lexsort(logs.T[::-1])
    logs = logs[perm]
    # the conjugate of character p has exponents -x[p] mod o, in product order
    strides = np.cumprod(orders[::-1])[::-1] // orders
    rank = np.empty(phi, dtype=np.int64)
    rank[perm] = np.arange(phi)
    conj = rank[(-x[perm] % orders) @ strides]

    order = e // np.gcd.reduce(logs, axis=1, initial=e, where=logs > 0)
    cond = np.full(phi, k)
    for f in _divisors(k)[-2::-1]:
        # chi is induced mod f iff chi(a) = 1 for every unit a = 1 (mod f)
        cond[(logs[:, 1 % f::f] <= 0).all(axis=1)] = f
    roots = _roots(e)
    values = roots[logs]
    for a in (logs, values, roots):
        a.flags.writeable = False
    return tuple(
        DirichletCharacter(
            modulus=k, exponent=e, logs=logs[i], index=i, values=values[i], roots=roots,
            order=o, is_even=even, is_real=o <= 2, is_principal=o == 1,
            conductor=c, is_primitive=c == k, conjugate_index=cj)
        for i, (o, even, c, cj) in enumerate(zip(
            order.tolist(), (logs[:, (k - 1) % k] == 0).tolist(), cond.tolist(), conj.tolist())))


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | k such that chi is induced by a character mod f."""
    return chi.conductor


@lru_cache(maxsize=None)
def _roots_of_unity(k: int):
    return np.exp(2j * np.pi * np.arange(k) / k)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """G(chi) = sum over l mod k of chi(l) e^{2 pi i l / k}."""
    return complex(np.dot(chi.values, _roots_of_unity(chi.modulus)))
