"""Dirichlet characters mod k: enumeration, classification, Gauss sums.

Characters are stored exactly: chi(j) = exp(2*pi*i*logs[j]/exponent) with
integer logs and a common denominator (the exponent of the unit group), so
parity, realness and orthogonality never depend on floating-point rounding.
Floating value tables are precomputed once per character.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import HypothesisError

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "conductor",
    "gauss_sum",
]


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


def _conductor_of(k: int, logs) -> int:
    # chi is induced mod f  iff  chi(a) = 1 for every unit a = 1 (mod f)
    for f in _divisors(k):
        ok = True
        for a in range(1, k + 1, f):
            if gcd(a, k) != 1:
                continue
            if logs[a % k] != 0:
                ok = False
                break
        if ok:
            return f
    return k


@dataclass(frozen=True)
class DirichletCharacter:
    """A fully tabulated Dirichlet character mod k."""

    modulus: int
    exponent: int  # common denominator of the stored angle numerators
    logs: tuple  # logs[j] in [0, exponent) for units, None otherwise
    index: int
    values: tuple = field(repr=False)
    order: int
    is_even: bool
    is_real: bool
    is_principal: bool
    conductor: int
    is_primitive: bool

    def __call__(self, j: int) -> complex:
        return self.values[j % self.modulus]

    def int_value(self, j: int) -> int:
        """chi(j) as an exact integer in {-1, 0, 1}; real characters only."""
        if not self.is_real:
            raise HypothesisError(f"character ({self.modulus},{self.index}) is not real")
        a = self.logs[j % self.modulus]
        if a is None:
            return 0
        return 1 if a == 0 else -1

    def conjugate(self) -> "DirichletCharacter":
        """The conjugate character; an involution, identity on real chi."""
        if self.is_real:
            return self
        target = tuple(None if a is None else (-a) % self.exponent for a in self.logs)
        for chi in enumerate_characters(self.modulus):
            if chi.logs == target:
                return chi
        raise RuntimeError("conjugate character not found")  # pragma: no cover


def _build_character(k: int, e: int, logs, index: int) -> DirichletCharacter:
    unit_logs = [a for a in logs if a is not None]
    g = e
    for a in unit_logs:
        g = gcd(g, a)
    order = e // g if g else 1
    tau = 2.0 * math.pi / e
    quarter = {0: 1.0 + 0.0j, 1: 1.0j, 2: -1.0 + 0.0j, 3: -1.0j}

    def _value(a):
        if a is None:
            return 0.0 + 0.0j
        if (4 * a) % e == 0:
            return quarter[4 * a // e]
        return complex(math.cos(tau * a), math.sin(tau * a))

    values = tuple(_value(a) for a in logs)
    cond = _conductor_of(k, logs)
    return DirichletCharacter(
        modulus=k,
        exponent=e,
        logs=tuple(logs),
        index=index,
        values=values,
        order=order,
        is_even=(logs[(k - 1) % k] == 0),
        is_real=all((2 * a) % e == 0 for a in unit_logs),
        is_principal=all(a == 0 for a in unit_logs),
        conductor=cond,
        is_primitive=(cond == k),
    )


@lru_cache(maxsize=None)
def enumerate_characters(k: int):
    """All phi(k) characters mod k in a deterministic order.

    Sorted lexicographically by the exact value table (angle numerators over
    the common denominator), so the principal character is index 0.
    """
    if k < 1:
        raise HypothesisError("modulus must be a positive integer")
    if k == 1:
        return (_build_character(1, 1, [0], 0),)

    gens = _unit_group_generators(k)
    orders = [o for _, o in gens]
    units = [j for j in range(k) if gcd(j, k) == 1]
    phi = len(units)

    if not gens:  # k = 2
        return (_build_character(2, 1, [None, 0], 0),)

    e = math.lcm(*orders)
    weights = [e // o for o in orders]

    # discrete logs: walk the product of cyclic factors once
    exps_of = {}
    pow_tables = []
    for g, o in gens:
        tab = [1] * o
        for i in range(1, o):
            tab[i] = (tab[i - 1] * g) % k
        pow_tables.append(tab)
    for exps in itertools.product(*[range(o) for o in orders]):
        v = 1
        for tab, x in zip(pow_tables, exps):
            v = (v * tab[x]) % k
        exps_of[v] = exps
    assert len(exps_of) == phi

    unit_index = {j: i for i, j in enumerate(units)}
    x_mat = np.array([exps_of[j] for j in units], dtype=np.int64)
    w_vec = np.array(weights, dtype=np.int64)

    tables = []
    for coeffs in itertools.product(*[range(o) for o in orders]):
        a = (x_mat @ (np.array(coeffs, dtype=np.int64) * w_vec)) % e
        tables.append(tuple(int(v) for v in a))
    tables.sort()

    out = []
    for idx, table in enumerate(tables):
        logs = [None] * k
        for j, a in zip(units, table):
            logs[j] = a
        out.append(_build_character(k, e, logs, idx))
    return tuple(out)


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | k such that chi is induced by a character mod f."""
    return chi.conductor


@lru_cache(maxsize=None)
def _roots_of_unity(k: int):
    return np.exp(2j * np.pi * np.arange(k) / k)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """G(chi) = sum over l mod k of chi(l) e^{2 pi i l / k}."""
    k = chi.modulus
    return complex(np.dot(np.asarray(chi.values), _roots_of_unity(k)))
