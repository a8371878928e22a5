"""Dirichlet characters computed without the library.

Used by the workload generators (to pick character indices) and by the
oracles (to check what the CLI prints).  Needs numpy only, so the workload
process imports nothing the program itself does not.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Elementary number theory
# ---------------------------------------------------------------------------

def factorize(n: int):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def totient(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def is_fundamental_discriminant(d: int) -> bool:
    """Positive fundamental discriminants: exactly the moduli with a real,
    even, primitive character (the Kronecker symbol (d/.))."""
    def squarefree(n):
        return all(e == 1 for _, e in factorize(n))
    if d <= 1:
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1, by quadratic reciprocity."""
    if math.gcd(d, n) != 1:
        return 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            result = -result
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Character tables, ordered as the CLI documents: lexicographically by the
# integer angle numerators over the units, common denominator lambda(k).
# ---------------------------------------------------------------------------

def _primitive_root(q: int, p: int) -> int:
    phi = q - q // p
    primes = [f for f, _ in factorize(phi)]
    for g in range(2, q):
        if g % p and all(pow(g, phi // f, q) != 1 for f in primes):
            return g
    raise ValueError(q)


def _local_logs(q: int, p: int, e: int):
    """Per prime power: list of (order, index vector over residues mod q)."""
    if p != 2:
        g = _primitive_root(q, p)
        phi = q - q // p
        ind = [-1] * q
        x = 1
        for i in range(phi):
            ind[x] = i
            x = x * g % q
        return [(phi, ind)]
    if e == 1:
        return []
    if e == 2:
        return [(2, [-1, 0, -1, 1])]
    sign = [-1] * q
    five = [-1] * q
    x = 1
    for v in range(q // 4):
        sign[x], five[x] = 0, v
        sign[q - x], five[q - x] = 1, v
        x = x * 5 % q
    return [(2, sign), (q // 4, five)]


@lru_cache(maxsize=64)
def character_logs(k: int):
    """(exponent, units, logs) with logs an int array [phi(k), len(units)]."""
    units = np.array([j for j in range(k) if math.gcd(j, k) == 1], dtype=np.int64)
    if k <= 2:
        return 1, units, np.zeros((1, len(units)), dtype=np.int64)
    factors = []
    for p, e in factorize(k):
        q = p ** e
        for order, ind in _local_logs(q, p, e):
            factors.append((order, np.array(ind, dtype=np.int64)[units % q]))
    lam = math.lcm(*(o for o, _ in factors))
    logs = np.zeros((1, len(units)), dtype=np.int64)
    for order, ind in factors:
        step = (ind * (lam // order)) % lam
        r = np.arange(order, dtype=np.int64)[:, None]
        logs = ((logs[:, None, :] + r[None, :, :] * step[None, None, :]) % lam).reshape(-1, len(units))
    logs = logs[np.lexsort(logs.T[::-1])]
    return lam, units, logs


@lru_cache(maxsize=64)
def character_table(k: int):
    """Values and classification of every character mod k, as arrays."""
    lam, units, logs = character_logs(k)
    values = np.zeros((len(logs), k), dtype=np.complex128)
    values[:, units] = np.exp(2j * np.pi * logs / lam)
    cond = np.full(len(logs), k)
    for f in sorted((f for f in range(1, k + 1) if k % f == 0), reverse=True):
        induced = np.all(logs[:, units % f == 1 % f] == 0, axis=1)
        cond[induced] = f
    return {
        "values": values,
        "order": lam // np.gcd.reduce(np.concatenate([logs, np.full((len(logs), 1), lam)], axis=1), axis=1),
        "conductor": cond,
        "even": logs[:, -1] == 0 if k > 2 else np.ones(len(logs), dtype=bool),
        "real": np.all((2 * logs) % lam == 0, axis=1),
        "gauss": values @ np.exp(2j * np.pi * np.arange(k) / k),
    }


def character_values(k: int, index: int) -> np.ndarray:
    """chi(j) for j = 0..k-1 as complex128."""
    return character_table(k)["values"][index]


def even_primitive_indices(k: int, real_only: bool = False):
    tab = character_table(k)
    keep = tab["even"] & (tab["conductor"] == k) & (tab["real"] | (not real_only))
    return [int(i) for i in np.flatnonzero(keep) if i != 0]


def gauss_sum(k: int, vals: np.ndarray) -> complex:
    return complex(np.dot(vals, np.exp(2j * np.pi * np.arange(k) / k)))
