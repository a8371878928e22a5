import math
import random
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from cyclospec import conductor, enumerate_characters, gauss_sum
from cyclospec.errors import HypothesisError

# the benchmark's own character tables, built from the prime-power structure
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import chartab  # noqa: E402


def brute_force_characters_mod5():
    """All homomorphisms (Z/5Z)* -> C*: cyclic of order 4, generator 2."""
    import cmath
    out = []
    for c in range(4):
        table = {}
        g = 2
        v = 1
        for x in range(4):
            table[v] = cmath.exp(2j * math.pi * c * x / 4)
            v = (v * g) % 5
        out.append(table)
    return out


def test_k5_enumeration_matches_brute_force():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    brute = brute_force_characters_mod5()
    for table in brute:
        assert any(
            all(abs(chi(j) - table[j]) < 1e-12 for j in range(1, 5))
            for chi in chars
        )
    special = [c for c in chars if not c.is_principal and c.is_even and c.is_real and c.is_primitive]
    assert len(special) == 1
    quad = special[0]
    assert [round(quad(j).real) for j in range(1, 5)] == [1, -1, -1, 1]


def test_k3_nonprincipal_is_odd():
    chars = enumerate_characters(3)
    nonpr = [c for c in chars if not c.is_principal]
    assert len(nonpr) == 1
    chi = nonpr[0]
    assert not chi.is_even
    assert abs(chi(2) - (-1.0)) < 1e-15  # chi(-1) = chi(2) = -1


def test_k1_and_k2_principal_only():
    assert len(enumerate_characters(1)) == 1
    assert enumerate_characters(1)[0].is_principal
    assert len(enumerate_characters(2)) == 1
    assert enumerate_characters(2)[0].is_principal


def test_euler_phi_count():
    def phi(k):
        return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)

    for k in range(1, 60):
        assert len(enumerate_characters(k)) == phi(k)


def test_conductor_quadratic_mod5():
    quad = enumerate_characters(5)[2]
    assert quad.is_real and not quad.is_principal
    assert conductor(quad) == 5
    assert quad.is_primitive


def test_conductor_principal():
    for k in (3, 5, 12, 30):
        principal = enumerate_characters(k)[0]
        assert principal.is_principal
        assert conductor(principal) == 1


def test_conductor_induced_mod10():
    # brute-force induction test: the real non-principal character mod 10
    # agrees with the mod-5 quadratic on units, so its conductor is 5
    quad5 = enumerate_characters(5)[2]
    induced = [c for c in enumerate_characters(10)
               if not c.is_principal and c.is_real]
    assert len(induced) == 1
    chi = induced[0]
    for j in range(10):
        if gcd(j, 10) == 1:
            assert abs(chi(j) - quad5(j)) < 1e-12
    assert conductor(chi) == 5
    assert not chi.is_primitive


def test_gauss_sum_quadratic_mod5():
    quad = enumerate_characters(5)[2]
    g = gauss_sum(quad)
    assert abs(g - math.sqrt(5)) < 1e-12


def test_gauss_sum_modulus_primitive():
    for k in range(3, 101):
        for chi in enumerate_characters(k):
            if chi.is_primitive:
                g = gauss_sum(chi)
                assert abs(abs(g) - math.sqrt(k)) <= 1e-9
                if chi.is_real and chi.is_even:  # Gauss: tau(chi) = +sqrt(k)
                    assert abs(g - math.sqrt(k)) <= 1e-9


def test_gauss_sum_principal_mod4():
    import cmath
    principal = enumerate_characters(4)[0]
    direct = sum(cmath.exp(2j * math.pi * l / 4) for l in (1, 3))
    assert abs(gauss_sum(principal) - direct) < 1e-12


def test_orthogonality_nonprincipal():
    for k in range(3, 80):
        for chi in enumerate_characters(k):
            if chi.is_principal:
                continue
            total = sum(chi(j) for j in range(1, k + 1))
            assert abs(total) <= 1e-12


def test_complete_multiplicativity_random_pairs():
    rng = random.Random(20260823)
    for k in (5, 8, 12, 13, 24):
        for chi in enumerate_characters(k):
            for _ in range(1000):
                a = rng.randrange(k)
                b = rng.randrange(k)
                assert abs(chi((a * b) % k) - chi(a) * chi(b)) < 1e-12


def test_zero_off_units_unit_modulus_on_units():
    for k in (6, 12, 30):
        for chi in enumerate_characters(k):
            for j in range(k):
                if gcd(j, k) == 1:
                    assert abs(abs(chi(j)) - 1.0) < 1e-12
                else:
                    assert chi(j) == 0.0


def test_periodicity():
    chi = enumerate_characters(7)[3]
    for j in range(-14, 30):
        assert chi(j) == chi(j % 7)


def test_order_is_minimal():
    for k in (5, 7, 13, 16):
        for chi in enumerate_characters(k):
            d = chi.order
            for j in range(k):
                if gcd(j, k) == 1:
                    assert abs(chi(j) ** d - 1.0) < 1e-10
            if d > 1:
                # no smaller exponent trivializes every value
                for e in range(1, d):
                    if d % e:
                        continue
                    assert any(
                        abs(chi(j) ** e - 1.0) > 1e-6
                        for j in range(k) if gcd(j, k) == 1
                    )


def test_conjugate_involution_and_real_fixed():
    for k in (5, 7, 13):
        for chi in enumerate_characters(k):
            conj = chi.conjugate()
            assert conj.conjugate().index == chi.index
            if chi.is_real:
                assert conj.index == chi.index
            for j in range(k):
                assert abs(conj(j) - chi(j).conjugate()) < 1e-12


def test_int_value_requires_real():
    complex_char = enumerate_characters(5)[1]
    assert not complex_char.is_real
    with pytest.raises(HypothesisError):
        complex_char.int_value(2)


def test_deterministic_enumeration_order():
    a = enumerate_characters(12)
    b = enumerate_characters(12)
    assert [c.logs.tolist() for c in a] == [c.logs.tolist() for c in b]
    assert a[0].is_principal


def test_table_matches_chartab_oracle():
    for k in range(1, 301):
        chars = enumerate_characters(k)
        tab = chartab.character_table(k)
        assert len(chars) == len(tab["values"]), k
        values = np.array([c.values for c in chars])
        assert np.abs(values - tab["values"]).max() <= 1e-14, k  # also the row order
        assert [c.order for c in chars] == tab["order"].tolist(), k
        assert [c.is_even for c in chars] == tab["even"].tolist(), k
        assert [c.is_real for c in chars] == tab["real"].tolist(), k
        assert [c.conductor for c in chars] == tab["conductor"].tolist(), k
        assert [c.is_primitive for c in chars] == (tab["conductor"] == k).tolist(), k
        for chi in chars:
            conj = chi.conjugate()
            assert conj.conjugate() is chi
            assert np.abs(conj.values - np.conj(tab["values"][chi.index])).max() <= 1e-14, k


def test_table_rows_are_read_only():
    for chi in enumerate_characters(12):
        for row in (chi.logs, chi.values, chi.roots):
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[1] = row[0]
    chi = enumerate_characters(5)[1]
    assert chi == chi and chi != chi.conjugate()  # == is identity
