"""Checks of CLI outputs against oracles that do not use the library.

Character tables are rebuilt here from the prime-power decomposition of the
unit group, L and Gamma come from mpmath, L_n, T(m) and L_G are direct numpy
sums, and power sums are recomputed as exact Python integers.  Each `check_*`
function takes the argv of one command, its exit status and its output text,
and returns None when the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from chartab import character_table, character_values, gauss_sum, kronecker, totient
from workloads import csv_rows

mpmath.mp.dps = 20

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Analytic oracles
# ---------------------------------------------------------------------------

def l_value(s: complex, k: int, vals: np.ndarray) -> complex:
    """L(s, chi) for primitive even chi by mpmath; Re s < 1/2 goes through
    the functional equation so mpmath always works at Re >= 1/2."""
    s = complex(s)
    if s.real >= 0.5:
        return complex(mpmath.dirichlet(mpmath.mpc(s.real, s.imag), [complex(v) for v in vals]))
    eps = gauss_sum(k, vals) / math.sqrt(k)
    w = 1.0 - s
    other = complex(mpmath.dirichlet(mpmath.mpc(w.real, w.imag),
                                     [complex(v) for v in np.conj(vals)]))
    fac = (mpmath.power(k / mpmath.pi, (1 - 2 * mpmath.mpc(s.real, s.imag)) / 2)
           * mpmath.gamma(mpmath.mpc(w.real, w.imag) / 2)
           / mpmath.gamma(mpmath.mpc(s.real, s.imag) / 2))
    return eps * complex(fac) * other


def gamma(s: complex) -> complex:
    return complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))


def l_n(s: complex, k: int, vals: np.ndarray, n: int) -> complex:
    """L_n(s, chi) = sum_{j<kn} chi(j) sin(pi j / kn)^{-s}, summed directly."""
    m = k * n
    j = np.arange(1, m)
    terms = vals[j % k] * np.exp(-complex(s) * np.log(np.sin(np.pi * j / m)))
    return complex(terms.sum())


def xi_n(s: complex, k: int, vals: np.ndarray, n: int) -> complex:
    s = complex(s)
    return (n ** -s * (math.pi / k) ** (s / 2) * gamma(s / 2)
            * l_n(s, k, vals, n))


def close(a: complex, b: complex, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def pair(text):
    a, b = text.split(",")
    return complex(float(a), float(b))


def grid(text):
    start, end, step = (float(x) for x in text.split(","))
    out, x = [], start
    while x <= end + 1e-12:
        out.append(round(x, 12))
        x += step
    return out


def _char(argv):
    k = int(opt(argv, "--modulus"))
    return k, character_values(k, int(opt(argv, "--char-index")))


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def check_characters(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k = int(opt(argv, "--modulus"))
    rows = csv_rows(text)
    if len(rows) != totient(k):
        return f"{len(rows)} rows, phi({k}) = {totient(k)}"
    tab = character_table(k)
    for i, row in enumerate(rows):
        if int(row["modulus"]) != k or int(row["index"]) != i:
            return f"row {i}: bad modulus/index"
        nums = np.array(row["values"].strip('"').replace(";", " ").split(), dtype=float)
        if nums.size != 2 * k:
            return f"row {i}: {nums.size // 2} values, want {k}"
        if np.max(np.abs(nums[0::2] + 1j * nums[1::2] - tab["values"][i])) > 1e-12:
            return f"row {i}: character table differs"
        cond = int(tab["conductor"][i])
        want = {"is_even": tab["even"][i], "is_real": tab["real"][i], "is_primitive": cond == k}
        if any(row[c] != str(bool(v)).lower() for c, v in want.items()):
            return f"row {i}: parity/realness/primitivity flags"
        if int(row["order"]) != tab["order"][i] or int(row["conductor"]) != cond:
            return f"row {i}: order/conductor"
        g = complex(float(row["gauss_re"]), float(row["gauss_im"]))
        if not close(g, complex(tab["gauss"][i]), abs_=1e-9):
            return f"row {i}: Gauss sum"
        if cond == k and abs(abs(g) - math.sqrt(k)) > 1e-9 * k:
            return f"row {i}: |G| != sqrt(k) for a primitive character"
        if all(want.values()) and i != 0:
            kron = np.array([kronecker(k, j) for j in range(k)])
            if np.max(np.abs(tab["values"][i] - kron)) > 1e-9:
                return f"row {i}: real even primitive character is not (k/.)"
    return None


def exact_power_sums(ints, k: int, n: int, m_lo: int, m_hi: int):
    """S(m) for m_lo..m_hi, exactly, by carrying j^m from one m to the next."""
    js = [j for j in range(1, k * n) if ints[j % k]]
    cs = [ints[j % k] for j in js]
    pw = [j ** m_lo for j in js]
    out = []
    for _ in range(m_lo, m_hi + 1):
        out.append(sum(c * p for c, p in zip(cs, pw)))
        pw = [p * j for p, j in zip(pw, js)]
    return out


def real_ints(vals: np.ndarray):
    return [int(round(v.real)) for v in vals]


def check_sums_powers(argv, status, text, table_ints=None):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    ints = table_ints if table_ints is not None else real_ints(vals)
    lo, hi = (int(x) for x in opt(argv, "--m-range").split(","))
    n = int(opt(argv, "--n", "1"))
    rows = csv_rows(text)
    want = exact_power_sums(ints, k, n, lo, hi)
    if [int(r["m"]) for r in rows] != list(range(lo, hi + 1)):
        return "m column"
    for r, w in zip(rows, want):
        if int(r["value"]) != w or int(r["sign"]) != (w > 0) - (w < 0):
            return f"S({r['m']}) differs from exact recomputation"
    return None


def check_faulhaber(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    n, m = int(opt(argv, "--n")), int(opt(argv, "--m"))
    (row,) = csv_rows(text)
    (exact,) = exact_power_sums(real_ints(vals), k, n, m, m)
    if int(row["lhs_exact"]) != exact:
        return "lhs_exact differs from exact recomputation"
    lhs = exact / (k * n) ** m
    rhs = float(row["rhs"])
    if not close(float(row["lhs_scaled"]), lhs, rel=1e-15, abs_=0.0):
        return "lhs_scaled"
    if not abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)):
        return f"Faulhaber residual {abs(lhs - rhs):.3g}"
    if not close(float(row["abs_residual"]), abs(lhs - rhs), abs_=1e-15):
        return "abs_residual"
    return None


def check_cos_scan(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    n, m_max = int(opt(argv, "--n")), int(opt(argv, "--m-max"))
    kn = k * n
    j = np.arange(1, kn)
    c2 = np.cos(np.pi * j / kn) ** 2
    w = vals[j % k].real
    rows = csv_rows(text)
    if [int(r["m"]) for r in rows] != list(range(1, m_max + 1)):
        return "m column"
    tiny = 1e-12 * kn
    for r in rows:
        m = int(r["m"])
        want = float(np.dot(w, c2 ** m))
        got = float(r["value"])
        if abs(got - want) > 1e-13 * kn:
            return f"T({m}) = {got!r}, direct sum {want!r}"
        sign = int(r["sign"])
        want_sign = 0 if abs(want) <= tiny else (1 if want > 0 else -1)
        if sign != want_sign and abs(abs(want) - tiny) > 1e-13 * kn:
            return f"sign of T({m})"
    return None


def check_corollary5(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    s = float(opt(argv, "--s"))
    l_sign = 1 if l_value(complex(s, 0.0), k, vals).real > 0 else -1
    rows = csv_rows(text)
    ns = [int(x) for x in opt(argv, "--n-list").split(",")]
    if [int(r["n"]) for r in rows] != ns:
        return "n column"
    for r in rows:
        n = int(r["n"])
        want = l_n(s, k, vals, n).real
        if not close(float(r["l_n"]), want):
            return f"L_{n}({s}) differs from direct sum"
        sign = (want > 0) - (want < 0)
        if int(r["sign"]) != sign or r["agrees_with_l"] != str(sign == l_sign).lower():
            return f"sign row n={n}"
    return None


def check_graph_lg(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    m = int(opt(argv, "--cycle"))
    s = pair(opt(argv, "--s"))
    (row,) = csv_rows(text)
    j = np.arange(1, m)
    lam = 4.0 * np.sin(np.pi * j / m) ** 2
    direct = complex(np.sum(vals[j % k] * np.exp(-s * np.log(lam))))
    if m % k == 0:
        # the paper's identity L_G(s) = 4^{-s} L_n(2s) for the cycle C_{kn}
        ident = 4.0 ** -s * l_n(2 * s, k, vals, m // k)
        if not close(direct, ident, rel=1e-10):
            return "4^{-s} L_n(2s) identity"
    got = complex(float(row["lg_re"]), float(row["lg_im"]))
    if not close(got, direct, rel=1e-8):
        return f"L_G = {got!r}, direct sum {direct!r}"
    return None


def check_ln_ratio(argv, status, text, deep: bool):
    k, vals = _char(argv)
    sigmas, ts = grid(opt(argv, "--sigma-range")), grid(opt(argv, "--t-range"))
    ns = [int(x) for x in opt(argv, "--n-list").split(",")]
    if status == 2:
        # documented refusal: xi_ratio raises when |xi_n(1-s)| <= 1e-14
        den = min(abs(xi_n(1 - complex(sig, t), k, np.conj(vals), n))
                  for sig in sigmas for t in ts for n in ns)
        return None if den <= 1e-14 * (1 + 1e-6) else f"refused, but min |xi_n(1-s)| = {den:.3g}"
    if status != 0:
        return f"exit {status}"
    rows = csv_rows(text)
    keys = [(sig, t, n) for sig in sigmas for t in ts for n in ns]
    if len(rows) != len(keys):
        return f"{len(rows)} rows, want {len(keys)}"
    conj = np.conj(vals)
    by_s = {}
    for (sig, t, n), r in zip(keys, rows):
        if (float(r["sigma"]), float(r["t"]), int(r["n"])) != (sig, t, n):
            return "row order"
        s = complex(sig, t)
        want = abs(xi_n(s, k, vals, n)) / abs(xi_n(1 - s, k, conj, n))
        ratio = float(r["ratio"])
        if not close(ratio, want):
            return f"ratio at s={s}, n={n}: {ratio!r} vs {want!r}"
        if sig == 0.5 and abs(ratio - 1.0) > 1e-9:
            return f"ratio {ratio!r} != 1 on the critical line"
        if not close(float(r["abs_ratio_minus_1"]), abs(ratio - 1.0), abs_=1e-15):
            return "abs_ratio_minus_1"
        by_s.setdefault(s, set()).add((r["alpha_ratio"], r["near_zero_flag"]))
    if any(len(v) != 1 for v in by_s.values()):
        return "alpha_ratio / near_zero_flag vary with n"
    if deep:
        s = complex(sigmas[0], ts[0])
        ((alpha_text, near_text),) = by_s[s]

        def alpha(w, v):
            return (w / 3) * (math.pi / k) ** (2 - w / 2) * gamma(w / 2) * l_value(w - 2, k, v)

        want = abs(alpha(s, vals)) / abs(alpha(1 - s, conj))
        if not close(float(alpha_text), want, rel=1e-8):
            return f"alpha_ratio at s={s}"
        lv = abs(l_value(s, k, vals))
        if abs(lv - 1e-6) > 1e-9 and near_text != str(lv < 1e-6).lower():
            return "near_zero_flag"
    return None


def check_ln_prop1(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    s = pair(opt(argv, "--s"))
    ns = [int(x) for x in opt(argv, "--n-list").split(",")]
    rows = csv_rows(text)
    if [int(r["n"]) for r in rows] != ns:
        return "n column"
    for r in rows:
        n = r["n"]
        if not close(complex(float(r["l_n_re"]), float(r["l_n_im"])), l_n(s, k, vals, int(n))):
            return f"L_{n} differs from direct sum"
    if not deep:
        return None
    l0, l2 = l_value(s, k, vals), l_value(s - 2, k, vals)
    for r in rows:
        n = int(r["n"])
        kn = k * n
        ln = l_n(s, k, vals, n)
        scale = (kn / math.pi) ** s
        asym = 2 * scale * (l0 + (s / 6) * (math.pi / kn) ** 2 * l2)
        if not close(complex(float(r["asymptotic_re"]), float(r["asymptotic_im"])), asym, rel=1e-8):
            return f"asymptotic at n={n}"
        rem = abs(0.5 * ln / scale - l0 - (s / 6) * (math.pi / kn) ** 2 * l2)
        if abs(float(r["remainder_abs"]) - rem) > 1e-9 * max(1.0, abs(l0)):
            return f"remainder at n={n}"
    return None


def xi_value(s: complex, k: int, vals: np.ndarray) -> complex:
    return (math.pi / k) ** (-s / 2) * gamma(s / 2) * l_value(s, k, vals)


def check_l_eval(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    s = pair(opt(argv, "--s"))
    (row,) = csv_rows(text)
    got_l = complex(float(row["l_re"]), float(row["l_im"]))
    if deep and not close(got_l, l_value(s, k, vals), rel=1e-8):
        return f"L({s}) = {got_l!r} differs from mpmath"
    xi = (math.pi / k) ** (-s / 2) * gamma(s / 2) * got_l
    if not close(complex(float(row["xi_re"]), float(row["xi_im"])), xi, rel=1e-8, abs_=1e-300):
        return f"xi({s}) is not (pi/k)^(-s/2) Gamma(s/2) L"
    return None


def check_l_zeros(argv, status, text, deep):
    k, vals = _char(argv)
    lo, hi = (float(x) for x in opt(argv, "--range").split(","))
    if status == 2:
        # documented refusal: no sign change of xi on the program's 0.05 grid
        steps = int(math.ceil((hi - lo) / 0.05))
        pts = [lo + i * 0.05 for i in range(steps)] + [hi]
        signs = [np.sign(xi_value(complex(0.5, t), k, vals).real) for t in pts]
        if any(a * b < 0 for a, b in zip(signs, signs[1:])):
            return "refused, but xi changes sign in the bracket"
        return None
    if status != 0:
        return f"exit {status}"
    (row,) = csv_rows(text)
    t = float(row["t_star"])
    if not lo < t < hi:
        return f"t* = {t} outside the bracket"
    if deep and abs(l_value(complex(0.5, t), k, vals)) > 1e-7:
        return f"|L(1/2 + i {t})| is not ~0"
    return None


def check_l_monotonicity(argv, status, text, deep):
    if status != 0:
        return f"exit {status}"
    k, vals = _char(argv)
    t, h = float(opt(argv, "--t")), float(opt(argv, "--sigma-step", "0.05"))
    rows = csv_rows(text)
    sig, ratio, rhs = ([float(r[c]) for r in rows] for c in ("sigma", "ratio", "rhs"))
    if abs(t) >= 8 and any(b <= a for a, b in zip(ratio, ratio[1:])):
        return "ratio |L(s+2)/L(s-2)| not strictly increasing at |t| >= 8"
    for x, r in zip(sig, rhs):
        s = complex(x, t)
        if not close(r, 4 * math.pi ** 2 / (k * k * abs(s * s - 1))):
            return f"rhs at sigma={x}"
    mid = len(rows) // 2
    if not deep:
        return None
    s = complex(sig[mid], t)
    want = abs(l_value(s + 2, k, vals)) / abs(l_value(s - 2, k, vals))
    if not close(ratio[mid], want, rel=1e-8) or abs(sig[mid] - round(h * (mid + 1), 12)) > 1e-12:
        return f"ratio at sigma={sig[mid]}"
    return None


CHECKS = {
    ("characters",): check_characters,
    ("sums", "faulhaber"): check_faulhaber,
    ("sums", "cos-scan"): check_cos_scan,
    ("sums", "corollary5"): check_corollary5,
    ("graph", "lg"): check_graph_lg,
    ("ln", "ratio"): check_ln_ratio,
    ("ln", "prop1"): check_ln_prop1,
    ("l", "eval"): check_l_eval,
    ("l", "zeros"): check_l_zeros,
    ("l", "monotonicity"): check_l_monotonicity,
}


def check(argv, status, text, deep=True, table_ints=None) -> str | None:
    """None if the output of `cyclospec argv` is right, else the reason.

    With deep=False the checks that need mpmath L-values are skipped; the
    rest of the output is still checked.  table_ints, for `sums powers`, is
    the character as printed by an earlier `characters` command.
    """
    head = ("characters",) if argv[0] == "characters" else tuple(argv[:2])
    if head == ("sums", "powers"):
        return check_sums_powers(argv, status, text, table_ints)
    return CHECKS[head](argv, status, text, deep)
