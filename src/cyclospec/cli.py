"""Command-line entry point.

Subcommands:
  characters                       enumerate/classify characters mod k
  l eval | zeros | monotonicity    Dirichlet L, zero finding, ratio scans
  ln eval | prop1 | ratio          cycle-graph L_n, asymptotics, ratio sweep
  sums powers | faulhaber | cos-scan | corollary5
  graph lg                         general-graph L from a spectrum file

Exit status: 0 success, 1 usage error, 2 computation error.  Output is
byte-stable: fixed float formatting (17 significant digits), fixed row
ordering; --jobs is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import char_sums as cs
from . import characters as ch
from . import dirichlet as dl
from . import graph as gr
from .errors import ComputationError, RangeError, UsageError

__all__ = ["run", "main", "emit", "DISPATCH", "OPERATION_SUBCOMMANDS"]


# ---------------------------------------------------------------------------
# Formatting / emission
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    mant, exp = f"{x:.16e}".split("e")
    return f"{mant}e{int(exp)}"


class RawJSON(str):
    """Pre-rendered JSON fragment inserted verbatim in json output."""


def _csv_cell(v) -> str:
    if isinstance(v, RawJSON):
        return '"' + v.replace('"', '""') + '"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if v is None:
        return ""
    return str(v)


def _json_token(v) -> str:
    if isinstance(v, RawJSON):
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def emit(rows, fmt: str, sink) -> None:
    """Write rows (dicts sharing one key order) as csv or ndjson."""
    rows = list(rows)
    if fmt == "csv":
        header = list(rows[0].keys()) if rows else []
        sink.write(",".join(header) + "\n")
        for row in rows:
            sink.write(",".join(_csv_cell(v) for v in row.values()) + "\n")
    elif fmt == "json":
        for row in rows:
            parts = (f"{json.dumps(k)}: {_json_token(v)}" for k, v in row.items())
            sink.write("{" + ", ".join(parts) + "}\n")
    else:  # pragma: no cover
        raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_pair(text: str, what: str, kind=float):
    try:
        a, b = (kind(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected {what}, got {text!r}") from None
    return a, b


def _parse_complex(text: str) -> complex:
    return complex(*_parse_pair(text, "RE,IM pair"))


def _parse_range(text: str):
    try:
        start, end, step = (float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected START,END,STEP triple, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(end) and 0 < step < math.inf):
        raise UsageError("range START, END and STEP must be finite, STEP positive")
    out = []
    x = start
    while x <= end + 1e-12:
        out.append(round(x, 12))
        if x + step == x:
            raise UsageError(f"range STEP {step:g} too small to advance from {x:g}")
        x += step
    return out

def _parse_int_list(text: str):
    if not text:
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _exact_text(v: int, what: str) -> str:
    """Decimal text of an exact integer; RangeError past Python's digit limit."""
    try:
        return str(v)
    except ValueError:  # sys.get_int_max_str_digits(), Python 3.11+
        raise RangeError(f"{what} has too many digits to print as a decimal integer") from None


def _get_char(modulus: int, index: int) -> ch.DirichletCharacter:
    chars = ch.enumerate_characters(modulus)
    if not (0 <= index < len(chars)):
        raise UsageError(f"char index {index} out of range for modulus {modulus} "
                         f"(phi = {len(chars)})")
    return chars[index]


# ---------------------------------------------------------------------------
# Handlers (each returns a list of row dicts)
# ---------------------------------------------------------------------------

def cmd_characters(args):
    wanted = {f for f in args.filter.split(",") if f}
    known = {"primitive", "even", "real", "nonprincipal"}
    if not wanted <= known:
        raise UsageError(f"unknown filter(s): {sorted(wanted - known)}")
    rows = []
    for chi in ch.enumerate_characters(args.modulus):
        if "primitive" in wanted and not chi.is_primitive:
            continue
        if "even" in wanted and not chi.is_even:
            continue
        if "real" in wanted and not chi.is_real:
            continue
        if "nonprincipal" in wanted and chi.is_principal:
            continue
        g = ch.gauss_sum(chi)
        if args.format == "json":
            values = RawJSON("[" + ", ".join(
                f'{{"re": {_fmt_float(v.real)}, "im": {_fmt_float(v.imag)}}}'
                for v in chi.values) + "]")
        else:
            values = RawJSON(";".join(
                f"{_fmt_float(v.real)} {_fmt_float(v.imag)}" for v in chi.values))
        rows.append({
            "modulus": chi.modulus, "index": chi.index, "values": values,
            "order": chi.order, "is_even": chi.is_even, "is_real": chi.is_real,
            "conductor": chi.conductor, "is_primitive": chi.is_primitive,
            "gauss_re": g.real, "gauss_im": g.imag,
        })
    return rows


def cmd_l_eval(args):
    chi = _get_char(args.modulus, args.char_index)
    s = _parse_complex(args.s)
    lv = dl.l_function(s, chi, n_terms=args.em_terms, pairs=args.em_pairs)
    row = {
        "modulus": chi.modulus, "char_index": chi.index,
        "s_re": s.real, "s_im": s.imag,
        "l_re": lv.value.real, "l_im": lv.value.imag,
        "abs_error": lv.abs_error_estimate, "xi_re": None, "xi_im": None,
    }
    if chi.is_primitive and chi.is_even:
        xi = dl.completed_xi(s, chi, n_terms=args.em_terms, pairs=args.em_pairs).value
        row["xi_re"], row["xi_im"] = xi.real, xi.imag
    return [row]


def cmd_l_zeros(args):
    chi = _get_char(args.modulus, args.char_index)
    lo, hi = _parse_pair(args.range, "LO,HI pair")
    t_star = dl.find_critical_zero(chi, lo, hi)
    return [{"modulus": chi.modulus, "char_index": chi.index, "t_star": t_star}]


def cmd_l_monotonicity(args):
    chi = _get_char(args.modulus, args.char_index)
    h = args.sigma_step
    if not (0.0 < h < 1.0):
        raise UsageError("--sigma-step must be in (0, 1)")
    grid = []
    x = h
    while x < 1.0 - 1e-12:
        grid.append(round(x, 12))
        x += h
    scan = dl.ratio_monotonicity_scan(chi, args.t, grid, force=args.force)
    rhs = dl.rhs_decreasing_scan(chi.modulus, args.t, grid)
    rows = [{"sigma": sig, "ratio": r, "rhs": rr[1]}
            for (sig, r), rr in zip(scan.rows, rhs.rows)]
    print(f"strictly_increasing: {str(scan.strictly_increasing).lower()}", file=sys.stderr)
    if scan.outside_hypothesis:
        print("warning: |t| < 8, outside the monotonicity hypothesis", file=sys.stderr)
    return rows


def cmd_ln_eval(args):
    chi = _get_char(args.modulus, args.char_index)
    s = _parse_complex(args.s)
    params = gr.GraphLParams(chi=chi, n=args.n, s=s)
    ev = gr.graph_l_n(params)
    row = {
        "modulus": chi.modulus, "char_index": chi.index, "n": args.n,
        "s_re": s.real, "s_im": s.imag,
        "l_n_re": ev.value.real, "l_n_im": ev.value.imag,
        "abs_error": ev.abs_error_estimate, "xi_n_re": None, "xi_n_im": None,
    }
    if 0.0 < s.real < 1.0:
        xi = gr.graph_xi_n(params).value
        row["xi_n_re"], row["xi_n_im"] = xi.real, xi.imag
    return [row]


def cmd_ln_prop1(args):
    chi = _get_char(args.modulus, args.char_index)
    s = _parse_complex(args.s)
    n_list = _parse_int_list(args.n_list)
    l0 = dl.l_function(s, chi)
    l2 = dl.l_function(s - 2.0, chi)
    rows = []
    for n in n_list:
        params = gr.GraphLParams(chi=chi, n=n, s=s)
        ln = gr.graph_l_n(params).value
        approx = gr.asymptotic_l_n(params, l0=l0, l2=l2).value
        kn = chi.modulus * n
        scaled = 0.5 * cmath.exp(s * math.log(math.pi / kn)) * ln
        remainder = scaled - l0.value - (s / 6.0) * (math.pi / kn) ** 2 * l2.value
        rows.append({
            "n": n, "l_n_re": ln.real, "l_n_im": ln.imag,
            "asymptotic_re": approx.real, "asymptotic_im": approx.imag,
            "remainder_abs": abs(remainder),
        })
    return rows


def cmd_ln_ratio(args):
    chi = _get_char(args.modulus, args.char_index)
    sigmas = _parse_range(args.sigma_range)
    ts = _parse_range(args.t_range)
    n_list = _parse_int_list(args.n_list)
    s_grid = [complex(sig, t) for sig in sigmas for t in ts]
    return [{
        "sigma": r.sigma, "t": r.t, "n": r.n, "ratio": r.ratio,
        "abs_ratio_minus_1": r.abs_ratio_minus_1,
        "near_zero_flag": r.near_zero, "alpha_ratio": r.alpha_ratio,
    } for r in gr.ratio_experiment(chi, s_grid, n_list)]


def cmd_sums_powers(args):
    chi = _get_char(args.modulus, args.char_index)
    lo, hi = _parse_pair(args.m_range, "LO,HI integer pair", int)
    rows = []
    for m in range(lo, hi + 1):
        es = cs.s_power_sum_range(m, chi, args.n)
        value = _exact_text(es.value, f"S({m}, chi)")
        sign = (es.value > 0) - (es.value < 0)
        if sign < 0:
            print(f"counterexample candidate: S({m}, chi mod {chi.modulus} "
                  f"index {chi.index}) = {value} < 0", file=sys.stderr)
        rows.append({"m": m, "n": args.n, "value": value, "sign": sign})
    return rows


def cmd_sums_faulhaber(args):
    chi = _get_char(args.modulus, args.char_index)
    lhs_int = cs.s_power_sum_range(args.m, chi, args.n).value
    kn = chi.modulus * args.n
    lhs = lhs_int / kn ** args.m
    rhs = cs.faulhaber_rhs(args.m, chi, args.n)
    return [{
        "m": args.m, "n": args.n, "lhs_exact": _exact_text(lhs_int, f"S({args.m}, chi)"),
        "lhs_scaled": lhs, "rhs": rhs.value.real,
        "abs_residual": abs(lhs - rhs.value.real),
    }]


def cmd_sums_cos_scan(args):
    chi = _get_char(args.modulus, args.char_index)
    rows = cs.cos_scan(chi, args.n, args.m_max)
    negatives = [m for m, _, sign in rows if sign < 0]
    if negatives:
        print(f"counterexample candidates: T(m) < 0 at m = {negatives}", file=sys.stderr)
    else:
        print("negatives: 0", file=sys.stderr)
    return [{"m": m, "value": v, "sign": sign} for m, v, sign in rows]


def cmd_sums_corollary5(args):
    chi = _get_char(args.modulus, args.char_index)
    n_list = _parse_int_list(args.n_list)
    rows, l_val = cs.corollary5_scan(chi, args.s, n_list)
    print(f"L({args.s:g}, chi) = {l_val!r}", file=sys.stderr)
    return [{"n": n, "l_n": v, "sign": sign, "agrees_with_l": agrees}
            for n, v, sign, agrees in rows]


def cmd_graph_lg(args):
    chi = _get_char(args.modulus, args.char_index)
    s = _parse_complex(args.s)
    if (args.spectrum_file is None) == (args.cycle is None):
        raise UsageError("pass exactly one of --spectrum-file or --cycle")
    if args.cycle is not None:
        spectrum = gr.cycle_spectrum(args.cycle)
    else:
        try:
            with open(args.spectrum_file) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.spectrum_file}: {exc}") from None
        eigs = []
        for number, line in enumerate(lines, start=1):
            try:
                if line.strip():
                    eigs.append(float(line))
            except ValueError:
                raise UsageError(f"{args.spectrum_file}, line {number}: expected a number, "
                                 f"got {line.strip()!r}") from None
        spectrum = gr.LaplacianSpectrum(eigenvalues=sorted(eigs))
    ev = gr.graph_l_general(spectrum, chi, s, ordering=args.ordering)
    return [{
        "modulus": chi.modulus, "char_index": chi.index,
        "s_re": s.real, "s_im": s.imag, "ordering": args.ordering,
        "lg_re": ev.value.real, "lg_im": ev.value.imag,
        "abs_error": ev.abs_error_estimate,
    }]


# ---------------------------------------------------------------------------
# Command table: the parser and DISPATCH are both built from it
# ---------------------------------------------------------------------------

# arguments are (flag, add_argument keywords); each command lists its own,
# in --help order, and every command then takes _COMMON
_MODULUS = ("--modulus", dict(type=int, required=True))
_CHAR = [_MODULUS, ("--char-index", dict(type=int, required=True))]
_S = ("--s", dict(required=True, help="RE,IM"))
_N = ("--n", dict(type=int, required=True))
_N_LIST = ("--n-list", dict(required=True))
_COMMON = [
    ("--format", dict(choices=("json", "csv"), default="csv")),
    ("--output", dict(help="output path (default stdout)")),
    ("--jobs", dict(type=int, default=1, help="accepted; has no effect")),
    ("--em-terms", dict(type=int, help="Euler-Maclaurin series cutoff override")),
    ("--em-pairs", dict(type=int, help="Euler-Maclaurin Bernoulli-pair count override")),
]

_GROUP_HELP = {
    "characters": "enumerate characters mod k",
    "l": "Dirichlet L-function operations",
    "ln": "cycle-graph L_n operations",
    "sums": "character power-sum operations",
    "graph": "general-graph L-function",
}

_COMMANDS = {
    ("characters",): (cmd_characters, [
        _MODULUS,
        ("--filter", dict(default="", help="comma list from: primitive,even,real,nonprincipal")),
    ]),
    ("l", "eval"): (cmd_l_eval, [*_CHAR, _S]),
    ("l", "zeros"): (cmd_l_zeros, [*_CHAR, ("--range", dict(required=True, help="LO,HI"))]),
    ("l", "monotonicity"): (cmd_l_monotonicity, [
        *_CHAR, ("--t", dict(type=float, required=True)),
        ("--sigma-step", dict(type=float, default=0.05)),
        ("--force", dict(action="store_true"))]),
    ("ln", "eval"): (cmd_ln_eval, [*_CHAR, _N, _S]),
    ("ln", "prop1"): (cmd_ln_prop1, [*_CHAR, _S, _N_LIST]),
    ("ln", "ratio"): (cmd_ln_ratio, [
        *_CHAR, ("--sigma-range", dict(required=True, help="START,END,STEP")),
        ("--t-range", dict(required=True, help="START,END,STEP")), _N_LIST]),
    ("sums", "powers"): (cmd_sums_powers, [
        *_CHAR, ("--m-range", dict(required=True, help="LO,HI (integers)")),
        ("--n", dict(type=int, default=1))]),
    ("sums", "faulhaber"): (cmd_sums_faulhaber, [
        *_CHAR, _N, ("--m", dict(type=int, required=True))]),
    ("sums", "cos-scan"): (cmd_sums_cos_scan, [
        *_CHAR, _N, ("--m-max", dict(type=int, required=True))]),
    ("sums", "corollary5"): (cmd_sums_corollary5, [
        *_CHAR, ("--s", dict(type=float, required=True)), _N_LIST]),
    ("graph", "lg"): (cmd_graph_lg, [
        *_CHAR, _S, ("--spectrum-file", dict(help="one eigenvalue per line, decimal")),
        ("--cycle", dict(type=int, help="use the spectrum of the cycle C_m instead of a file")),
        ("--ordering", dict(choices=("ascending", "frequency"), default="ascending"))]),
}

DISPATCH = {path: handler for path, (handler, _) in _COMMANDS.items()}


def _build_parser() -> _Parser:
    top = _Parser(prog="cyclospec", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command")
    groups = {}  # group name -> the subparsers action of its leaf commands
    for path, (_, own) in _COMMANDS.items():
        name = path[0]
        if len(path) == 1:
            p = sub.add_parser(name, help=_GROUP_HELP[name])
        else:
            if name not in groups:
                groups[name] = sub.add_parser(name, help=_GROUP_HELP[name]).add_subparsers(
                    dest="subcommand")
            p = groups[name].add_parser(path[1])
        for flag, kw in (*own, *_COMMON):
            p.add_argument(flag, **kw)
    return top


# the subcommand that calls each library operation (asserted in the tests)
OPERATION_SUBCOMMANDS = {
    "enumerate_characters": ("characters",),
    "gauss_sum": ("characters",),
    "l_function": ("l", "eval"),
    "completed_xi": ("l", "eval"),
    "find_critical_zero": ("l", "zeros"),
    "ratio_monotonicity_scan": ("l", "monotonicity"),
    "rhs_decreasing_scan": ("l", "monotonicity"),
    "graph_l_n": ("ln", "eval"),
    "graph_xi_n": ("ln", "eval"),
    "asymptotic_l_n": ("ln", "prop1"),
    "ratio_experiment": ("ln", "ratio"),
    "graph_l_general": ("graph", "lg"),
    "cycle_spectrum": ("graph", "lg"),
    "s_power_sum_range": ("sums", "powers"),
    "faulhaber_rhs": ("sums", "faulhaber"),
    "cos_power_sum": ("sums", "cos-scan"),
    "cos_scan": ("sums", "cos-scan"),
    "corollary5_scan": ("sums", "corollary5"),
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
        key = tuple(filter(None, (args.command, getattr(args, "subcommand", None))))
        handler = DISPATCH.get(key)
        if handler is None:
            raise UsageError(f"missing or unknown subcommand for {args.command!r}")
        rows = handler(args)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    emit(rows, args.format, fh)
            except OSError as exc:
                print(f"cyclospec: cannot write {args.output}: {exc}", file=sys.stderr)
                return 2
        else:
            emit(rows, args.format, sys.stdout)
        return 0
    except UsageError as exc:
        print(f"cyclospec: usage error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"cyclospec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
