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
from .errors import ComputationError, UsageError

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


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise UsageError(f"expected RE,IM pair, got {text!r}") from None


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


def _add_common(p: _Parser):
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--em-terms", type=int, default=None,
                   help="Euler-Maclaurin series cutoff override")
    p.add_argument("--em-pairs", type=int, default=None,
                   help="Euler-Maclaurin Bernoulli-pair count override")


def _add_char_args(p: _Parser):
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--char-index", type=int, required=True)


def _build_parser() -> _Parser:
    top = _Parser(prog="cyclospec", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("characters", help="enumerate characters mod k")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--filter", default="",
                   help="comma list from: primitive,even,real,nonprincipal")
    _add_common(p)

    lp = sub.add_parser("l", help="Dirichlet L-function operations")
    lsub = lp.add_subparsers(dest="subcommand")
    p = lsub.add_parser("eval")
    _add_char_args(p)
    p.add_argument("--s", required=True, help="RE,IM")
    _add_common(p)
    p = lsub.add_parser("zeros")
    _add_char_args(p)
    p.add_argument("--range", required=True, help="LO,HI")
    _add_common(p)
    p = lsub.add_parser("monotonicity")
    _add_char_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--sigma-step", type=float, default=0.05)
    p.add_argument("--force", action="store_true")
    _add_common(p)

    lnp = sub.add_parser("ln", help="cycle-graph L_n operations")
    lnsub = lnp.add_subparsers(dest="subcommand")
    p = lnsub.add_parser("eval")
    _add_char_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True, help="RE,IM")
    _add_common(p)
    p = lnsub.add_parser("prop1")
    _add_char_args(p)
    p.add_argument("--s", required=True, help="RE,IM")
    p.add_argument("--n-list", required=True)
    _add_common(p)
    p = lnsub.add_parser("ratio")
    _add_char_args(p)
    p.add_argument("--sigma-range", required=True, help="START,END,STEP")
    p.add_argument("--t-range", required=True, help="START,END,STEP")
    p.add_argument("--n-list", required=True)
    _add_common(p)

    sp = sub.add_parser("sums", help="character power-sum operations")
    ssub = sp.add_subparsers(dest="subcommand")
    p = ssub.add_parser("powers")
    _add_char_args(p)
    p.add_argument("--m-range", required=True, help="LO,HI (integers)")
    p.add_argument("--n", type=int, default=1)
    _add_common(p)
    p = ssub.add_parser("faulhaber")
    _add_char_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p = ssub.add_parser("cos-scan")
    _add_char_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    _add_common(p)
    p = ssub.add_parser("corollary5")
    _add_char_args(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n-list", required=True)
    _add_common(p)

    gp = sub.add_parser("graph", help="general-graph L-function")
    gsub = gp.add_subparsers(dest="subcommand")
    p = gsub.add_parser("lg")
    _add_char_args(p)
    p.add_argument("--s", required=True, help="RE,IM")
    p.add_argument("--spectrum-file", default=None,
                   help="one eigenvalue per line, decimal")
    p.add_argument("--cycle", type=int, default=None,
                   help="use the spectrum of the cycle C_m instead of a file")
    p.add_argument("--ordering", choices=("ascending", "frequency"), default="ascending")
    _add_common(p)

    return top


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
        "abs_error": lv.abs_error_estimate,
    }
    if chi.is_primitive and chi.is_even:
        xi = dl.completed_xi(s, chi, n_terms=args.em_terms, pairs=args.em_pairs)
        row["xi_re"] = xi.value.real
        row["xi_im"] = xi.value.imag
    else:
        row["xi_re"] = None
        row["xi_im"] = None
    return [row]


def cmd_l_zeros(args):
    chi = _get_char(args.modulus, args.char_index)
    try:
        lo_s, hi_s = args.range.split(",")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise UsageError(f"expected LO,HI pair, got {args.range!r}") from None
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
        "abs_error": ev.abs_error_estimate,
    }
    if 0.0 < s.real < 1.0:
        xi = gr.graph_xi_n(params)
        row["xi_n_re"] = xi.value.real
        row["xi_n_im"] = xi.value.imag
    else:
        row["xi_n_re"] = None
        row["xi_n_im"] = None
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
    try:
        lo_s, hi_s = args.m_range.split(",")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"expected LO,HI integer pair, got {args.m_range!r}") from None
    rows = []
    for m in range(lo, hi + 1):
        es = cs.s_power_sum_range(m, chi, args.n)
        sign = (es.value > 0) - (es.value < 0)
        if sign < 0:
            print(f"counterexample candidate: S({m}, chi mod {chi.modulus} "
                  f"index {chi.index}) = {es.value} < 0", file=sys.stderr)
        rows.append({"m": m, "n": args.n, "value": str(es.value), "sign": sign})
    return rows


def cmd_sums_faulhaber(args):
    chi = _get_char(args.modulus, args.char_index)
    lhs_int = cs.s_power_sum_range(args.m, chi, args.n).value
    kn = chi.modulus * args.n
    lhs = lhs_int / kn ** args.m
    rhs = cs.faulhaber_rhs(args.m, chi, args.n)
    return [{
        "m": args.m, "n": args.n, "lhs_exact": str(lhs_int),
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
                eigs = sorted(float(line) for line in fh if line.strip())
        except OSError as exc:
            raise UsageError(f"cannot read {args.spectrum_file}: {exc}") from None
        spectrum = gr.LaplacianSpectrum(eigenvalues=tuple(eigs))
    ev = gr.graph_l_general(spectrum, chi, s, ordering=args.ordering)
    return [{
        "modulus": chi.modulus, "char_index": chi.index,
        "s_re": s.real, "s_im": s.imag, "ordering": args.ordering,
        "lg_re": ev.value.real, "lg_im": ev.value.imag,
        "abs_error": ev.abs_error_estimate,
    }]


DISPATCH = {
    ("characters",): cmd_characters,
    ("l", "eval"): cmd_l_eval,
    ("l", "zeros"): cmd_l_zeros,
    ("l", "monotonicity"): cmd_l_monotonicity,
    ("ln", "eval"): cmd_ln_eval,
    ("ln", "prop1"): cmd_ln_prop1,
    ("ln", "ratio"): cmd_ln_ratio,
    ("sums", "powers"): cmd_sums_powers,
    ("sums", "faulhaber"): cmd_sums_faulhaber,
    ("sums", "cos-scan"): cmd_sums_cos_scan,
    ("sums", "corollary5"): cmd_sums_corollary5,
    ("graph", "lg"): cmd_graph_lg,
}

# one subcommand per library operation (coverage is asserted in the tests)
OPERATION_SUBCOMMANDS = {
    "enumerate_characters": ("characters",),
    "conductor": ("characters",),
    "gauss_sum": ("characters",),
    "l_function": ("l", "eval"),
    "completed_xi": ("l", "eval"),
    "find_critical_zero": ("l", "zeros"),
    "ratio_monotonicity_scan": ("l", "monotonicity"),
    "rhs_decreasing_scan": ("l", "monotonicity"),
    "graph_l_n": ("ln", "eval"),
    "graph_xi_n": ("ln", "eval"),
    "asymptotic_l_n": ("ln", "prop1"),
    "alpha": ("ln", "ratio"),
    "xi_ratio": ("ln", "ratio"),
    "ratio_experiment": ("ln", "ratio"),
    "graph_l_general": ("graph", "lg"),
    "cycle_spectrum": ("graph", "lg"),
    "s_power_sum": ("sums", "powers"),
    "s_power_sum_range": ("sums", "powers"),
    "corollary6_check": ("sums", "powers"),
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
        key = (args.command,) if args.command == "characters" else \
            (args.command, getattr(args, "subcommand", None))
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
