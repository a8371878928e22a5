import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclospec
from cyclospec import characters as ch
from cyclospec.cli import DISPATCH, OPERATION_SUBCOMMANDS, emit, run


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit statuses
# ---------------------------------------------------------------------------

def test_no_arguments_usage(capsys):
    code, _, err = run_capture([], capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_flag_usage(capsys):
    code, _, err = run_capture(["characters", "--bogus"], capsys)
    assert code == 1


def test_missing_subcommand_usage(capsys):
    code, _, err = run_capture(["l"], capsys)
    assert code == 1


def _graph_lg_file(tmp_path, text, capsys):
    spectrum = tmp_path / "spec.txt"
    spectrum.write_text(text)
    return run_capture(["graph", "lg", "--modulus", "5", "--char-index", "2",
                        "--spectrum-file", str(spectrum), "--s", "0.4,3"], capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would reach stderr
def test_hypothesis_violation_exit_2(tmp_path, capsys):
    # char index 1 mod 5 is odd: ln eval must refuse with a diagnostic
    code, _, err = run_capture(
        ["ln", "eval", "--modulus", "5", "--char-index", "1", "--n", "4", "--s", "0.5,0"],
        capsys)
    assert code == 2
    assert "odd" in err
    # a blank spectrum file has no zero eigenvalue; nan and inf are no eigenvalues
    for text, reason in (("\n  \n", "found 0"), ("0\n2\nnan\n3\n", "finite"),
                         ("0\n2\ninf\n3\n", "finite"), ("-inf\n0\n2\n", "finite")):
        code, out, err = _graph_lg_file(tmp_path, text, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and reason in err, (text, err)


def test_spectrum_file_bad_line_usage(tmp_path, capsys):
    code, out, err = _graph_lg_file(tmp_path, "0\n2\n\nabc\n3\n", capsys)
    assert code == 1
    assert out == ""
    assert err == f"cyclospec: usage error: {tmp_path / 'spec.txt'}, line 4: " \
                  "expected a number, got 'abc'\n"


def test_pole_exit_2(capsys):
    code, _, err = run_capture(
        ["l", "eval", "--modulus", "5", "--char-index", "2", "--s", "1,0"], capsys)
    assert code == 0  # pole cancels for non-principal characters
    code, _, err = run_capture(
        ["l", "eval", "--modulus", "5", "--char-index", "0", "--s", "2,0"], capsys)
    assert code == 2  # principal character rejected


# ---------------------------------------------------------------------------
# characters subcommand
# ---------------------------------------------------------------------------

def test_characters_filter_primitive_even_real(capsys):
    code, out, _ = run_capture(
        ["characters", "--modulus", "5", "--filter", "primitive,even,real",
         "--format", "json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    nonprincipal = [r for r in rows if r["conductor"] > 1]
    assert len(nonprincipal) == 1
    row = nonprincipal[0]
    assert row["is_even"] and row["is_real"] and row["is_primitive"]
    assert row["modulus"] == 5
    assert len(row["values"]) == 5
    assert abs(row["values"][2]["re"] + 1.0) < 1e-12


# the five values of the characters mod 5, as printed: -1j is stored as
# complex(-0.0, -1.0), so chi(3) = -i prints its real part as -0
_CELLS = {"0": ("0.0000000000000000e0", "0.0000000000000000e0"),
          "1": ("1.0000000000000000e0", "0.0000000000000000e0"),
          "-1": ("-1.0000000000000000e0", "0.0000000000000000e0"),
          "i": ("0.0000000000000000e0", "1.0000000000000000e0"),
          "-i": ("-0.0000000000000000e0", "-1.0000000000000000e0")}
_MOD5 = [  # chi(0..4); order, is_even, is_real, conductor, is_primitive, gauss_re, gauss_im
    ("0 1 1 1 1", "1,true,true,1,false,-1.0000000000000002e0,1.1102230246251565e-16"),
    ("0 1 i -i -1", "4,false,false,5,true,-1.1755705045849461e0,1.9021130325903075e0"),
    ("0 1 -1 -1 1", "2,true,true,5,true,2.2360679774997898e0,-3.3306690738754696e-16"),
    ("0 1 -i i -1", "4,false,false,5,true,1.1755705045849465e0,1.9021130325903071e0"),
]


def test_characters_mod5_bytes(capsys):
    header = "modulus,index,values,order,is_even,is_real,conductor,is_primitive,gauss_re,gauss_im"
    csv, json_lines = [header], []
    for index, (values, tail) in enumerate(_MOD5):
        cells = [_CELLS[v] for v in values.split()]
        csv.append(f'5,{index},"{";".join(f"{re} {im}" for re, im in cells)}",{tail}')
        pairs = ", ".join(f'{{"re": {re}, "im": {im}}}' for re, im in cells)
        rest = ", ".join(f'"{key}": {v}' for key, v in zip(header.split(",")[3:], tail.split(",")))
        json_lines.append(f'{{"modulus": 5, "index": {index}, "values": [{pairs}], {rest}}}')
    for fmt, want in (("csv", csv), ("json", json_lines)):
        code, out, err = run_capture(["characters", "--modulus", "5", "--format", fmt], capsys)
        assert (code, err) == (0, "")
        assert out == "\n".join(want) + "\n"


def test_character_table_cap_refuses_before_building(monkeypatch, capsys):
    # phi(k) k is capped at 2^22: 2053 (phi k = 4,212,756) is refused before its
    # table is built, and a modulus above 2^22 before it is even factorised
    def never(*args):
        raise AssertionError("the character table was built")

    monkeypatch.setattr(ch, "_unit_group_generators", never)
    for argv in (["characters", "--modulus", "2053"],
                 ["l", "eval", "--modulus", "4194305", "--char-index", "1", "--s", "0.5,1"]):
        if "4194305" in argv:
            monkeypatch.setattr(ch, "_factorize", never)
        code, out, err = run_capture(argv, capsys)
        assert (code, out) == (2, "")
        k = argv[argv.index("--modulus") + 1]
        assert err == f"cyclospec: RangeError: the character table mod {k} has " \
                      f"phi(k) k > 4194304 entries\n"


def test_characters_counts(capsys):
    code, out, _ = run_capture(["characters", "--modulus", "12"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4  # header + phi(12)


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def test_emit_empty_csv_header_only():
    sink = io.StringIO()
    emit([], "csv", sink)
    assert sink.getvalue() == "\n"


def test_emit_json_is_ndjson():
    sink = io.StringIO()
    emit([{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0}], "json", sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"a": 1, "b": 0.5}


def test_emit_float_formatting():
    sink = io.StringIO()
    emit([{"x": 1.0, "y": -0.03125}], "csv", sink)
    assert sink.getvalue().splitlines()[1] == \
        "1.0000000000000000e0,-3.1250000000000000e-2"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_ratio_sweep_deterministic_across_jobs(capsys):
    argv = ["ln", "ratio", "--modulus", "5", "--char-index", "2",
            "--sigma-range", "0.25,0.75,0.25", "--t-range", "8,10,2",
            "--n-list", "2,4"]
    _, out1, _ = run_capture(argv + ["--jobs", "1"], capsys)
    _, out2, _ = run_capture(argv + ["--jobs", "4"], capsys)
    assert out1 == out2
    assert len(out1.splitlines()) == 1 + 3 * 2 * 2


def test_jobs_environment_variable_ignored(monkeypatch, capsys):
    monkeypatch.setenv("CYCLOSPEC_JOBS", "abc")
    code, out, err = run_capture(
        ["l", "eval", "--modulus", "5", "--char-index", "2", "--s", "0.5,3"], capsys)
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("ranges", [
    ["--sigma-range", "inf,inf,1", "--t-range", "8,8,1"],
    ["--sigma-range", "0.5,0.5,1", "--t-range", "8,nan,1"],
    ["--sigma-range", "0.5,0.5,1", "--t-range", "1e20,1e20,1"],
])
def test_ratio_range_without_progress_is_usage_error(ranges, capsys):
    code, out, err = run_capture(
        ["ln", "ratio", "--modulus", "5", "--char-index", "2", *ranges, "--n-list", "2"],
        capsys)
    assert code == 1
    assert out == ""


def test_output_file_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sums", "powers", "--modulus", "5", "--char-index", "2",
            "--m-range", "2,7"]
    assert run(argv + ["--output", str(p1)]) == 0
    assert run(argv + ["--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# remaining subcommands smoke
# ---------------------------------------------------------------------------

def test_l_zeros(capsys):
    code, out, _ = run_capture(
        ["l", "zeros", "--modulus", "5", "--char-index", "2", "--range", "0.1,10",
         "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert 0.1 < row["t_star"] < 10


def test_l_monotonicity(capsys):
    code, out, err = run_capture(
        ["l", "monotonicity", "--modulus", "5", "--char-index", "2",
         "--t", "10", "--sigma-step", "0.2"], capsys)
    assert code == 0
    assert "strictly_increasing: true" in err
    assert len(out.splitlines()) == 1 + 4


def test_l_monotonicity_force_gate(capsys):
    argv = ["l", "monotonicity", "--modulus", "5", "--char-index", "2",
            "--t", "3", "--sigma-step", "0.25"]
    code, _, _ = run_capture(argv, capsys)
    assert code == 2
    code, _, err = run_capture(argv + ["--force"], capsys)
    assert code == 0
    assert "outside" in err


def test_ln_prop1(capsys):
    code, out, _ = run_capture(
        ["ln", "prop1", "--modulus", "5", "--char-index", "2", "--s", "0.75,9",
         "--n-list", "8,16,32", "--format", "json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    rems = [r["remainder_abs"] for r in rows]
    assert rems[2] < rems[1] < rems[0]


def test_sums_faulhaber(capsys):
    code, out, _ = run_capture(
        ["sums", "faulhaber", "--modulus", "5", "--char-index", "2",
         "--n", "1", "--m", "4", "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["abs_residual"] < 1e-9


def test_sums_cos_scan(capsys):
    code, out, err = run_capture(
        ["sums", "cos-scan", "--modulus", "5", "--char-index", "2",
         "--n", "1", "--m-max", "10", "--format", "json"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 10
    assert "negatives" in err or "counterexample" in err


def test_sums_corollary5(capsys):
    code, out, _ = run_capture(
        ["sums", "corollary5", "--modulus", "5", "--char-index", "2",
         "--s", "0.5", "--n-list", "16,32", "--format", "json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["agrees_with_l"] for r in rows)


def test_graph_lg_cycle_and_file(tmp_path, capsys):
    code, out1, _ = run_capture(
        ["graph", "lg", "--modulus", "5", "--char-index", "2", "--cycle", "9",
         "--s", "0.4,3", "--format", "json"], capsys)
    assert code == 0
    spectrum = tmp_path / "spec.txt"
    import math
    spectrum.write_text("".join(
        f"{4 * math.sin(math.pi * j / 9) ** 2!r}\n" for j in range(9)))
    code, out2, _ = run_capture(
        ["graph", "lg", "--modulus", "5", "--char-index", "2",
         "--spectrum-file", str(spectrum), "--s", "0.4,3", "--format", "json"],
        capsys)
    assert code == 0
    r1 = json.loads(out1.splitlines()[0])
    r2 = json.loads(out2.splitlines()[0])
    assert abs(r1["lg_re"] - r2["lg_re"]) < 1e-9
    assert abs(r1["lg_im"] - r2["lg_im"]) < 1e-9


def test_graph_lg_large_cycle_is_connected(capsys):
    # lambda_2 of C_63000 is 4 sin^2(pi / 63000) ~ 9.9e-9, below the old
    # absolute zero tolerance of 1e-8, which counted three zero eigenvalues
    m, s = 63000, complex(0.4, 3)
    code, out, err = run_capture(
        ["graph", "lg", "--modulus", "5", "--char-index", "2", "--cycle", str(m),
         "--s", "0.4,3", "--format", "json"], capsys)
    assert code == 0, err
    row = json.loads(out)
    # closed form: ascending eigenvalues 4 sin^2(pi j / m), weighted by chi(rank),
    # with j folded to min(j, m - j): sin near pi loses digits (7.8e-8 here)
    j = np.arange(1, m)
    lams = np.sort(4.0 * np.sin(np.pi * np.minimum(j, m - j) / m) ** 2)
    chi = np.array([0.0, 1.0, -1.0, -1.0, 1.0])[j % 5]
    want = complex(np.sum(chi * lams ** -s))
    assert abs(complex(row["lg_re"], row["lg_im"]) - want) <= row["abs_error"]


def test_graph_lg_requires_one_source(capsys):
    code, _, _ = run_capture(
        ["graph", "lg", "--modulus", "5", "--char-index", "2", "--s", "0.4,3"],
        capsys)
    assert code == 1


def test_bad_char_index_usage(capsys):
    code, _, err = run_capture(
        ["l", "eval", "--modulus", "5", "--char-index", "9", "--s", "2,0"], capsys)
    assert code == 1
    assert "out of range" in err


# ---------------------------------------------------------------------------
# refusals: exit 2 with a one-line reason, never a traceback or nan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    "l eval --modulus 5 --char-index 2 --s 1e308,0",
    "l eval --modulus 5 --char-index 2 --s=-300,0",
    "l eval --modulus 5 --char-index 2 --s 400,0",
    "l eval --modulus 13 --char-index 6 --s 270,0",
    "ln eval --modulus 5 --char-index 2 --n 16 --s nan,9",
    "ln eval --modulus 5 --char-index 2 --n 16 --s 300,0",
    "ln eval --modulus 5 --char-index 2 --n 16 --s 1e308,1e308",
    "ln eval --modulus 5 --char-index 2 --n 16 --s 1.3e308,1.3e308",
    "ln eval --modulus 5 --char-index 2 --n 4 --s 0.5,1e6",
    "sums faulhaber --modulus 5 --char-index 2 --n 2 --m 200",
    "sums faulhaber --modulus 5 --char-index 2 --n 1 --m 100",
    "graph lg --modulus 5 --char-index 2 --cycle 20 --s 400,0",
    "graph lg --modulus 5 --char-index 2 --cycle 20 --s nan,0",
    "graph lg --modulus 5 --char-index 2 --cycle 20 --s 1.3e308,1.3e308",
    "sums powers --modulus 5 --char-index 2 --m-range 7200,7200",
    # work caps: kn and m at most 2^22, refused before anything is allocated
    "ln eval --modulus 5 --char-index 2 --n 838861 --s 0.5,3",
    "ln eval --modulus 5 --char-index 2 --n 100000000 --s 0.5,3",
    "graph lg --modulus 5 --char-index 2 --cycle 4194305 --s 0.5,3",
    "graph lg --modulus 5 --char-index 2 --cycle 50000000 --s 0.5,3",
])
def test_out_of_range_refused_exit_2(argv, capsys):
    code, out, err = run_capture(argv.split(), capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cyclospec: ")


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue()


def _float_cell(cell):
    try:
        return float(cell)
    except ValueError:  # a flag, a name or an exact integer string
        return None


# spectrum-file lines: numbers (with nan, inf and negatives), blanks and garbage,
# in any order
_SPECTRUM_LINE = st.one_of(
    st.just("0"), st.floats(min_value=0.0, max_value=10.0).map(repr), st.floats().map(repr),
    st.sampled_from(["", "  ", "nan", "inf", "-inf", "-1", "1e400", "abc", "1,2", "0x10"]),
    st.text(alphabet="0123456789.-+eEinfa x", max_size=6))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # nor a numpy warning on stderr
@settings(max_examples=250, deadline=None)
@given(cmd=st.sampled_from(["l eval", "ln eval", "graph lg", "graph lg file", "ln ratio"]),
       modulus=st.integers(min_value=3, max_value=30),
       index=st.integers(min_value=0, max_value=12),
       n=st.integers(min_value=1, max_value=40),
       m=st.integers(min_value=-2, max_value=800),
       ordering=st.sampled_from(["ascending", "frequency"]),
       re=st.one_of(st.floats(), st.floats(min_value=-400.0, max_value=400.0),
                    st.floats(min_value=0.0, max_value=1.0)),
       im=st.one_of(st.floats(), st.floats(min_value=-120.0, max_value=120.0)),
       lines=st.lists(_SPECTRUM_LINE, max_size=8))
def test_eval_never_raises_and_exit_0_is_finite(cmd, modulus, index, n, m, ordering, re, im,
                                                lines):
    # l eval, ln eval, graph lg --cycle m, graph lg --spectrum-file with the drawn
    # lines and a one-point ln ratio sweep
    argv = ["graph", "lg"] if cmd == "graph lg file" else cmd.split()
    argv += ["--modulus", str(modulus), "--char-index", str(index)]
    if cmd == "ln ratio":
        argv += [f"--sigma-range={re!r},{re!r},0.25", f"--t-range={im!r},{im!r},1",
                 "--n-list", f"{n},{2 * n}"]
    else:
        argv.append(f"--s={re!r},{im!r}")
    if cmd == "ln eval":
        argv += ["--n", str(n)]
    if cmd == "graph lg":
        argv += ["--cycle", str(m), "--ordering", ordering]
    with tempfile.TemporaryDirectory() as tmp:
        if cmd == "graph lg file":
            spectrum = os.path.join(tmp, "spec.txt")
            with open(spectrum, "w") as fh:
                fh.write("".join(line + "\n" for line in lines))
            argv += ["--spectrum-file", spectrum, "--ordering", ordering]
        code, out = _run_quiet(argv)
    assert code in (0, 1, 2)
    if code == 0:
        header, *rows = out.splitlines()
        assert rows
        for row in rows:
            for name, cell in zip(header.split(","), row.split(",")):
                x = _float_cell(cell)
                if x is not None:
                    assert math.isfinite(x), (argv, name, cell)


# ---------------------------------------------------------------------------
# dispatch coverage
# ---------------------------------------------------------------------------

# one argv per command, each expected to exit 0
_ONE_ARGV = {
    ("characters",): "characters --modulus 5",
    ("l", "eval"): "l eval --modulus 5 --char-index 2 --s 0.5,14",
    ("l", "zeros"): "l zeros --modulus 5 --char-index 2 --range 0.1,10",
    ("l", "monotonicity"): "l monotonicity --modulus 5 --char-index 2 --t 10 --sigma-step 0.25",
    ("ln", "eval"): "ln eval --modulus 5 --char-index 2 --n 4 --s 0.5,3",
    ("ln", "prop1"): "ln prop1 --modulus 5 --char-index 2 --s 0.75,9 --n-list 8,16",
    ("ln", "ratio"): "ln ratio --modulus 5 --char-index 2 --sigma-range 0.4,0.4,0.1 "
                     "--t-range 10,10,1 --n-list 4",
    ("sums", "powers"): "sums powers --modulus 5 --char-index 2 --m-range 2,4",
    ("sums", "faulhaber"): "sums faulhaber --modulus 5 --char-index 2 --n 2 --m 6",
    ("sums", "cos-scan"): "sums cos-scan --modulus 5 --char-index 2 --n 1 --m-max 10",
    ("sums", "corollary5"): "sums corollary5 --modulus 5 --char-index 2 --s 0.5 --n-list 16",
    ("graph", "lg"): "graph lg --modulus 5 --char-index 2 --cycle 20 --s 0.4,3",
}

# exported operations that no command calls
_LIBRARY_ONLY = {"alpha", "xi_ratio", "conductor", "s_power_sum", "corollary6_check"}


def _spy_on(names, monkeypatch):
    """Record the name of every listed library function a command calls,
    through whichever cyclospec module it is looked up in."""
    called = set()

    def recorder(name, fn):
        def spy(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return spy

    modules = [m for key, m in list(sys.modules.items())
               if key == "cyclospec" or key.startswith("cyclospec.")]
    for name in names:
        fn = getattr(cyclospec, name)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, recorder(name, fn))
    return called


def test_every_operation_has_exactly_one_subcommand(monkeypatch):
    ops = {
        "enumerate_characters", "conductor", "gauss_sum",
        "l_function", "completed_xi", "find_critical_zero",
        "ratio_monotonicity_scan", "rhs_decreasing_scan",
        "graph_l_n", "graph_xi_n", "asymptotic_l_n", "alpha", "xi_ratio",
        "ratio_experiment", "graph_l_general", "cycle_spectrum",
        "s_power_sum", "s_power_sum_range", "faulhaber_rhs",
        "corollary6_check", "cos_power_sum", "cos_scan", "corollary5_scan",
    }
    assert set(_ONE_ARGV) == set(DISPATCH)
    assert set(OPERATION_SUBCOMMANDS.values()) <= set(DISPATCH)
    assert set(OPERATION_SUBCOMMANDS) | _LIBRARY_ONLY == ops
    assert not _LIBRARY_ONLY & set(OPERATION_SUBCOMMANDS)
    called = _spy_on(set(OPERATION_SUBCOMMANDS) | _LIBRARY_ONLY, monkeypatch)
    for key, argv in _ONE_ARGV.items():
        called.clear()
        code, _ = _run_quiet(argv.split())
        assert code == 0, argv
        wanted = {op for op, k in OPERATION_SUBCOMMANDS.items() if k == key}
        assert wanted <= called, f"{argv} never calls {sorted(wanted - called)}"
        assert not called & _LIBRARY_ONLY, f"{argv} calls {sorted(called & _LIBRARY_ONLY)}"
