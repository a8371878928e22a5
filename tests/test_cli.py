import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclospec
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


def test_hypothesis_violation_exit_2(capsys):
    # char index 1 mod 5 is odd: ln eval must refuse with a diagnostic
    code, _, err = run_capture(
        ["ln", "eval", "--modulus", "5", "--char-index", "1", "--n", "4", "--s", "0.5,0"],
        capsys)
    assert code == 2
    assert "odd" in err


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
    "ln eval --modulus 5 --char-index 2 --n 4 --s 0.5,1e6",
    "sums faulhaber --modulus 5 --char-index 2 --n 2 --m 200",
    "sums faulhaber --modulus 5 --char-index 2 --n 1 --m 100",
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


@settings(max_examples=200, deadline=None)
@given(cmd=st.sampled_from(["l", "ln"]),
       modulus=st.integers(min_value=3, max_value=30),
       index=st.integers(min_value=0, max_value=12),
       n=st.integers(min_value=1, max_value=40),
       re=st.one_of(st.floats(), st.floats(min_value=-400.0, max_value=400.0)),
       im=st.one_of(st.floats(), st.floats(min_value=-120.0, max_value=120.0)))
def test_eval_never_raises_and_exit_0_is_finite(cmd, modulus, index, n, re, im):
    argv = [cmd, "eval", "--modulus", str(modulus), "--char-index", str(index),
            f"--s={re!r},{im!r}"]
    if cmd == "ln":
        argv += ["--n", str(n)]
    code, out = _run_quiet(argv)
    assert code in (0, 1, 2)
    if code == 0:
        header, row = out.splitlines()
        for name, cell in zip(header.split(","), row.split(",")):
            if cell:
                assert math.isfinite(float(cell)), (argv, name, cell)


# ---------------------------------------------------------------------------
# dispatch coverage
# ---------------------------------------------------------------------------

def test_every_operation_has_exactly_one_subcommand():
    ops = {
        "enumerate_characters", "conductor", "gauss_sum",
        "l_function", "completed_xi", "find_critical_zero",
        "ratio_monotonicity_scan", "rhs_decreasing_scan",
        "graph_l_n", "graph_xi_n", "asymptotic_l_n", "alpha", "xi_ratio",
        "ratio_experiment", "graph_l_general", "cycle_spectrum",
        "s_power_sum", "s_power_sum_range", "faulhaber_rhs",
        "corollary6_check", "cos_power_sum", "cos_scan", "corollary5_scan",
    }
    assert set(OPERATION_SUBCOMMANDS) == ops
    for op, key in OPERATION_SUBCOMMANDS.items():
        assert key in DISPATCH, f"{op} mapped to unknown subcommand {key}"
        assert hasattr(cyclospec, op)
