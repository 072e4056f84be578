"""Command-line behavior: exit codes, formats, determinism, golden diffs."""

import argparse
import concurrent.futures
import gc
import json
import os
import subprocess
import sys

import pytest

import formchains.cli as cli
from formchains.cli import main
from formchains.superchain import WeightedComplex


# --- validate -------------------------------------------------------------------

def test_validate_catalog_ok(capsys):
    assert main(["validate", "--algebra", "so3"]) == 0
    out = capsys.readouterr().out
    assert "jacobi ok" in out
    assert "super Jacobi holds" in out


def test_validate_rejects_kappa_zero(capsys):
    assert main(["validate", "--algebra", "d2(0)"]) == 2
    assert "kappa != 0" in capsys.readouterr().err


def test_validate_unknown_algebra(capsys):
    assert main(["validate", "--algebra", "nope"]) == 2
    assert "unknown algebra" in capsys.readouterr().err


def test_validate_good_file(tmp_path):
    path = tmp_path / "alg.txt"
    path.write_text("# a 2-dimensional algebra\n1 2 1 2\n")
    assert main(["validate", "--algebra", str(path)]) == 0


def test_validate_jacobi_violation_exits_one(tmp_path, capsys):
    # [x1,x2]=x3, [x1,x3]=x1 breaks Jacobi: [[x3,x1],x2] = -x3, rest vanish
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3 1\n1 3 1 1\n")
    assert main(["validate", "--algebra", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("constants, lie, forms", [
    ("1 2 1 1\n1 3 2 1\n", "1", "-2"),
    ("1 2 1 1/3\n1 3 2 1/2\n", "1/6", "-1/3"),
], ids=["integral", "rational"])
def test_validate_prints_exact_residuals(constants, lie, forms, tmp_path, capsys):
    # residual coefficients print as numbers, whatever their type
    path = tmp_path / "bad.txt"
    path.write_text(constants)
    assert main(["validate", "--algebra", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"{path}: jacobi FAILED: first violation at (i,j,k,l)=(1,2,3,2) "
        f"residual {lie} (1 of 3 residuals nonzero)\n"
        f"{path} forms: super Jacobi FAILS at ((), (), (2,)) "
        f"(residual {{(1, 2, 3): {forms}}}), 3 triples checked\n")


@pytest.mark.parametrize("command", ["betti", "extended"])
def test_non_lie_algebra_rejected_before_homology(command, tmp_path, capsys):
    # the same structure constants as above: with Jacobi broken dd != 0
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3 1\n1 3 1 1\n")
    assert main([command, "--algebra", str(path), "--w", "3"]) == 2
    out, err = capsys.readouterr()
    assert "jacobi FAILED" in err
    assert out == ""


def test_validate_takes_no_cap(capsys):
    # validate enumerates nothing: a cap there would be read by nobody
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--algebra", "so3", "--cap", "5"])
    assert exc.value.code == 2


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "mangled.txt"
    path.write_text("1 2 spam 1\n")
    assert main(["validate", "--algebra", str(path)]) == 2


def test_validate_names_the_line_of_a_bad_constant(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3 1\n0 1 2 1\n")
    assert main(["validate", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: index 0 outside 1..3\n"


def test_validate_names_the_line_when_no_index_is_positive(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("0 0 0 1\n")
    assert main(["validate", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1: index 0 outside 1..1\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "--algebra", "no/such/file.txt"]) == 2


def test_kappa_needs_d2(capsys):
    assert main(["validate", "--algebra", "so3", "--kappa", "2"]) == 2
    assert "--kappa" in capsys.readouterr().err


def test_main_leaves_no_parser_to_collect(capsys):
    # a parser built per call is a reference cycle that only a full
    # collection frees, so peak memory would follow the collector's phase
    assert main(["validate", "--algebra", "so3"]) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["validate", "--algebra", "so3"]) == 0
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


# --- betti ----------------------------------------------------------------------

def test_betti_dim2_csv(capsys):
    assert main(["betti", "--algebra", "dim2", "--w", "2",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "algebra,weight,m,dim,rank,kernel,betti\n"
        "dim2,-2,1,2,0,2,2\n"
        "dim2,-2,2,1,0,1,1\n"
    )


def test_betti_so3_w10_row(capsys):
    assert main(["betti", "--algebra", "so3", "--w", "10",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    betti = tuple(int(r.split(",")[-1]) for r in rows)
    assert betti == (0, 0, 0, 16, 0, 0, 1, 0, 0, 1)


def test_betti_abelian_equals_dims(capsys):
    assert main(["betti", "--algebra", "abelian(3)", "--w", "4",
                 "--format", "csv"]) == 0
    for row in capsys.readouterr().out.splitlines()[1:]:
        _, _, _, dim, rank, kernel, betti = row.split(",")
        assert rank == "0"
        assert dim == betti == kernel


def test_betti_infeasible_weight_empty_table(capsys):
    assert main(["betti", "--algebra", "so3", "--w", "0",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == "algebra,weight,m,dim,rank,kernel,betti\n"


def test_weight_flags_are_exclusive(capsys):
    assert main(["betti", "--algebra", "so3"]) == 2
    assert main(["betti", "--algebra", "so3", "--w", "2",
                 "--w-range", "1:2"]) == 2


def test_w_range_json(capsys):
    assert main(["betti", "--algebra", "dim2", "--w-range", "1:3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["weight"] for entry in payload] == [-1, -2, -3]
    assert payload[2]["betti"] == [0, 1, 1]


def test_bad_w_range(capsys):
    assert main(["betti", "--algebra", "dim2", "--w-range", "x:y"]) == 2


@pytest.mark.parametrize("spaced, same", [
    (["--algebra", "so3", "--w-range", "-1:-3"],
     [["--algebra", "so3", "--w-range=-1:-3"], ["--algebra", "so3", "--w-range", "1:3"]]),
    (["--algebra", "d2", "--kappa", "-3/2", "--w-range", "1:4"],
     [["--algebra", "d2", "--kappa=-3/2", "--w-range", "1:4"]]),
    # argparse takes a unique prefix of a flag, so the join does too
    (["--algebra", "so3", "--w-ran", "-1:-3"], [["--algebra", "so3", "--w-range=-1:-3"]]),
    (["--algebra", "d2", "--kap", "-3/2", "--w", "2"],
     [["--algebra", "d2", "--kappa=-3/2", "--w", "2"]]),
], ids=["w-range", "kappa", "w-ran", "kap"])
def test_signed_values_may_follow_their_flag(spaced, same, capsys):
    # argparse alone reads -1:-3 and -3/2 as options: "expected one argument"
    def run(argv):
        code = main(["betti", *argv, "--format", "csv"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = run(spaced)
    assert (code, err) == (0, "")
    assert out.count("\n") > 1
    for argv in same:
        assert run(argv) == (code, out, err)


def test_a_whole_flag_is_no_prefix_of_a_signed_value_flag(capsys):
    # --w is an option of its own, not short for --w-range
    with pytest.raises(SystemExit):
        main(["betti", "--algebra", "so3", "--w", "-1:-3"])
    assert "--w: expected one argument" in capsys.readouterr().err


def test_a_flag_after_a_signed_value_flag_is_no_value(capsys):
    with pytest.raises(SystemExit):
        main(["betti", "--algebra", "d2", "--kappa", "--w", "3"])
    assert "--kappa: expected one argument" in capsys.readouterr().err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["betti", "--algebra", "dim2", "--w", "3",
                 "--format", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("algebra,weight,m,")


def test_generic_kappa_matches_unit_kappa(capsys):
    # away from the trace-free point kappa=-1, the d2 homology is constant
    def run(selector, kappa=None):
        argv = ["betti", "--algebra", selector,
                "--w-range", "1:6", "--format", "json"]
        if kappa is not None:
            argv.insert(3, f"--kappa={kappa}")
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload:
            entry.pop("algebra")
        return payload

    unit = run("d2", "1")
    assert run("d2", "2") == unit
    assert run("d2", "-3/2") == unit
    assert run("d2n") == unit            # catalog alias for kappa = 1
    assert run("d2", "-1") == run("d2y") # the special trace-free member
    assert run("d2", "-1") != unit


# --- extended and polyweight -------------------------------------------------------

def test_extended_euler_column_zero(capsys):
    assert main(["extended", "--algebra", "d1n", "--w-range", "1:3",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(",euler")
    assert all(line.endswith(",0") for line in lines[1:])


def test_extended_k0_restriction_matches_betti(capsys):
    # extended dims convolve the plain ones; the Betti rows themselves are
    # compared in the extension tests, here just pin the emitted euler
    assert main(["extended", "--algebra", "so3", "--w", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["algebra"] == "so3+T"
    assert payload[0]["dims"] == [3, 12, 19, 15, 6, 1]
    assert payload[0]["euler"] == 0


def test_polyweight_matches_golden_rows(capsys):
    assert main(["polyweight", "--n", "1", "--h", "0", "--w", "2",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "algebra,weight,h,m,dim,rank,kernel,betti,euler\n"
        "poly1,-2,0,1,1,0,1,0,1\n"
        "poly1,-2,0,2,2,1,1,1,1\n"
    )


def test_polyweight_vectors_allow_weight_zero(capsys):
    assert main(["polyweight", "--n", "1", "--h", "0", "--w", "0",
                 "--vectors", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header + degrees 1..3


@pytest.mark.parametrize("n", ["0", "-1"])
def test_polyweight_rejects_nonpositive_n(n, capsys):
    assert main(["polyweight", "--n", n, "--h", "0", "--w", "1"]) == 2
    assert f"n = {n}" in capsys.readouterr().err


def test_polyweight_text_with_no_degrees(capsys):
    # h = -5 trims the support to m_top = 0: an empty table, not a crash
    assert main(["polyweight", "--n", "1", "--h", "-5", "--w", "1"]) == 0
    assert capsys.readouterr().out.endswith("Euler 0\n")


def test_polyweight_with_a_long_level_list(capsys):
    # h = 1500 gives about 3,000 levels; counting and the basis walk must not
    # recurse once per level
    assert main(["polyweight", "--n", "1", "--w", "1", "--cap", "100",
                 "--h", "1500"]) == 0
    assert capsys.readouterr().out == (
        "poly1, w = -1, h = 1500\n"
        "    m     1\n"
        "  dim     1\n"
        " rank     0\n"
        "  ker     1\n"
        "Betti     1\n"
        "Euler -1\n")


def test_polyweight_off_diagonal_vectors_take_ranks_from_counts():
    # h != w: the Euler field makes the complex acyclic, so no boundary is
    # assembled; the full elimination took over 15 s here
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "formchains.cli", "polyweight", "--n", "2",
         "--h", "1", "--w", "1", "--vectors"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "poly2+T, w = -1, h = 1\n"
        "    m     1     2     3     4     5     6     7     8     9    10    11\n"
        "  dim     3    40   238   848  1976  3112  3321  2332   999   220    15\n"
        " rank     0     3    37   201   647  1329  1783  1538   794   205    15\n"
        "  ker     3    37   201   647  1329  1783  1538   794   205    15     0\n"
        "Betti     0     0     0     0     0     0     0     0     0     0     0\n"
        "Euler 0\n")


# --- determinism and parallelism ----------------------------------------------------

def test_jobs_do_not_change_bytes(capsys):
    argv = ["betti", "--algebra", "sl2r", "--w-range", "1:6",
            "--format", "csv"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "3"]) == 0
    assert capsys.readouterr().out == serial


def test_the_cli_loads_no_process_pool_until_jobs_ask_for_one():
    # the pool machinery (multiprocessing, sockets, pickle) costs every
    # serial run about 1.3 MB of peak memory
    script = ("import sys\nimport formchains.cli as cli\n"
              "cli.main(['betti', '--algebra', 'so3', '--w', '3'])\n"
              "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
              "             if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_jobs_never_exceed_tasks(monkeypatch, capsys):
    # a stand-in pool that records its size and maps in-process: no
    # worker is ever started, whatever --jobs asks for
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_reports imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    argv = ["betti", "--algebra", "so3", "--w-range", "1:3", "--format", "csv"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert sizes == []
    assert main(argv + ["--jobs", "64"]) == 0
    assert sizes == [3]
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_below_one_rejected(jobs, capsys):
    assert main(["betti", "--algebra", "so3", "--w", "2", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"


# --- caps ---------------------------------------------------------------------------

def test_cap_flag_exceeded(capsys):
    assert main(["betti", "--algebra", "so3", "--w", "10", "--cap", "5"]) == 2
    assert "enumeration cap exceeded" in capsys.readouterr().err


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FORMCHAINS_CAP", "5")
    assert main(["betti", "--algebra", "so3", "--w", "10"]) == 2
    capsys.readouterr()
    # an explicit flag beats the environment
    assert main(["betti", "--algebra", "so3", "--w", "10",
                 "--cap", "100000"]) == 0


@pytest.mark.parametrize("argv, message", [
    (["--n", "1", "--h", "40", "--cap", "100"],
     "484 monomials at degree 3, weight (-1, 40), more than the cap 100"),
    (["--n", "2", "--h", "3", "--cap", "50"],
     "112 monomials at degree 2, weight (-1, 3), more than the cap 50"),
    (["--n", "1", "--h", "80", "--cap", "100"],
     "1764 monomials at degree 3, weight (-1, 80), more than the cap 100"),
    (["--n", "1", "--h", "300", "--cap", "100"],
     "303 monomials at degree 2, weight (-1, 300), more than the cap 100"),
], ids=["n1-h40", "n2-h3", "n1-h80", "n1-h300"])
def test_polyweight_cap_fails_fast_with_the_exact_size(argv, message):
    # the cap is checked against a count, so a huge support exits at once
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "formchains.cli", "polyweight", "--w", "1",
         "--vectors", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"enumeration cap exceeded: {message}\n"


@pytest.mark.parametrize("flag, env, named", [
    (["--cap", "-1"], None, "--cap must be an integer >= 0, got '-1'"),
    ([], "many", "FORMCHAINS_CAP must be an integer >= 0, got 'many'"),
    ([], "-5", "FORMCHAINS_CAP must be an integer >= 0, got '-5'"),
])
def test_bad_cap_rejected_up_front(flag, env, named, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("FORMCHAINS_CAP", env)
    assert main(["betti", "--algebra", "so3", "--w", "3"] + flag) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "enumeration cap exceeded" not in err


# --- goldens ---------------------------------------------------------------------------

def test_goldens_pass(capsys):
    assert main(["goldens"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 5
    assert "MISMATCH" not in out


def test_goldens_share_one_complex_across_the_3d_families(monkeypatch):
    # dim2, n3_dims, the five families, extended so3 and four poly_n1_h0 rows
    built = []
    init = WeightedComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedComplex, "__init__", counting_init)
    cli.golden_payloads()
    assert len(built) == 8
    cli.golden_payloads()
    assert len(built) == 16


@pytest.mark.parametrize("cap, err", [
    ("0", "1 monomials at degree 1, weight -1, more than the cap 0"),
    ("3", "10 monomials at degree 2, weight -5, more than the cap 3"),
    ("10", "38 monomials at degree 4, weight -10, more than the cap 10"),
    ("20", "38 monomials at degree 4, weight -10, more than the cap 20"),
    ("40", None),
])
def test_goldens_cap_errors(cap, err, capsys):
    code = main(["goldens", "--cap", cap])
    captured = capsys.readouterr()
    if err is None:
        assert (code, captured.err) == (0, "")
        assert captured.out.count(": ok") == 5
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"enumeration cap exceeded: {err}\n"


def test_goldens_detect_perturbation(tmp_path, monkeypatch, capsys):
    # copy the shipped tables, then corrupt one entry of one table
    import shutil

    fake = tmp_path / "goldens"
    shutil.copytree(cli.GOLDEN_DIR, fake)
    victim = fake / "weighted_tables.csv"
    text = victim.read_text()
    assert "d3,-10,4,38,6,32,16\n" in text
    victim.write_text(text.replace("d3,-10,4,38,6,32,16\n",
                                   "d3,-10,4,38,6,32,17\n"))
    monkeypatch.setattr(cli, "GOLDEN_DIR", str(fake))
    assert main(["goldens"]) == 1
    out = capsys.readouterr().out
    assert "weighted_tables.csv: MISMATCH" in out
    assert "algebra=d3, weight=-10, m=4: betti expected 17, got 16" in out


@pytest.fixture
def golden_copy(tmp_path, monkeypatch):
    """A scratch copy of the shipped tables that `goldens` reads instead."""
    import shutil

    fake = tmp_path / "goldens"
    shutil.copytree(cli.GOLDEN_DIR, fake)
    monkeypatch.setattr(cli, "GOLDEN_DIR", str(fake))
    return fake


def test_goldens_row_of_wrong_width_is_a_mismatch(golden_copy, capsys):
    victim = golden_copy / "dim2_betti.csv"
    lines = victim.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\n") + ",9\n"
    victim.write_text("".join(lines))
    assert main(["goldens"]) == 1
    out = capsys.readouterr().out
    assert "dim2_betti.csv: MISMATCH" in out
    assert "dim2_betti.csv: line 3: expected 7 fields, got 8" in out


def test_goldens_empty_file_is_a_mismatch(golden_copy, capsys):
    (golden_copy / "dim2_betti.csv").write_text("")
    assert main(["goldens"]) == 1
    out = capsys.readouterr().out
    assert "dim2_betti.csv: MISMATCH" in out
    assert "dim2_betti.csv: empty" in out


def test_goldens_missing_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "GOLDEN_DIR", str(tmp_path))
    assert main(["goldens"]) == 2
    assert "golden file missing" in capsys.readouterr().err
