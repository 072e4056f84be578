"""The command line's bytes: each case's exit code, stdout and stderr, run
in process, must equal its frozen transcript in tests/cli_output/<id>.txt."""

from pathlib import Path

import pytest

from formchains.cli import main

ROOT = Path(__file__).resolve().parent.parent
FROZEN = ROOT / "tests" / "cli_output"
# relative to ROOT, so the name the reports print is the same everywhere
BREAKS_JACOBI = "tests/cli_output/breaks_jacobi.constants"

CASES = {
    "validate-so3": ["validate", "--algebra", "so3"],
    "validate-d2-kappa": ["validate", "--algebra", "d2", "--kappa", "2"],
    "validate-breaks-jacobi": ["validate", "--algebra", BREAKS_JACOBI],
    "validate-unknown": ["validate", "--algebra", "nope"],
    "betti-text": ["betti", "--algebra", "so3", "--w", "4"],
    "betti-csv": ["betti", "--algebra", "dim2", "--w-range", "1:5", "--format", "csv"],
    "betti-json": ["betti", "--algebra", "d1n", "--w", "3", "--format", "json"],
    "betti-w-range-signed": ["betti", "--algebra", "so3", "--w-range", "-1:-3"],
    "betti-w-ran": ["betti", "--algebra", "so3", "--w-ran", "-1:-3", "--format", "csv"],
    "betti-kappa": ["betti", "--algebra", "d2", "--kappa", "-3/2", "--w-range", "1:3"],
    "betti-w-signed-range": ["betti", "--algebra", "so3", "--w", "-1:-3"],
    "betti-w-zero": ["betti", "--algebra", "so3", "--w", "0"],
    "betti-no-weight": ["betti", "--algebra", "so3"],
    "betti-cap": ["betti", "--algebra", "so3", "--w", "10", "--cap", "5"],
    "betti-bad-cap-before-weights": ["betti", "--algebra", "so3", "--cap", "-1"],
    "betti-unknown": ["betti", "--algebra", "nope", "--w", "3"],
    "betti-breaks-jacobi": ["betti", "--algebra", BREAKS_JACOBI, "--w", "3"],
    "betti-jobs2": ["betti", "--algebra", "so3", "--w-range", "1:4", "--jobs", "2",
                    "--format", "csv"],
    "betti-jobs0": ["betti", "--algebra", "so3", "--w", "2", "--jobs", "0"],
    "extended-text": ["extended", "--algebra", "so3", "--w", "3"],
    "extended-csv": ["extended", "--algebra", "d1n", "--w-range", "1:3", "--format", "csv"],
    "extended-json": ["extended", "--algebra", "sl2r", "--w", "2", "--format", "json"],
    "extended-unknown-before-cap": ["extended", "--algebra", "nope", "--cap", "-1", "--w", "2"],
    "polyweight-n1-csv": ["polyweight", "--n", "1", "--h", "0", "--w-range", "1:4",
                          "--format", "csv"],
    "polyweight-n2": ["polyweight", "--n", "2", "--h", "-1", "--w", "2"],
    "polyweight-n1-vectors-diagonal": ["polyweight", "--n", "1", "--h", "0", "--w", "0",
                                       "--vectors"],
    "polyweight-n1-vectors-off": ["polyweight", "--n", "1", "--h", "1", "--w-range", "0:2",
                                  "--vectors"],
    "polyweight-n2-vectors-diagonal": ["polyweight", "--n", "2", "--h", "-1", "--w", "1",
                                       "--vectors", "--format", "json"],
    "polyweight-n2-vectors-off": ["polyweight", "--n", "2", "--h", "0", "--w", "2",
                                  "--vectors", "--format", "csv"],
    "polyweight-jobs2": ["polyweight", "--n", "1", "--h", "0", "--w-range", "1:4",
                         "--jobs", "2"],
    "polyweight-cap-n1": ["polyweight", "--n", "1", "--h", "40", "--w", "1", "--vectors",
                          "--cap", "100"],
    "polyweight-cap-n2": ["polyweight", "--n", "2", "--h", "3", "--w", "1", "--vectors",
                          "--cap", "50"],
    "polyweight-n0": ["polyweight", "--n", "0", "--h", "0", "--w", "1"],
    "polyweight-bad-cap-before-weights": ["polyweight", "--n", "0", "--h", "0", "--cap", "-1"],
    "goldens": ["goldens"],
    "goldens-cap10": ["goldens", "--cap", "10"],
}


def transcript(argv, capsys) -> str:
    """Exit code, stdout and stderr of one in-process run."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out, err = capsys.readouterr()
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def test_every_frozen_transcript_has_a_case():
    assert sorted(p.stem for p in FROZEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_frozen(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("FORMCHAINS_CAP", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to this
    got = transcript(CASES[case], capsys)
    assert got.encode() == (FROZEN / f"{case}.txt").read_bytes()
