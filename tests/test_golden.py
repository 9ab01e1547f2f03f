"""Golden outputs: the CLI's CSV, JSON, sidecars and summaries against
files stored in tests/golden.

Everything but the numbers (headers, separators, row counts, names,
tokens such as NA) must match exactly.  A number must keep its exponent
and agree to GOLDEN_RTOL relative, and each file must keep its largest
count of significant digits, so a last-digit flip from another libm or
BLAS passes while a change of format, order, column or precision fails.

The stored files are the reference; regenerate them only for a
deliberate output change, and list the changed cells with it.  `python
tests/test_golden.py NAME ...` rewrites the files of the named cases
alone, and with no name those of every case; an unknown name is refused.
"""

import contextlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from dicke_therm.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-11

# name -> (argv with {dir} for the output directory, files written there)
CASES = {
    "validate": (["validate", "--out", "{dir}/validate.csv"],
                 ["validate.csv", "validate.csv.meta.json"]),
    # cold and negative-eta cells: skipped rows of both underflow notes,
    # finite cold eq17 and eq18_ratio rows and the eq16 probe rows
    "validate_cold": (["validate", "--n", "2,7", "--eta=-0.1,0,0.1",
                       "--x", "1e-6,10,745.25,1500", "--out", "{dir}/validate_cold.csv"],
                      ["validate_cold.csv", "validate_cold.csv.meta.json"]),
    # two N with both underflow notes and the eq16 probe rows, and a
    # mid-window x = 5 that no row reads
    "validate_mixed": (["validate", "--n", "2,40", "--eta=-0.1,0,0.2",
                        "--x", "1e-6,5,30,800", "--out", "{dir}/validate_mixed.csv"],
                       ["validate_mixed.csv", "validate_mixed.csv.meta.json"]),
    "sweep_all": (["sweep", "--n", "2,3", "--eta", "0,0.1", "--x-start", "1",
                   "--x-stop", "1000", "--x-count", "5", "--x-scale", "log",
                   "--out", "{dir}/sweep_all.csv"],
                  ["sweep_all.csv", "sweep_all.csv.meta.json"]),
    "sweep_ratio": (["sweep", "--n", "2,7", "--eta=-0.1,0.1", "--x-start", "0.001",
                     "--x-stop", "20", "--x-count", "7", "--x-scale", "log",
                     "--outputs", "ratio", "--out", "{dir}/sweep_ratio.csv"],
                    ["sweep_ratio.csv", "sweep_ratio.csv.meta.json"]),
    # the benchmark's large-N grid: cold rows whose ladder terms underflow
    "sweep_large": (["sweep", "--n", "10000,100000", "--eta=-0.1,0,0.1", "--x-start",
                     "0.001", "--x-stop", "1000", "--x-count", "10", "--x-scale", "log",
                     "--out", "{dir}/sweep_large.csv"],
                    ["sweep_large.csv", "sweep_large.csv.meta.json"]),
    "evolve": (["evolve", "--n", "3", "--eta", "0.1", "--x", "1", "--t-end", "2",
                "--samples", "11", "--out", "{dir}/evolve.csv"],
               ["evolve.csv", "evolve.csv.meta.json"]),
    # the benchmark's evolve command: 201 rows of 26 cells, default step
    "evolve_n20": (["evolve", "--n", "20", "--eta", "0.1", "--x", "1", "--t-end", "0.2",
                    "--samples", "201", "--out", "{dir}/evolve_n20.csv"],
                   ["evolve_n20.csv", "evolve_n20.csv.meta.json"]),
    # a non-default start: pins the first sample's diagnostics
    "evolve_equal": (["evolve", "--n", "5", "--eta=-0.1", "--x", "10", "--t-end", "2",
                      "--samples", "11", "--init", "equal", "--out", "{dir}/evolve_equal.csv"],
                     ["evolve_equal.csv", "evolve_equal.csv.meta.json"]),
    "point": (["point", "--n", "2", "--eta", "0.1", "--x", "10"], []),
    # an underflowed point: null cells and the reason
    "point_cold": (["point", "--n", "2", "--eta", "0.1", "--x", "2000"], []),
    # cold NA rows beside the empty cells of unrequested columns
    "sweep_subset_cold": (["sweep", "--n", "2,7", "--eta", "0,0.1", "--x-start", "1",
                           "--x-stop", "2000", "--x-count", "6", "--x-scale", "log",
                           "--outputs", "g1,classification",
                           "--out", "{dir}/sweep_subset_cold.csv"],
                          ["sweep_subset_cold.csv", "sweep_subset_cold.csv.meta.json"]),
    # a short precision over every output: NA cells, ratio cells of 1.0
    # and mantissas of fewer than 3 digits; a lone emitter admits eta = 0
    # only, so its g2 = 0 rows are a case of their own
    "sweep_precision": (["sweep", "--n", "2", "--eta=0,0.1", "--x-start", "0.5",
                         "--x-stop", "2000", "--x-count", "7", "--x-scale", "log",
                         "--precision", "3", "--out", "{dir}/sweep_precision.csv"],
                        ["sweep_precision.csv", "sweep_precision.csv.meta.json"]),
    "sweep_precision_n1": (["sweep", "--n", "1", "--eta=0", "--x-start", "0.5",
                            "--x-stop", "2000", "--x-count", "7", "--x-scale", "log",
                            "--precision", "3", "--out", "{dir}/sweep_precision_n1.csv"],
                           ["sweep_precision_n1.csv", "sweep_precision_n1.csv.meta.json"]),
    # the help bytes, wrapped at the 80 columns run_case sets
    "sweep_help": (["sweep", "--help"], []),
    # the benchmark's main workload: the four preset figure files, 2,700 rows
    "figures": (["figures", "--out-dir", "{dir}"],
                [f"fig{i}{suffix}" for i in range(1, 5) for suffix in (".csv", ".csv.meta.json")]),
}

# a number standing alone: not part of a name such as p_0 or a version
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])", re.I)


def run_case(name, out_dir):
    """Exit code and {file name: text} of one case, stdout included with
    the output directory replaced by {dir}; argparse wraps help and usage
    text at COLUMNS, set to 80."""
    argv, files = CASES[name]
    stdout = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(stdout):
        code = main([arg.replace("{dir}", str(out_dir)) for arg in argv])
    texts = {f: (out_dir / f).read_text(encoding="ascii") for f in files}
    texts[f"{name}.stdout"] = stdout.getvalue().replace(str(out_dir), "{dir}")
    return code, texts


def same_number(got: str, want: str) -> bool:
    exponent = got.partition("e")[2] == want.partition("e")[2]
    return got == want or exponent and math.isclose(
        float(got), float(want), rel_tol=GOLDEN_RTOL, abs_tol=0.0
    )


def significant_digits(numbers: list[str]) -> int:
    """The largest count of mantissa digits among the numbers."""
    return max((len(re.sub(r"\D", "", s.lower().partition("e")[0]).lstrip("0"))
                for s in numbers), default=0)


def assert_same_text(name: str, got: str, want: str) -> None:
    """Equal text with every number masked, every number within
    GOLDEN_RTOL under the same exponent, and the same precision."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want), f"{name}: text around the numbers"
    got_numbers, want_numbers = _NUMBER.findall(got), _NUMBER.findall(want)
    for i, (g, w) in enumerate(zip(got_numbers, want_numbers)):
        assert same_number(g, w), f"{name}, number {i}: {g!r} != {w!r}"
    assert significant_digits(got_numbers) == significant_digits(want_numbers), \
        f"{name}: precision"


def assert_golden(texts: dict[str, str]) -> None:
    for file_name, text in texts.items():
        want = (GOLDEN / file_name).read_text(encoding="ascii")
        assert_same_text(file_name, text, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    code, texts = run_case(name, tmp_path)
    assert code == 0
    assert_golden(texts)


# more than any output: a re-run must leave none of it behind
JUNK = b"0123456789,junk\n" * 65536


@pytest.mark.parametrize("name", sorted(name for name, (_, files) in CASES.items() if files))
def test_rerun_over_longer_files_matches_golden(name, tmp_path):
    """Every output path holds 1 MiB of junk before the run; the files
    left are the bytes a run into an empty directory writes."""
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    fresh.mkdir()
    rerun.mkdir()
    files = CASES[name][1]
    for file_name in files:
        (rerun / file_name).write_bytes(JUNK)
    code, texts = run_case(name, rerun)
    assert code == 0
    assert run_case(name, fresh) == (code, texts)
    for file_name in files:
        assert (rerun / file_name).read_bytes() == (fresh / file_name).read_bytes()
    assert_golden(texts)


def test_figures_twice_into_one_directory(tmp_path):
    first = run_case("figures", tmp_path)
    assert run_case("figures", tmp_path) == first
    assert_golden(first[1])


def test_comparison_passes_last_digit_flips_only():
    want = (GOLDEN / "sweep_all.csv").read_text(encoding="ascii")
    assert_same_text("flip", want.replace("0.803388066759", "0.803388066758"), want)
    lines = want.splitlines(keepends=True)
    changed = {
        "rows swapped": "".join([lines[0], lines[2], lines[1], *lines[3:]]),
        "one digit fewer": _NUMBER.sub(lambda m: format(float(m[0]), ".11g"), want),
        "column renamed": want.replace("ratio", "intensity_ratio"),
        "NA as empty": want.replace("NA", ""),
        "exponent form": want.replace("e-14", "E-14"),
    }
    for label, text in changed.items():
        with pytest.raises(AssertionError):
            assert_same_text(label, text, want)


def regenerate(names, golden=GOLDEN):
    """Rewrite the golden files of the named cases, every case when names
    is empty, from the package on sys.path; an unknown name is refused
    before any file is written."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown golden cases {unknown}; known: {sorted(CASES)}")
    golden.mkdir(exist_ok=True)
    for case in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, text in run_case(case, Path(tmp))[1].items():
                (golden / file_name).write_text(text, encoding="ascii")


def test_regeneration_writes_the_named_cases_only(tmp_path):
    with pytest.raises(ValueError, match=r"unknown golden cases \['nope'\]"):
        regenerate(["point", "nope"], tmp_path)
    assert not any(tmp_path.iterdir())
    regenerate(["point", "sweep_all"], tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "point.stdout", "sweep_all.csv", "sweep_all.csv.meta.json", "sweep_all.stdout"]


if __name__ == "__main__":
    try:
        regenerate(sys.argv[1:])
    except ValueError as exc:
        sys.exit(str(exc))
