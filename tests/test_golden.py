"""Golden outputs: the CLI's CSV, JSON, sidecars and summaries against
files stored in tests/golden.

Everything but the numbers (headers, separators, row counts, names,
tokens such as NA) must match exactly.  A number must keep its exponent
and agree to GOLDEN_RTOL relative, and each file must keep its largest
count of significant digits, so a last-digit flip from another libm or
BLAS passes while a change of format, order, column or precision fails.

The stored files are the reference; regenerate them (`python
tests/test_golden.py`) only for a deliberate output change, and list the
changed cells with it.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest

from dicke_therm.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-11

# name -> (argv with {dir} for the output directory, files written there)
CASES = {
    "validate": (["validate", "--out", "{dir}/validate.csv"],
                 ["validate.csv", "validate.csv.meta.json"]),
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
}

# a number standing alone: not part of a name such as p_0 or a version
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])", re.I)


def run_case(name, out_dir):
    """Exit code and {file name: text} of one case, stdout included with
    the output directory replaced by {dir}."""
    argv, files = CASES[name]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    code, texts = run_case(name, tmp_path)
    assert code == 0
    for file_name, text in texts.items():
        want = (GOLDEN / file_name).read_text(encoding="ascii")
        assert_same_text(file_name, text, want)


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


if __name__ == "__main__":
    # regenerate the golden files from the package on sys.path
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, text in run_case(case, Path(tmp))[1].items():
                (GOLDEN / file_name).write_text(text, encoding="ascii")
