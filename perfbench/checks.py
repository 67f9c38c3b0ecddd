"""Parsing of fuzzrel CLI output and the verdict on each operation.

Verdicts:
  ok            the output is right.
  typed_error   a non-zero exit whose typed error message is one of
                the known defects the operation may meet. The
                operation failed, but no wrong answer was given.
  missed_check  a simulated estimate lies more than 3 standard errors
                from the analytic value. This happens by chance about
                once in 100 to 400 estimates, so the operation counts
                as failed but not as a wrong answer.
  wrong         a wrong or unreadable answer, an unexpected exit code
                or error message, an uncaught exception, or an estimate beyond 5
                standard errors or above its standard-error ceiling.

Every verdict but ok counts as a failed operation. Only wrong makes
the run incorrect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import oracle

OK = "ok"
TYPED_ERROR = "typed_error"
MISSED_CHECK = "missed_check"
WRONG = "wrong"

TYPED_EXIT_CODES = (2, 3, 4, 5)
SIM_MISS_SE = 3.0
SIM_WRONG_SE = 5.0


@dataclass(frozen=True)
class Outcome:
    """What one CLI call returned: exit code (None if it raised) and output."""

    code: int | None
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != OK


def exit_verdict(outcome: Outcome, known_errors: tuple[str, ...]) -> Verdict | None:
    """Verdict for a call that did not exit 0, or None when it did.

    `known_errors` are regular expressions for the messages of the known
    defects the operation may meet; any other error is a wrong answer.
    """
    if outcome.code == 0:
        return None
    message = outcome.stderr.strip().splitlines()[-1] if outcome.stderr.strip() else ""
    if outcome.code in TYPED_EXIT_CODES and any(
        re.fullmatch(f"error: {pattern}", message) for pattern in known_errors
    ):
        return Verdict(TYPED_ERROR, f"exit {outcome.code}: {message}")
    return Verdict(WRONG, f"exit {outcome.code}: {message}")


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def compare_rows(rows, expected: dict[float, tuple[float, float]], tol: float,
                 lo_col: int, hi_col: int) -> list[str]:
    """Problems where a CSV's (alpha, ..., lo, hi) rows miss the expected bounds."""
    problems = []
    if [round(r[0], 4) for r in rows] != [round(a, 4) for a in expected]:
        return [f"alpha column {[r[0] for r in rows]} != {list(expected)}"]
    for row, (alpha, (lo, hi)) in zip(rows, expected.items()):
        if abs(row[lo_col] - lo) > tol or abs(row[hi_col] - hi) > tol:
            problems.append(
                f"alpha={alpha:g}: [{row[lo_col]}, {row[hi_col]}] vs "
                f"[{lo:.6f}, {hi:.6f}] beyond {tol:g}"
            )
    return problems


def check_curve(path, expected, tol: float) -> Verdict:
    """A curve CSV and its sampled membership file against expected bounds."""
    try:
        header, rows = read_csv(path)
        stem, _, ext = str(path).rpartition(".")
        _, member = read_csv(f"{stem}_membership.{ext}")
    except (OSError, ValueError, IndexError) as exc:
        return Verdict(WRONG, f"unreadable curve output: {exc}")
    if header != ["alpha", "lower", "upper"]:
        return Verdict(WRONG, f"curve header {header}")
    problems = compare_rows(rows, expected, tol, 1, 2)
    zs = [z for z, _ in member]
    grades = [m for _, m in member]
    if len(member) != 201 or zs != sorted(zs):
        problems.append("membership samples are not 201 ascending points")
    if any(not 0.0 <= m <= 1.0 for m in grades) or max(grades, default=0.0) != 1.0:
        problems.append("membership grades leave [0, 1] or never reach 1")
    return Verdict(WRONG, "; ".join(problems)) if problems else Verdict(OK)


def check_table(path, model: dict, expected, tol: float) -> Verdict:
    """An alpha-cut table: parameter cut columns and the metric bounds."""
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return Verdict(WRONG, f"unreadable table output: {exc}")
    want_header = ["alpha", "x_L", "x_U", "v_L", "v_U", "y_L", "y_U", "w_L", "w_U",
                   "T_L", "T_U"]
    if header != want_header:
        return Verdict(WRONG, f"table header {header}")
    problems = compare_rows(rows, expected, tol, 9, 10)
    for row in rows:
        for k, name in enumerate(("lambda", "theta", "mu", "beta")):
            lo, hi = oracle.cut(model[name], row[0])
            if abs(row[1 + 2 * k] - lo) > tol or abs(row[2 + 2 * k] - hi) > tol:
                problems.append(f"{name} cut at alpha={row[0]:g}: {row[1 + 2 * k:3 + 2 * k]}")
    return Verdict(WRONG, "; ".join(problems)) if problems else Verdict(OK)


_COVERAGE = re.compile(r"^coverage = (\S+)$", re.M)
_ANCHOR = re.compile(r"^anchor residuals: lower (\S+), upper (\S+)$", re.M)
_ROW = re.compile(r"^(\d\.\d\d),([-+]\S+),([-+]\S+)$", re.M)


def check_calibration(stdout: str, coverage: float, coverage_tol: float,
                      upper_tol: float, rows_expected: int, row_tol: float) -> Verdict:
    """Calibrated coverage, anchor residuals and reference-row residuals."""
    found = _COVERAGE.search(stdout)
    anchor = _ANCHOR.search(stdout)
    if not found or not anchor:
        return Verdict(WRONG, f"unreadable calibrate output {stdout!r}")
    got = float(found.group(1))
    lower, upper = float(anchor.group(1)), float(anchor.group(2))
    problems = []
    if abs(got - coverage) > coverage_tol:
        problems.append(f"coverage {got} vs {coverage} beyond {coverage_tol:g}")
    if abs(lower) > 1e-6:
        problems.append(f"anchor lower residual {lower:g}")
    if abs(upper) > upper_tol:
        problems.append(f"anchor upper residual {upper:g} beyond {upper_tol:g}")
    rows = _ROW.findall(stdout)
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} reference rows, expected {rows_expected}")
    for alpha, lo, hi in rows:
        if abs(float(lo)) > row_tol or abs(float(hi)) > row_tol:
            problems.append(f"reference row alpha={alpha}: residuals {lo}, {hi}")
    return Verdict(WRONG, "; ".join(problems)) if problems else Verdict(OK)


def parse_estimate(stdout: str, quantity: str) -> tuple[float, float]:
    """(mean, std_error) from the CSV that `simulate` prints."""
    lines = stdout.strip().splitlines()
    if len(lines) != 2 or lines[0] != "quantity,mean,std_error,replications":
        raise ValueError(f"unexpected simulate output {stdout!r}")
    name, mean, se, _ = lines[1].split(",")
    if name != quantity:
        raise ValueError(f"quantity {name!r}, expected {quantity!r}")
    return float(mean), float(se)


def check_estimate(stdout: str, quantity: str, analytic: float,
                   se_ceiling: float) -> Verdict:
    """Simulated estimate within 3 SE of the analytic value, SE under its ceiling."""
    try:
        mean, se = parse_estimate(stdout, quantity)
    except ValueError as exc:
        return Verdict(WRONG, str(exc))
    miss = abs(mean - analytic)
    detail = f"{quantity} {mean} vs {analytic:.6f}, SE {se}"
    if not 0.0 < se <= se_ceiling:
        return Verdict(WRONG, f"{detail}: SE outside (0, {se_ceiling:g}]")
    if miss > SIM_WRONG_SE * se:
        return Verdict(WRONG, f"{detail}: beyond {SIM_WRONG_SE:g} SE")
    if miss > SIM_MISS_SE * se:
        return Verdict(MISSED_CHECK, f"{detail}: beyond {SIM_MISS_SE:g} SE")
    return Verdict(OK)


_MTTF = re.compile(r"^MTTF\s+(\S+)$", re.M)
_AVAIL = re.compile(r"^availability\s+(\S+)$", re.M)
_REL = re.compile(r"^\s+t=(\S+)\s+R=(\S+)$", re.M)


def check_crisp_report(stdout: str, mttf_closed_form: float, rel_tol: float) -> Verdict:
    """`metrics` output: MTTF against the closed form, A and R in [0, 1],
    R(0) = 1 and R nonincreasing in t."""
    m, a = _MTTF.search(stdout), _AVAIL.search(stdout)
    rel = [(float(t), float(r)) for t, r in _REL.findall(stdout)]
    if not m or not a or len(rel) != 5:
        return Verdict(WRONG, f"unreadable metrics output {stdout!r}")
    problems = []
    got = float(m.group(1))
    if not math.isclose(got, mttf_closed_form, rel_tol=rel_tol):
        problems.append(f"MTTF {got!r} vs closed form {mttf_closed_form!r}")
    avail = float(a.group(1))
    if not 0.0 <= avail <= 1.0:
        problems.append(f"availability {avail!r} outside [0, 1]")
    rs = [r for _, r in rel]
    if rs[0] != 1.0 or any(not 0.0 <= r <= 1.0 for r in rs):
        problems.append(f"reliability values {rs} not in [0, 1] with R(0) = 1")
    if any(b > a for a, b in zip(rs, rs[1:])):
        problems.append(f"reliability increases in t: {rs}")
    return Verdict(WRONG, "; ".join(problems)) if problems else Verdict(OK)
