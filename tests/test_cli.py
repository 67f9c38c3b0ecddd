"""Command-line interface: subcommands, formats, exit codes."""

import json
import re
import warnings

import numpy as np
import pytest

from fuzzrel import SystemParams, mttf
from fuzzrel.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    build_parser,
    main,
)

from test_bounds import NARROW_LAMBDA_MTBF, REFERENCE_MTBF_BOUNDS
from test_markov import FAST_REPAIR, FULL_COVERAGE_MTTF

DEMO_CONFIG = {
    "lambda": [0.5, 0.6, 0.7, 0.8],
    "theta": [0.1, 0.2, 0.3, 0.4],
    "mu": [3, 4, 5, 6],
    "beta": [1.5, 2.0, 2.5, 3.0],
    "c": 0.9,
    "metric": "mtbf",
}


# A valid coupled model whose modal midpoints (0.35, 0.4) break
# theta <= lambda: only the crisp modal system is infeasible.
COUPLED_CONFIG = {
    **DEMO_CONFIG,
    "lambda": [0.1, 0.2, 0.5, 0.6],
    "theta": [0.3, 0.35, 0.45, 0.5],
    "solver": {"enforce_standby_slower": True},
}


@pytest.fixture
def config_path(tmp_path):
    def write(payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestMetrics:
    def test_prints_known_mttf(self, config_path, capsys):
        cfg = config_path(
            {"lambda": 1.0, "theta": 0.0, "mu": 2.0, "beta": 2.0, "c": 1.0}
        )
        assert main(["metrics", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4.5000" in out
        assert "availability" in out

    def test_zero_coverage_single_stage(self, config_path, capsys):
        cfg = config_path(
            {"lambda": 1.0, "theta": 0.5, "mu": 4.0, "beta": 2.0, "c": 0.0}
        )
        assert main(["metrics", cfg]) == EXIT_OK
        assert "0.4000" in capsys.readouterr().out

    def test_zero_repair_reports_no_availability(self, config_path, capsys):
        cfg = config_path(
            {"lambda": 1.0, "theta": 0.0, "mu": 0.0, "beta": 2.0, "c": 1.0}
        )
        assert main(["metrics", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2.0000" in out
        assert "n/a" in out

    def test_non_finite_value_is_a_solver_error(self, config_path, capsys):
        # lambda 1e200 against mu 1e-200 overflows the up masses: MTTF is
        # NaN, and numpy's floating-point warnings on the way stay silent
        model = {"lambda": 1e200, "theta": 0.0, "mu": 1e-200, "beta": 1.0, "c": 0.5}
        cfg = config_path(model)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metrics", cfg]) == EXIT_SOLVER
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        point = SystemParams(*(model[k] for k in ("lambda", "theta", "mu", "c", "beta")))
        assert captured.err == f"error: MTTF is not finite at {vars(point)}: got nan\n"

    def test_non_finite_reliability_is_a_solver_error(self, config_path, capsys, monkeypatch):
        from fuzzrel import markov

        monkeypatch.setattr(
            markov, "_reliability_values", lambda rates, times: np.full(len(times), np.nan)
        )
        cfg = config_path(
            {"lambda": 1.0, "theta": 0.0, "mu": 2.0, "beta": 2.0, "c": 1.0}
        )
        assert main(["metrics", cfg]) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("error: reliability is not finite at")

    def test_huge_crisp_reboot_rate(self, config_path, capsys):
        # the modal midpoint of beta = 1e308 does not overflow, and beta
        # enters only availability
        reports = []
        for beta in (2.0, 1e308):
            cfg = config_path({**DEMO_CONFIG, "beta": beta}, f"beta-{beta}.json")
            assert main(["metrics", cfg, "--full-precision"]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            reports.append([line for line in lines if not line.startswith("availability")])
        assert reports[0] == reports[1]

    def test_full_coverage_fast_repair_mttf(self, config_path, capsys):
        cfg = config_path(
            {"lambda": FAST_REPAIR.failure_rate,
             "theta": FAST_REPAIR.standby_failure_rate,
             "mu": FAST_REPAIR.repair_rate, "beta": 1.0, "c": 1.0}
        )
        assert main(["metrics", cfg, "--full-precision"]) == EXIT_OK
        # the R(t) rows at this model are off; see test_markov's
        # FAST_REPAIR_RELIABILITY
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("MTTF")
        assert float(line.split()[1]) == pytest.approx(
            FULL_COVERAGE_MTTF[1][1], rel=1e-14, abs=0.0
        )


class TestAlphaCut:
    def test_reproduces_reference_table(self, config_path, tmp_path, capsys):
        cfg = config_path(DEMO_CONFIG)
        out = tmp_path / "table.csv"
        assert main(["alphacut", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["alpha", "x_L", "x_U", "v_L", "v_U", "y_L", "y_U", "T_L", "T_U"]
        assert len(rows) == 11
        for row in rows:
            alpha = round(row[0], 1)
            assert row[1] == pytest.approx(0.5 + 0.1 * alpha, abs=5e-5)
            assert row[2] == pytest.approx(0.8 - 0.1 * alpha, abs=5e-5)
            assert row[3] == pytest.approx(0.1 + 0.1 * alpha, abs=5e-5)
            assert row[4] == pytest.approx(0.4 - 0.1 * alpha, abs=5e-5)
            assert row[5] == pytest.approx(3.0 + alpha, abs=5e-5)
            assert row[6] == pytest.approx(6.0 - alpha, abs=5e-5)
            lo, hi = REFERENCE_MTBF_BOUNDS[alpha]
            assert row[7] == pytest.approx(lo, abs=5e-3)
            assert row[8] == pytest.approx(hi, abs=5e-3)

    def test_availability_metric_adds_w_columns(self, config_path, tmp_path):
        cfg = config_path({**DEMO_CONFIG, "metric": "availability"})
        out = tmp_path / "table.csv"
        assert main(["alphacut", cfg, "--out", str(out), "--levels", "3"]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == [
            "alpha", "x_L", "x_U", "v_L", "v_U", "y_L", "y_U", "w_L", "w_U",
            "T_L", "T_U",
        ]
        assert len(rows) == 3

    def test_levels_override(self, config_path, tmp_path):
        cfg = config_path(DEMO_CONFIG)
        out = tmp_path / "table.csv"
        assert main(["alphacut", cfg, "--out", str(out), "--levels", "2"]) == EXIT_OK
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [0.0, 1.0]

    def test_crisp_config_collapses_columns(self, config_path, tmp_path):
        cfg = config_path(
            {"lambda": 0.6, "theta": 0.2, "mu": 4.0, "beta": 2.0, "c": 0.9}
        )
        out = tmp_path / "table.csv"
        assert main(["alphacut", cfg, "--out", str(out), "--levels", "3"]) == EXIT_OK
        _, rows = read_csv(out)
        for row in rows:
            assert row[1] == row[2]
            assert row[7] == row[8]

    def test_deterministic_output_bytes(self, config_path, tmp_path):
        cfg = config_path(DEMO_CONFIG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["alphacut", cfg, "--out", str(a), "--levels", "5"]) == EXIT_OK
        assert main(["alphacut", cfg, "--out", str(b), "--levels", "5"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_full_precision_round_trips(self, config_path, tmp_path):
        cfg = config_path(DEMO_CONFIG)
        out = tmp_path / "table.csv"
        assert (
            main(["alphacut", cfg, "--out", str(out), "--levels", "3",
                  "--full-precision"])
            == EXIT_OK
        )
        _, rows = read_csv(out)
        # 17 significant digits, nesting survives the round trip exactly
        assert rows[0][7] <= rows[1][7] <= rows[2][7]
        assert rows[0][8] >= rows[1][8] >= rows[2][8]


class TestCurve:
    def test_writes_curve_and_membership_files(self, config_path, tmp_path):
        cfg = config_path(DEMO_CONFIG)
        out = tmp_path / "curve.csv"
        assert main(["curve", cfg, "--out", str(out), "--levels", "5"]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["alpha", "lower", "upper"]
        assert len(rows) == 5

        member = tmp_path / "curve_membership.csv"
        mheader, mrows = read_csv(member)
        assert mheader == ["z", "membership"]
        assert len(mrows) == 201
        grades = [r[1] for r in mrows]
        assert grades[0] == pytest.approx(0.0, abs=1e-9)
        assert grades[-1] == pytest.approx(0.0, abs=1e-9)
        assert max(grades) == pytest.approx(1.0, abs=1e-9)

    def test_membership_file_beside_an_extensionless_out(self, config_path, tmp_path):
        # the dot in the directory name is not an extension
        run = tmp_path / "run.2"
        run.mkdir()
        cfg = config_path(DEMO_CONFIG)
        argv = ["curve", cfg, "--out", str(run / "curve"), "--levels", "2"]
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in run.iterdir()) == ["curve", "curve_membership"]

    def test_crisp_curve_is_an_indicator_spike(self, config_path, tmp_path):
        cfg = config_path(
            {"lambda": 1.0, "theta": 0.0, "mu": 2.0, "beta": 2.0, "c": 1.0}
        )
        out = tmp_path / "curve.csv"
        assert main(["curve", cfg, "--out", str(out), "--levels", "3"]) == EXIT_OK
        _, mrows = read_csv(tmp_path / "curve_membership.csv")
        assert len(mrows) == 201
        for z, grade in mrows:
            assert z == pytest.approx(4.5, abs=5e-5)
            assert grade == 1.0

    def test_mtbf_curve_ignores_a_huge_reboot_rate(self, config_path, tmp_path):
        # beta does not enter MTBF, and its modal midpoint at 1e308 does
        # not overflow
        outputs = []
        for beta in (2.0, 1e308):
            cfg = config_path({**DEMO_CONFIG, "beta": beta}, f"beta-{beta}.json")
            out = tmp_path / f"curve-{beta}.csv"
            assert main(["curve", cfg, "--out", str(out), "--full-precision"]) == EXIT_OK
            member = tmp_path / f"curve-{beta}_membership.csv"
            outputs.append((out.read_bytes(), member.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_full_coverage_fast_repair_curve(self, config_path, tmp_path):
        cfg = config_path(
            {**DEMO_CONFIG, "lambda": [0.05, 0.055, 0.06, 0.065],
             "theta": [0.03, 0.035, 0.04, 0.045], "mu": [6e6, 8e6, 1e7, 1.2e7],
             "beta": 1.0, "c": 1.0}
        )
        out = tmp_path / "curve.csv"
        args = ["curve", cfg, "--out", str(out), "--full-precision"]
        assert main(args) == EXIT_OK
        _, rows = read_csv(out)
        # 50-digit first-step solves at the corners (lambda, theta, mu)
        # = (0.065, 0.045, 6e6) and (0.05, 0.03, 1.2e7)
        assert rows[0][1] == pytest.approx(24344886857142883.885, rel=1e-14)
        assert rows[0][2] == pytest.approx(221538464861538467.07, rel=1e-14)

    def test_narrow_axis_curve(self, config_path, tmp_path):
        cfg = config_path(
            {**DEMO_CONFIG, "lambda": [1e-9, 1e-9, 1.0000009e-9, 1.0000009e-9],
             "theta": 0.0, "mu": 1e-3, "beta": 1.0, "c": 0.5}
        )
        out = tmp_path / "curve.csv"
        args = ["curve", cfg, "--out", str(out), "--full-precision"]
        assert main(args) == EXIT_OK
        _, rows = read_csv(out)
        for row in rows:
            assert row[1:] == pytest.approx(NARROW_LAMBDA_MTBF, rel=1e-14)


class TestInvert:
    def test_management_target(self, config_path, capsys):
        cfg = config_path(DEMO_CONFIG)
        code = main(["invert", cfg, "--lower", "4.939", "--upper", "6.716"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha = 0.90" in out

    def test_support_target(self, config_path, capsys):
        cfg = config_path(DEMO_CONFIG)
        code = main(["invert", cfg, "--lower", "3.8952", "--upper", "8.6230"])
        assert code == EXIT_OK
        assert "alpha = 0.00" in capsys.readouterr().out

    def test_answer_does_not_depend_on_the_ladder(self, config_path, capsys):
        # the model's alphas do not enter: a 2-level ladder gives what the
        # 11-level one does, the exact answer
        outputs = []
        for name, alphas in (("eleven", None), ("two", [0.0, 1.0])):
            cfg = config_path({**DEMO_CONFIG, "alphas": alphas}, f"{name}.json")
            assert main(["invert", cfg, "--lower", "4.5", "--upper", "7.4"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines() == ["alpha = 0.5398", "cut   = [4.5000, 7.3953]"]

    def test_unreachable_target_is_solver_failure(self, config_path, capsys):
        cfg = config_path(DEMO_CONFIG)
        code = main(["invert", cfg, "--lower", "5.2", "--upper", "6.0"])
        assert code == EXIT_SOLVER
        assert "not inside the target" in capsys.readouterr().err


class TestSimulate:
    def test_first_passage_csv(self, config_path, tmp_path):
        cfg = config_path(
            {
                "lambda": 1.0, "theta": 0.0, "mu": 0.0, "beta": 2.0, "c": 1.0,
                "metric": "mtbf",
                "simulation": {"replications": 20000, "seed": 11},
            }
        )
        out = tmp_path / "sim.csv"
        assert main(["simulate", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quantity,mean,std_error,replications"
        line = lines[1].split(",")
        assert line[0] == "mttf"
        mean, se, reps = float(line[1]), float(line[2]), int(line[3])
        assert reps == 20000
        assert abs(mean - 2.0) <= 3.0 * se

    def test_availability_metric(self, config_path, capsys):
        cfg = config_path(
            {
                "lambda": 0.6, "theta": 0.2, "mu": 4.0, "beta": 2.0, "c": 0.9,
                "metric": "availability",
                "simulation": {"horizon": 50000.0, "seed": 3},
            }
        )
        assert main(["simulate", cfg]) == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert line[0] == "availability"
        mean, se = float(line[1]), float(line[2])
        assert abs(mean - 0.932305) <= 3.0 * se + 1e-4

    def test_tiny_mttf_keeps_its_digits(self, config_path, capsys):
        # the MTTF is about 1.8e-7, which six fixed decimals printed as
        # 0.000000 with a standard error of 0.000000
        model = {"lambda": 1e7, "theta": 0.0, "mu": 1.0, "beta": 2.0, "c": 0.9}
        cfg = config_path(model)
        assert main(["simulate", cfg]) == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[1].split(",")
        mean, se = float(line[1]), float(line[2])
        expected = mttf(SystemParams(1e7, 0.0, 1.0, 0.9, 2.0))
        assert se > 0.0
        assert abs(mean - expected) <= 3.0 * se

    def test_reps_and_seed_overrides_deterministic(self, config_path, tmp_path):
        cfg = config_path({**DEMO_CONFIG, "metric": "mtbf"})
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", cfg, "--reps", "5000", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reliability_metric_rejected(self, config_path):
        cfg = config_path({**DEMO_CONFIG, "metric": "reliability", "t": 1.0})
        assert main(["simulate", cfg]) == EXIT_PARSE

    @pytest.mark.parametrize("metric", ["mtbf", "availability"])
    def test_overflowing_rates_are_a_solver_error(self, config_path, capsys, metric):
        # 2 lambda + theta overflows, so the exit rate out of UP3 is inf
        cfg = config_path(
            {"lambda": 1e308, "theta": 1e308, "mu": 1.0, "beta": 1.0, "c": 0.5}
        )
        assert main(["simulate", cfg, "--metric", metric]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: the jump chain is not finite at {'failure_rate': 1e+308"
        )


class TestCalibrate:
    def test_synthetic_round_trip_prints_exact_coverage(self, config_path, capsys):
        # anchor bounds generated at coverage 0.9 from the library itself
        from fuzzrel import MTBF, characteristic_bounds
        from test_bounds import demo_params

        anchor = characteristic_bounds(demo_params(0.9), MTBF, 1.0).bounds
        cfg = config_path(DEMO_CONFIG)
        code = main(
            ["calibrate", cfg, "--anchor-alpha", "1.0",
             "--lower", repr(anchor.lo), "--upper", repr(anchor.hi)]
        )
        assert code == EXIT_OK
        assert "coverage = 0.900000" in capsys.readouterr().out

    def test_reference_residual_table(self, config_path, capsys):
        reference = [
            [round(a, 1), lo, hi] for a, (lo, hi) in
            sorted(REFERENCE_MTBF_BOUNDS.items())
        ]
        cfg = config_path({**DEMO_CONFIG, "reference_bounds": reference})
        code = main(
            ["calibrate", cfg, "--anchor-alpha", "1.0",
             "--lower", "5.0669", "--upper", "6.5424"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "coverage = 0.9000" in out
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 11
        for line in lines:
            _, lo_res, hi_res = line.split(",")
            assert abs(float(lo_res)) < 5e-3
            assert abs(float(hi_res)) < 5e-3

    def test_impossible_anchor_is_solver_failure(self, config_path):
        cfg = config_path(DEMO_CONFIG)
        code = main(
            ["calibrate", cfg, "--anchor-alpha", "1.0",
             "--lower", "100.0", "--upper", "200.0"]
        )
        assert code == EXIT_SOLVER


class TestCoupledModel:
    def test_curve_reaches_the_coupling_edge(self, config_path, tmp_path):
        from fuzzrel import SystemParams, mttf

        cfg = config_path(COUPLED_CONFIG)
        out = tmp_path / "curve.csv"
        args = ["curve", cfg, "--out", str(out), "--levels", "2", "--full-precision"]
        assert main(args) == EXIT_OK
        _, rows = read_csv(out)
        # the alpha = 0 maximum sits on theta = lambda, at the polytope
        # vertex lambda = theta = 0.3, mu = 6
        vertex = mttf(SystemParams(0.3, 0.3, 6.0, 0.9, 2.0))
        assert rows[0][2] == pytest.approx(vertex, rel=1e-9)

    def test_alphacut_and_invert(self, config_path, tmp_path, capsys):
        cfg = config_path(COUPLED_CONFIG)
        out = tmp_path / "table.csv"
        assert main(["alphacut", cfg, "--out", str(out), "--levels", "2"]) == EXIT_OK
        _, rows = read_csv(out)
        assert rows[0][8] == pytest.approx(11.2861, abs=5e-5)
        code = main(["invert", cfg, "--lower", "5.1852", "--upper", "11.2862"])
        assert code == EXIT_OK
        assert "alpha = 0.00" in capsys.readouterr().out

    def test_calibrate_round_trip(self, config_path, capsys):
        from fuzzrel import MTBF, characteristic_bounds
        from fuzzrel.cli import load_model_config

        cfg = config_path(COUPLED_CONFIG)
        fp = load_model_config(cfg).fuzzy_params
        anchor = characteristic_bounds(fp, MTBF, 1.0).bounds
        code = main(
            ["calibrate", cfg, "--anchor-alpha", "1.0",
             "--lower", repr(anchor.lo), "--upper", repr(anchor.hi)]
        )
        assert code == EXIT_OK
        assert "coverage = 0.900000" in capsys.readouterr().out

    def test_simulate_rejects_the_modal_system(self, config_path, capsys):
        cfg = config_path(COUPLED_CONFIG)
        assert main(["simulate", cfg, "--reps", "100"]) == EXIT_VALIDATION
        assert "exceeds failure_rate" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["metrics", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"lambda": [0.5, 0.6,')
        assert main(["metrics", str(path)]) == EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_wrong_field_type_is_parse_error_naming_field(self, config_path, capsys):
        cfg = config_path({**DEMO_CONFIG, "mu": "fast"})
        assert main(["metrics", cfg]) == EXIT_PARSE
        assert "'mu'" in capsys.readouterr().err

    def test_missing_field_is_parse_error(self, config_path, capsys):
        payload = dict(DEMO_CONFIG)
        del payload["beta"]
        cfg = config_path(payload)
        assert main(["metrics", cfg]) == EXIT_PARSE
        assert "'beta'" in capsys.readouterr().err

    def test_invalid_value_is_validation_error(self, config_path, capsys):
        cfg = config_path({**DEMO_CONFIG, "c": 1.7})
        assert main(["metrics", cfg]) == EXIT_VALIDATION
        assert "coverage" in capsys.readouterr().err

    def test_disordered_fuzzy_nodes_is_validation_error(self, config_path, capsys):
        cfg = config_path({**DEMO_CONFIG, "lambda": [0.8, 0.6, 0.7, 0.5]})
        assert main(["metrics", cfg]) == EXIT_VALIDATION
        assert "'lambda'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "breakpoints",
        [[[0.5, 0.0], [0.6]], [0.5, 0.6], [[0.5, 0.0], [0.6, 1.0, 0.7]], "0.5"],
        ids=["short-pair", "bare-numbers", "long-pair", "string"],
    )
    def test_malformed_breakpoints_is_parse_error(
        self, config_path, capsys, breakpoints
    ):
        cfg = config_path({**DEMO_CONFIG, "lambda": {"breakpoints": breakpoints}})
        assert main(["metrics", cfg]) == EXIT_PARSE
        assert "'lambda.breakpoints'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows", [[[0.0, 3.9]], [[0.0, 3.9, 8.6, 1.0]], [0.0], {"0.0": [3.9, 8.6]}]
    )
    def test_malformed_reference_bounds_is_parse_error(self, config_path, capsys, rows):
        cfg = config_path({**DEMO_CONFIG, "reference_bounds": rows})
        assert main(["metrics", cfg]) == EXIT_PARSE
        assert "'reference_bounds'" in capsys.readouterr().err

    def test_standby_coupling_flag_must_be_boolean(self, config_path, capsys):
        # bool("false") is true, so a string would switch the coupling on
        solver = {"enforce_standby_slower": "false"}
        cfg = config_path({**DEMO_CONFIG, "solver": solver})
        assert main(["metrics", cfg]) == EXIT_PARSE
        assert "'solver.enforce_standby_slower'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [True, False])
    def test_retired_standby_coupling_flag_still_loads(self, config_path, flag):
        # theta <= lambda always holds; older model files may still set it
        from fuzzrel.cli import load_model_config

        solver = {"enforce_standby_slower": flag}
        flagged = load_model_config(config_path({**DEMO_CONFIG, "solver": solver}))
        plain = load_model_config(config_path(DEMO_CONFIG, "plain.json"))
        assert flagged == plain

    def test_standby_excess_beyond_rounding_is_validation_error(
        self, config_path, tmp_path
    ):
        # accepted under an absolute 1e-12 slack, then no bound was feasible
        solver = {"enforce_standby_slower": True}
        cfg = config_path(
            {**DEMO_CONFIG, "lambda": 0.5, "theta": 0.5 + 5e-13, "solver": solver}
        )
        out = str(tmp_path / "cuts.csv")
        assert main(["alphacut", cfg, "--out", out]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "section, key",
        [("simulation", "warmup_fraction"), ("simulation", "batches"),
         ("solver", "seed")],
        ids=["simulation.warmup_fraction", "simulation.batches", "solver.seed"],
    )
    def test_retired_key_is_parse_error_naming_it(
        self, config_path, capsys, section, key
    ):
        cfg = config_path({**DEMO_CONFIG, section: {key: 1}})
        assert main(["metrics", cfg]) == EXIT_PARSE
        assert f"'{section}.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--anchor-alpha", "1", "--lower", "5", "--upper", "6",
             "--levels", "3"],
            ["calibrate", "--anchor-alpha", "1", "--lower", "5", "--upper", "6",
             "--full-precision"],
            ["invert", "--lower", "5", "--upper", "6", "--full-precision"],
            ["invert", "--lower", "5", "--upper", "6", "--levels", "3"],
            ["simulate", "--full-precision"],
            ["metrics", "--metric", "availability"],
        ],
        ids=["calibrate-levels", "calibrate-precision", "invert-precision",
             "invert-levels", "simulate-precision", "metrics-metric"],
    )
    def test_options_without_effect_are_rejected(self, config_path, capsys, argv):
        cfg = config_path(DEMO_CONFIG)
        assert main([argv[0], cfg, *argv[1:]]) == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_subcommand_is_parse_error(self):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_bad_levels_is_parse_error(self, config_path, tmp_path):
        cfg = config_path(DEMO_CONFIG)
        out = tmp_path / "t.csv"
        assert main(["alphacut", cfg, "--out", str(out), "--levels", "1"]) == EXIT_PARSE


class TestParserCache:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_sequence_match_calls_one_at_a_time(
        self, config_path, tmp_path, capsys
    ):
        cfg = config_path(DEMO_CONFIG)
        out = tmp_path / "curve.csv"
        calls = [
            ["metrics", cfg, "--levels", "3"],
            ["metrics", cfg, "--full-precision"],
            ["metrics", cfg],
            ["curve", cfg, "--out", str(out), "--levels", "3"],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            files = [path.read_text() for path in sorted(tmp_path.glob("curve*"))]
            for path in tmp_path.glob("curve*"):
                path.unlink()
            return code, captured.out, captured.err, files

        in_sequence = [run(argv) for argv in calls]
        one_at_a_time = []
        for argv in calls:
            build_parser.cache_clear()
            one_at_a_time.append(run(argv))
        assert in_sequence == one_at_a_time
        assert [result[0] for result in in_sequence] == [EXIT_PARSE] + [EXIT_OK] * 3
        # the flag of the second call does not carry over to the third
        numbers = re.findall(r"[=\s](\d+\.\d+)", in_sequence[2][1])
        assert numbers and all(len(x.split(".")[1]) == 4 for x in numbers)
        assert any(len(x) > 10 for x in re.findall(r"\d+\.\d+", in_sequence[1][1]))
        assert len(in_sequence[3][3]) == 2
