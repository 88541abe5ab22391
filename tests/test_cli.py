import hashlib
import json

import numpy as np
import pytest

from discordlim import cli, verify
from discordlim.cli import CSV_HEADER, UsageError, evaluate_point, format_csv, main, sweep_rows
from discordlim.koashi_winter import THETA_SLACK, example_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_theta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--theta", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["I"] == pytest.approx(1.0, abs=1e-6)
        assert rec["Ic"] == pytest.approx(1.0, abs=1e-6)
        assert rec["discord"] == pytest.approx(0.0, abs=1e-6)
        assert rec["I_clone"] == pytest.approx(1.0, abs=1e-6)
        assert rec["diff"] == pytest.approx(0.0, abs=1e-6)

    def test_theta_quarter_pi_in_pi_units(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--theta", "0.25", "--in-pi")
        assert code == 0
        rec = json.loads(out)
        for key in ("I", "Ic", "discord", "I_clone"):
            assert rec[key] == pytest.approx(0.0, abs=1e-6)

    def test_dual_routes_agree(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--theta", "0.125", "--in-pi")
        rec = json.loads(out)
        assert rec["Ic"] == pytest.approx(rec["Ic_kw"], abs=verify.KW_AGREEMENT_TOL)

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "point", "--theta", "2.0")
        assert code == 1
        assert "theta" in err

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_theta_is_usage_error(self, capsys, value):
        code, _, err = run_cli(capsys, "point", "--theta", value)
        assert code == 1
        assert "theta" in err

    def test_theta_range_is_the_library_check(self, capsys):
        # One range, with one slack: what example_state accepts the CLI
        # takes, and what it rejects is a usage error with its message.
        for theta, ok in ((np.pi / 4 + THETA_SLACK / 2, True), (-THETA_SLACK / 2, True),
                          (np.pi / 4 + 2 * THETA_SLACK, False), (-2 * THETA_SLACK, False)):
            try:
                example_state(theta)
                message = None
            except ValueError as exc:
                message = str(exc)
            assert (message is None) == ok
            code, _, err = run_cli(capsys, "point", f"--theta={theta!r}")
            assert code == (0 if ok else 1)
            if not ok:
                assert err == f"error: {message}\n"

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "point")
        assert code == 1

    def test_numerical_error_exits_2(self, capsys, monkeypatch):
        def fail(theta):
            raise ValueError("state rank exceeds 2")

        monkeypatch.setattr(cli, "evaluate_point", fail)
        code, out, err = run_cli(capsys, "point", "--theta", "0.1")
        assert (code, out, err) == (2, "", "error: state rank exceeds 2\n")


# Default stdout recorded before the information layer was consolidated:
# a change that moves a printed digit shows here.
POINT_THETA_0125_IN_PI = """\
{
  "theta": 0.39269908169872414,
  "I": 0.6008760366928563,
  "Ic": 0.39912396330714395,
  "Ic_kw": 0.39912396330714384,
  "discord": 0.20175207338571233,
  "I_clone": 0.417645341180616,
  "diff": -0.018521377873472078
}
"""
CROSSOVER = """\
{
  "theta_prime_rad": 0.2926062850018019,
  "theta_prime_over_pi": 0.09313947327558539,
  "tolerance_rad": 1e-06,
  "residual_bits": 6.661338147750939e-16,
  "evaluations": 9,
  "bracket_rad": [
    0.292606249694015,
    0.2926063200216805
  ]
}
"""
# sha256 of the figure's CSV, `sweep --theta-min 0 --theta-max 0.25 --in-pi
# --steps 200`.
SWEEP_200_SHA256 = "6541a6cb4390ce78671297ded962e487aea22219bc3009223cb67fe88eddeff9"


class TestGoldenOutput:
    def test_point(self, capsys):
        assert run_cli(capsys, "point", "--theta", "0.125", "--in-pi") == (
            0, POINT_THETA_0125_IN_PI, "")

    def test_crossover(self, capsys):
        assert run_cli(capsys, "crossover") == (0, CROSSOVER, "")

    def test_sweep_csv(self):
        text = format_csv(sweep_rows(0.0, np.pi / 4, 200))
        assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_200_SHA256


class TestSweep:
    def test_two_step_endpoints(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--theta-min", "0", "--theta-max", "0.25",
                             "--in-pi", "--steps", "2", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[2].split(",")]
        assert first[1:] == pytest.approx([1, 1, 0, 1, 0], abs=1e-6)
        assert last[1:] == pytest.approx([0, 0, 0, 0, 0], abs=1e-6)

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / f"s{i}.csv" for i in range(2)]
        for p in paths:
            code, _, _ = run_cli(capsys, "sweep", "--theta-min", "0", "--theta-max", "0.2",
                                 "--steps", "5", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rows_satisfy_record_invariants(self):
        rows = sweep_rows(0.0, np.pi / 4, 9)
        for r in rows:
            assert r["Ic"] + r["discord"] == pytest.approx(r["I"], abs=1e-8)
            for key in ("I", "Ic", "discord", "I_clone"):
                assert r[key] >= -1e-8
            assert r["diff"] == pytest.approx(r["Ic"] - r["I_clone"], abs=1e-12)

    def test_invalid_range(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta-min", "0.2", "--theta-max", "0.1",
                               "--steps", "5", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("bounds", ((0.1, np.pi / 4 + 2 * THETA_SLACK), (-2 * THETA_SLACK, 0.1),
                                        (0.2, 0.1), (np.nan, 0.1)))
    def test_sweep_rows_rejects_range(self, bounds):
        with pytest.raises(UsageError, match="need 0 <= theta-min < theta-max <= pi/4"):
            sweep_rows(*bounds, 5)

    def test_sweep_rows_needs_two_steps(self):
        with pytest.raises(UsageError, match="steps must be >= 2"):
            sweep_rows(0.0, 0.1, 1)

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta-min", "0", "--theta-max", "0.2",
                               "--steps", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv"))
        assert code == 1

    def test_csv_format(self):
        text = format_csv([evaluate_point(0.1)])
        assert text.startswith(CSV_HEADER + "\n")
        assert text.endswith("\n")
        assert "." in text.splitlines()[1]


class TestCrossover:
    def test_reported_window_and_residual(self, capsys):
        code, out, _ = run_cli(capsys, "crossover")
        assert code == 0
        rec = json.loads(out)
        assert 0.090 < rec["theta_prime_over_pi"] < 0.096
        assert abs(rec["residual_bits"]) <= 1e-5

    def test_repeated_runs_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "crossover")
        _, out2, _ = run_cli(capsys, "crossover")
        assert out1 == out2

    def test_search_failure_exits_2(self, capsys, monkeypatch):
        def fail():
            raise RuntimeError("no sign change in the crossover bracket")

        monkeypatch.setattr(cli, "find_crossover", fail)
        code, out, err = run_cli(capsys, "crossover")
        assert (code, out) == (2, "")
        assert err == "crossover search failed: no sign change in the crossover bracket\n"


# The suite list with each suite's check count at --seed 3 --samples 5: a
# suite added, dropped, renamed or checking more or less shows here.
VERIFY_SEED_3_SAMPLES_5 = """\
pass  linalg.partial_trace_matches_lifted_observables_and_product_factors  (20 checks, 0 failures)
pass  linalg.entropy_additivity_and_unitary_invariance  (10 checks, 0 failures)
pass  linalg.purify_roundtrip_and_spectra  (10 checks, 0 failures)
pass  correlations.sampled_povm_chain_0_J_Ic_I  (12 checks, 0 failures)
pass  correlations.cq_states_have_zero_discord  (1 checks, 0 failures)
pass  correlations.local_unitary_invariance  (2 checks, 0 failures)
pass  correlations.pure_state_factor_two_gap  (2 checks, 0 failures)
pass  koashi_winter.dual_route_agreement_and_monotonicity  (8 checks, 0 failures)
pass  koashi_winter.concurrence_invariance_and_pure_ef  (15 checks, 0 failures)
pass  protocols.measure_and_prepare_outputs_are_ppt  (5 checks, 0 failures)
pass  protocols.locc_transfer_matches_J_and_respects_Ic  (20 checks, 0 failures)
pass  protocols.cloner_matches_brute_force_scan  (12 checks, 0 failures)
pass  protocols.broadcast_sum_and_average_bounds  (12 checks, 0 failures)
ok: 13 suites, 129 checks, seed 3
"""


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--samples", "5")
        assert code == 0
        assert out == VERIFY_SEED_3_SAMPLES_5

    def test_same_seed_identical_summaries(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--seed", "3", "--samples", "3")
        _, out2, _ = run_cli(capsys, "verify", "--seed", "3", "--samples", "3")
        assert out1 == out2

    def test_corrupted_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "SUM_BOUND_TOL", -1.0)
        code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--samples", "3")
        assert code == 2
        assert "FAIL" in out

    def test_rejects_bad_sample_count(self, capsys):
        for flag, value in (("--samples", "0"), ("--seed", "-1")):
            code, _, err = run_cli(capsys, "verify", flag, value)
            assert code == 1
            assert flag in err

    def test_run_all_needs_a_sample(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify.run_all(3, 0)
