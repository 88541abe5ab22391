import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from discordlim import cli, verify
from discordlim import linalg as la
from discordlim.cli import CSV_HEADER, UsageError, evaluate_point, format_csv, main, sweep_rows
from discordlim.koashi_winter import example_state


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

    def test_theta_range_is_the_library_check(self, capsys):
        # One range, with one slack: what example_state accepts the CLI
        # takes, and what it rejects is a usage error with its message.
        for theta, ok in ((np.pi / 4 + la.INPUT_TOL / 2, True), (-la.INPUT_TOL / 2, True),
                          (np.pi / 4 + 2 * la.INPUT_TOL, False), (-2 * la.INPUT_TOL, False)):
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

    def test_numerical_error_exits_2(self, capsys, monkeypatch):
        def fail(theta):
            raise ValueError("state rank exceeds 2")

        monkeypatch.setattr(cli, "evaluate_point", fail)
        code, out, err = run_cli(capsys, "point", "--theta", "0.1")
        assert (code, out, err) == (2, "", "error: state rank exceeds 2\n")

    def test_routes_that_disagree_exit_2(self, capsys, monkeypatch, tmp_path):
        # Every I^c the CLI reports is checked against the closed form.
        kw_route = cli.classical_correlation_kw
        monkeypatch.setattr(cli, "classical_correlation_kw", lambda rho: kw_route(rho) + 1e-9)
        code, out, err = run_cli(capsys, "point", "--theta", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: Ic and Ic_kw differ by 1e-09 bits at theta=0.1\n"
        code, out, err = run_cli(capsys, "sweep", "--theta-min", "0", "--theta-max", "0.1",
                                 "--steps", "2", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err == "error: Ic and Ic_kw differ by 1e-09 bits at theta=0.0\n"


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
# `point --theta <t> --in-pi` away from pi/8, recorded before the closed-form
# routes were trimmed: below the crossover, just below it, well past it, and
# near the product corner.
POINT_OFF_PI_OVER_8 = {
    "0.05": """\
{
  "theta": 0.15707963267948966,
  "I": 0.9299770054431931,
  "Ic": 0.8341394409029652,
  "Ic_kw": 0.8341394409029651,
  "discord": 0.09583756454022785,
  "I_clone": 0.8212208722629064,
  "diff": 0.012918568640058803
}
""",
    "0.0931": """\
{
  "theta": 0.29248227604920973,
  "I": 0.7672521728226149,
  "Ic": 0.5868725159037453,
  "Ic_kw": 0.5868725159037451,
  "discord": 0.1803796569188696,
  "I_clone": 0.5868510581524764,
  "diff": 2.1457751268938452e-05
}
""",
    "0.2": """\
{
  "theta": 0.6283185307179586,
  "I": 0.1658605590970348,
  "Ic": 0.07002299455680697,
  "Ic_kw": 0.07002299455680694,
  "discord": 0.09583756454022782,
  "I_clone": 0.0970262142085101,
  "diff": -0.02700321965170313
}
""",
    "0.2475": """\
{
  "theta": 0.7775441817634738,
  "I": 0.000951620046535151,
  "Ic": 0.00017797804720752068,
  "Ic_kw": 0.00017797804720709465,
  "discord": 0.0007736419993276302,
  "I_clone": 0.0005066797273565182,
  "diff": -0.00032870168014899754
}
""",
}
# sha256 of the figure's CSV, `sweep --theta-min 0 --theta-max 0.25 --in-pi
# --steps 200`.
SWEEP_200_SHA256 = "6541a6cb4390ce78671297ded962e487aea22219bc3009223cb67fe88eddeff9"
# `verify` at its defaults, --seed 7 --samples 100.
VERIFY_DEFAULT = """\
pass  linalg.partial_trace_matches_lifted_observables_and_product_factors  (400 checks, 0 failures)
pass  linalg.entropy_additivity_and_unitary_invariance  (200 checks, 0 failures)
pass  linalg.purify_roundtrip_and_spectra  (200 checks, 0 failures)
pass  correlations.sampled_povm_chain_0_J_Ic_I  (120 checks, 0 failures)
pass  correlations.cq_states_have_zero_discord  (10 checks, 0 failures)
pass  correlations.local_unitary_invariance  (20 checks, 0 failures)
pass  correlations.pure_state_factor_two_gap  (20 checks, 0 failures)
pass  koashi_winter.dual_route_agreement_and_monotonicity  (103 checks, 0 failures)
pass  koashi_winter.concurrence_invariance_and_pure_ef  (300 checks, 0 failures)
pass  protocols.measure_and_prepare_relays_respect_Ic  (400 checks, 0 failures)
pass  protocols.cloner_attains_the_closed_form_optimum  (202 checks, 0 failures)
pass  protocols.broadcast_sum_and_average_bounds  (250 checks, 0 failures)
ok: 12 suites, 2225 checks, seed 7
"""


class TestGoldenOutput:
    def test_point(self, capsys):
        for theta, want in {"0.125": POINT_THETA_0125_IN_PI, **POINT_OFF_PI_OVER_8}.items():
            assert run_cli(capsys, "point", "--theta", theta, "--in-pi") == (0, want, ""), theta

    def test_crossover(self, capsys):
        assert run_cli(capsys, "crossover") == (0, CROSSOVER, "")

    def test_sweep_csv(self, figure_rows):
        text = format_csv(figure_rows)
        assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_200_SHA256

    def test_verify(self, capsys):
        assert run_cli(capsys, "verify") == (0, VERIFY_DEFAULT, "")


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

    @pytest.mark.parametrize("bounds", ((0.1, np.pi / 4 + 2 * la.INPUT_TOL),
                                        (-2 * la.INPUT_TOL, 0.1), (0.2, 0.1), (np.nan, 0.1)))
    def test_sweep_rows_rejects_range(self, bounds):
        with pytest.raises(UsageError, match="need 0 <= theta-min < theta-max <= pi/4"):
            sweep_rows(*bounds, 5)

    def test_rows_record_the_angle_the_library_clamps(self):
        # An angle within INPUT_TOL outside [0, pi/4] is computed at the
        # endpoint, so its row records the endpoint.
        for given, endpoint in ((-la.INPUT_TOL / 2, 0.0),
                                (np.pi / 4 + la.INPUT_TOL / 2, np.pi / 4)):
            assert evaluate_point(given) == evaluate_point(endpoint)
        rows = sweep_rows(-la.INPUT_TOL / 2, np.pi / 4 + la.INPUT_TOL / 2, 2)
        assert [r["theta"] for r in rows] == [0.0, np.pi / 4]

    def test_sweep_rows_needs_two_steps(self):
        with pytest.raises(UsageError, match="steps must be >= 2"):
            sweep_rows(0.0, 0.1, 1)

    @pytest.mark.parametrize("steps", [2.5, 2.0, "3", None])
    def test_sweep_rows_needs_an_integral_step_count(self, steps):
        with pytest.raises(UsageError, match="steps must be >= 2"):
            sweep_rows(0.0, 0.5, steps)

    def test_csv_format(self):
        text = format_csv([evaluate_point(0.1)])
        assert text.startswith(CSV_HEADER + "\n")
        assert text.endswith("\n")
        assert "." in text.splitlines()[1]


class TestCrossover:
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
pass  protocols.measure_and_prepare_relays_respect_Ic  (80 checks, 0 failures)
pass  protocols.cloner_attains_the_closed_form_optimum  (12 checks, 0 failures)
pass  protocols.broadcast_sum_and_average_bounds  (12 checks, 0 failures)
ok: 12 suites, 184 checks, seed 3
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
        monkeypatch.setattr(verify, "ROUNDING_TOL", -1.0)
        code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--samples", "3")
        assert code == 2
        assert "FAIL" in out

    def test_each_suite_is_pinned_in_exactly_one_test(self):
        # Every suite of `verify` runs in one run_suite(...) call under
        # tests/, at one pinned (seed, samples); none twice, none unpinned.
        pinned = [ast.unparse(node.args[0])
                  for path in Path(__file__).parent.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_suite"]
        assert sorted(pinned) == sorted(f"verify.{suite.__name__}" for suite in verify.ALL_SUITES)

    def test_every_tolerance_is_read(self):
        # Every *_TOL, and every rounding constant (*_CLIP, *_SLACK, *_PROB),
        # a package module defines is read by a function of the package, or
        # by name in perfbench/workloads.py.
        modules = {path.stem: ast.parse(path.read_text())
                   for path in Path(verify.__file__).parent.glob("*.py")}
        bench = ast.parse((Path(__file__).parents[1] / "perfbench/workloads.py").read_text())
        read = {node.value for node in ast.walk(bench) if isinstance(node, ast.Constant)}
        read |= {getattr(node, "id", getattr(node, "attr", None))
                 for tree in modules.values() for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        defined = [(stem, target.id) for stem, tree in modules.items()
                   for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets
                   if getattr(target, "id", "").endswith(("_TOL", "_CLIP", "_SLACK", "_PROB"))]
        assert len(defined) >= 10
        assert [f"{stem}.{name}" for stem, name in defined if name not in read] == []

    def test_the_library_has_three_rounding_names(self):
        # Outside verify, what counts as zero is ENTROPY_CLIP, slack on
        # caller input is INPUT_TOL, and POVM completeness keeps its own
        # value; the other two names are search stop widths, in radians.
        modules = {path.stem: ast.parse(path.read_text())
                   for path in Path(verify.__file__).parent.glob("*.py") if path.stem != "verify"}
        defined = {f"{stem}.{target.id}" for stem, tree in modules.items()
                   for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets
                   if getattr(target, "id", "").endswith(("_TOL", "_CLIP", "_SLACK", "_PROB"))}
        assert defined == {"linalg.INPUT_TOL", "linalg.POVM_SUM_TOL", "linalg.ENTROPY_CLIP",
                           "correlations.REFINE_STEP_TOL", "protocols.CROSSOVER_TOL"}

    def test_every_verify_tolerance_is_the_rounding_tolerance(self):
        # Every check holds exactly, so each suite, and each benchmark check
        # that reads a verify name, allows rounding alone.
        assert verify.ROUNDING_TOL == 1e-12
        assert {name: value for name, value in vars(verify).items()
                if name.endswith("_TOL") and value != verify.ROUNDING_TOL} == {}

    def test_every_raises_names_its_message(self):
        # A bare pytest.raises(ValueError) passes on any fault; argument
        # errors belong in test_contract.py's rows and EXIT_CODES, which
        # name theirs.
        bare = [f"{path.name}:{node.lineno}"
                for path in Path(__file__).parent.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
                and "match" not in {kw.arg for kw in node.keywords}]
        assert bare == []

    def test_run_all_needs_a_sample(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify.run_all(3, 0)

    @pytest.mark.parametrize("samples", [1.5, 2.0, "3", None])
    def test_run_all_needs_an_integral_sample_count(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify.run_all(7, samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_run_all_needs_a_seed(self, seed):
        # The suites derive their sample seeds from it; the message names
        # the seed as given.
        with pytest.raises(ValueError, match=rf"seed must be a non-negative integer, got {seed}$"):
            verify.run_all(seed, 2)


# (argv, exit code, fragment of the one stderr line); "{tmp}" is a fresh
# directory. An argument the parser rejects is a usage error, exit 1.
EXIT_CODES = [
    (("point", "--theta", "2.0"), 1, "theta=2.0 outside [0, pi/4]"),
    *[(("point", "--theta", value), 1, f"theta={value} outside [0, pi/4]")
      for value in ("nan", "inf")],
    # The parser reads "-inf" after a space as an option, not as a value.
    (("point", "--theta", "-inf"), 1, "argument --theta: expected one argument"),
    (("point", "--theta=-inf"), 1, "theta=-inf outside [0, pi/4]"),
    (("point",), 1, "the following arguments are required: --theta"),
    (("sweep", "--theta-min", "0.2", "--theta-max", "0.1", "--steps", "5", "--out", "{tmp}/x.csv"),
     1, "need 0 <= theta-min < theta-max <= pi/4"),
    (("sweep", "--theta-min", "0", "--theta-max", "0.2", "--steps", "2",
      "--out", "{tmp}/no/dir/x.csv"), 1, "cannot write {tmp}/no/dir/x.csv"),
    (("sweep", "--theta-min", "0", "--theta-max", "0.2", "--steps", "2.5", "--out", "{tmp}/x.csv"),
     1, "argument --steps: invalid int value: '2.5'"),
    (("verify", "--samples", "0"), 1, "--samples must be >= 1"),
    (("verify", "--samples", "1.5"), 1, "argument --samples: invalid int value: '1.5'"),
    (("verify", "--seed", "-1"), 1, "--seed must be >= 0"),
    (("frobnicate",), 1, "argument command: invalid choice: 'frobnicate'"),
    ((), 1, "the following arguments are required: command"),
]


@pytest.mark.parametrize("argv, code, fragment", EXIT_CODES,
                         ids=[" ".join(argv) or "no-command" for argv, _, _ in EXIT_CODES])
def test_exit_code(capsys, tmp_path, argv, code, fragment):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    got_code, out, err = run_cli(capsys, *argv)
    assert (got_code, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment.format(tmp=tmp_path) in err
