"""Command-line front end.

Commands:
  point      -- evaluate I, I^c (optimizer and closed-form routes, which
                must agree), discord, cloning information at one angle
  sweep      -- write the angle sweep behind the comparison figure as CSV
  crossover  -- locate the angle where the global-fidelity cloner overtakes
                LOCC (not where quantum communication starts to win)
  verify     -- run the seeded property suites

Exit codes: 0 success, 1 usage error, 2 numerical/property failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import verify as verify_mod
from .correlations import classical_correlation
from .koashi_winter import _check_theta, classical_correlation_kw, example_state
from .linalg import _as_int
from .protocols import cloning_recipient_info, find_crossover

CSV_COLUMNS = ("theta", "I", "Ic", "discord", "I_clone", "diff")
CSV_HEADER = ",".join(CSV_COLUMNS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_thetas(*thetas: float, message: str | None = None) -> list[float]:
    """The example family's angle check of each angle, as a usage error
    (with `message` in place of the check's own, if given); returns the
    angles as the check clamps them."""
    try:
        return [_check_theta(theta) for theta in thetas]
    except ValueError as exc:
        raise UsageError(message or str(exc)) from exc


def _parse_theta(value: float, in_pi: bool) -> float:
    return _check_thetas(value * np.pi if in_pi else value)[0]


def evaluate_point(theta: float) -> dict:
    """One sweep record plus the closed-form cross-check value, at the
    angle as the library clamps it. Raises ValueError when the optimizer's
    I^c and the closed form's differ by more than `verify.ROUNDING_TOL`."""
    theta = _check_theta(theta)
    rho = example_state(theta)
    rep = classical_correlation(rho)
    ic_kw = classical_correlation_kw(rho)
    gap = abs(rep.classical_info - ic_kw)
    if not gap <= verify_mod.ROUNDING_TOL:
        raise ValueError(f"Ic and Ic_kw differ by {gap:.3g} bits at theta={float(theta)!r}")
    i_clone = cloning_recipient_info(theta)
    return {
        "theta": theta,
        "I": rep.mutual_info,
        "Ic": rep.classical_info,
        "Ic_kw": ic_kw,
        "discord": rep.discord,
        "I_clone": i_clone,
        "diff": rep.classical_info - i_clone,
    }


def sweep_rows(theta_min: float, theta_max: float, steps: int) -> list[dict]:
    steps = _as_int(steps)
    if steps < 2:
        raise UsageError("steps must be >= 2")
    message = "need 0 <= theta-min < theta-max <= pi/4"
    _check_thetas(theta_min, theta_max, message=message)
    if not theta_min < theta_max:
        raise UsageError(message)
    return [evaluate_point(t) for t in np.linspace(theta_min, theta_max, steps)]


def format_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(format(r[k], ".9g") for k in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _cmd_point(args) -> int:
    theta = _parse_theta(args.theta, args.in_pi)
    print(json.dumps(evaluate_point(theta), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    theta_min = _parse_theta(args.theta_min, args.in_pi)
    theta_max = _parse_theta(args.theta_max, args.in_pi)
    rows = sweep_rows(theta_min, theta_max, args.steps)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(format_csv(rows))
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_crossover(_args) -> int:
    try:
        res = find_crossover()
    except RuntimeError as exc:
        print(f"crossover search failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "theta_prime_rad": res.theta,
        "theta_prime_over_pi": res.theta / np.pi,
        "tolerance_rad": res.tolerance_rad,
        "residual_bits": res.residual_bits,
        "evaluations": res.evaluations,
        "bracket_rad": list(res.bracket),
    }, indent=2))
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    results = verify_mod.run_all(args.seed, args.samples)
    failed = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{status}  {r.name}  ({r.checks} checks, {len(r.failures)} failures)")
        for detail in r.failures[:5]:
            print(f"       {detail}")
        failed = failed or not r.ok
    total = sum(r.checks for r in results)
    print(f"{'FAILED' if failed else 'ok'}: {len(results)} suites, {total} checks, seed {args.seed}")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="discordlim",
                     description="Discord, classical correlations, and cloning comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="evaluate all quantities at one angle")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--in-pi", action="store_true", help="interpret angles as multiples of pi")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("sweep", help="write an angle sweep as CSV")
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--in-pi", action="store_true", help="interpret angles as multiples of pi")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossover",
                       help="find the angle where the global-fidelity cloner overtakes LOCC",
                       description="Find theta', where the global-fidelity cloner overtakes "
                                   "LOCC on the example family. It is not where quantum "
                                   "communication starts to win: a 2 -> 4 broadcast isometry "
                                   "beats I^c for both recipients at 0.24 rad (~0.0764 pi).")
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
