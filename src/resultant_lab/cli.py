"""Command line front end.

Subcommands:
    eval        evaluate a system at points
    cayley      build the Cayley resultant of a system, emit JSON
    sylvester   build the Sylvester resultant (bivariate), emit JSON
    solve       run the full pipeline, emit roots as JSON or CSV
    condition   conditioning tables at a known root or for a family
    repro       regenerate the standard conditioning tables

Exit codes: 0 success, 1 malformed input, 2 construction failure,
3 eigensolver failure.  Logging level comes from --log-level or the
RESULTANT_LAB_LOG environment variable.
"""

import argparse
import cmath
import json
import logging
import os
import sys

import numpy as np

from .cayley import cayley_resultant, cayley_resultant_to_json
from .matpoly import EigenSolveError, StructureError
from .multipoly import hide_variable, mp_eval, system_from_json
from .rootfinder import (SolveOptions, condition_at_root, condition_sweep,
                         family_coupled_quadratic, report_to_csv,
                         report_to_json, solve_system)
from .sylvester import sylvester_resultant, sylvester_resultant_to_json

log = logging.getLogger(__name__)


class InputError(Exception):
    """Unreadable or malformed input data."""


def _load_system(path):
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as fh:
                obj = json.load(fh)
        return system_from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot load system from {path}: {exc}") from exc


def _parse_numbers(text, what):
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        values = [complex(part) for part in parts]
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from exc
    for i, (part, v) in enumerate(zip(parts, values)):
        if not cmath.isfinite(v):
            raise InputError(f"{what} {text!r}: component {i + 1} "
                             f"({part}) is not finite")
    return values


def _parse_taus(text, system):
    """--taus as a tuple, or None when the flag was not given; the
    Cayley construction takes one nonnegative bound per variable that
    is not hidden."""
    if not text:
        return None
    try:
        taus = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"cannot parse degree bounds {text!r}") from exc
    if len(taus) != system.dim - 1 or any(t < 0 for t in taus):
        raise InputError(f"--taus {text!r}: need {system.dim - 1} "
                         "nonnegative degree bounds for a "
                         f"{system.dim}-variable system")
    return taus


def _check_hidden(hidden, system):
    if hidden is not None and not 0 <= hidden < system.dim:
        raise InputError(f"--hidden {hidden} is out of range: a "
                         f"{system.dim}-variable system takes "
                         f"0..{system.dim - 1}")


def _write_out(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt_complex(z):
    if z.imag == 0.0:
        return repr(z.real)
    return repr(z)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_eval(args):
    system = _load_system(args.system)
    lines = []
    for text in args.point:
        point = _parse_numbers(text, "point")
        if len(point) != system.dim:
            raise InputError(f"point {text!r} has {len(point)} components, "
                             f"system has {system.dim}")
        values = [mp_eval(p, point) for p in system.polys]
        lines.append("\t".join(_fmt_complex(v) for v in values))
    _write_out("\n".join(lines), args.out)
    return 0


def cmd_cayley(args):
    system = _load_system(args.system)
    _check_hidden(args.hidden, system)
    taus = _parse_taus(args.taus, system)
    res = cayley_resultant(hide_variable(system, args.hidden), taus)
    _write_out(json.dumps(cayley_resultant_to_json(res), indent=2), args.out)
    return 0


def cmd_sylvester(args):
    system = _load_system(args.system)
    _check_hidden(args.hidden, system)
    hv = hide_variable(system, args.hidden)
    res = sylvester_resultant(hv)
    _write_out(json.dumps(sylvester_resultant_to_json(res), indent=2),
               args.out)
    return 0


def cmd_solve(args):
    system = _load_system(args.system)
    _check_hidden(args.hidden, system)
    if args.taus and args.method == "sylvester":
        raise InputError("--taus sets Cayley degree bounds; --method "
                         "sylvester takes none")
    taus = _parse_taus(args.taus, system)
    try:
        opts = SolveOptions(hidden_index=args.hidden, taus=taus,
                            tol_accept=args.tol_accept,
                            domain_margin=args.margin,
                            polish=not args.no_polish)
    except ValueError as exc:
        raise InputError(f"bad --tol-accept or --margin: {exc}") from exc
    report = solve_system(system, method=args.method, options=opts)
    if args.format == "csv":
        _write_out(report_to_csv(report), args.out)
    else:
        _write_out(json.dumps(report_to_json(report), indent=2), args.out)
    log.info("%d roots (%d accepted)", len(report.roots),
             len(report.accepted))
    return 0


def _condition_table(rows, method, d):
    lines = [f"{'sigma':>10} {'kappa_eig':>14} {'closed_form':>14} "
             f"{'rel_err':>10} {'kappa_root':>14}"]
    for sigma, rec in rows:
        if method == "sylvester":
            closed = np.sqrt(1.0 + sigma ** 2) / sigma ** 2
        else:
            closed = sigma ** (-d)
        rel = abs(rec.eig_condition - closed) / closed
        lines.append(f"{sigma:>10.4g} {rec.eig_condition:>14.6e} "
                     f"{closed:>14.6e} {rel:>10.2e} "
                     f"{rec.root_condition:>14.6e}")
    return "\n".join(lines)


def cmd_condition(args):
    if args.system:
        system = _load_system(args.system)
        if not args.root:
            raise InputError("--root is required with --system")
        root = _parse_numbers(args.root, "root")
        if len(root) != system.dim:
            raise InputError("root length does not match the system")
        _check_hidden(args.hidden, system)
        rec = condition_at_root(system, np.array(root), method=args.method,
                                hidden_index=args.hidden)
        obj = {"method": rec.method,
               "eig_condition": rec.eig_condition,
               "root_condition": rec.root_condition,
               "rayleigh": [rec.rayleigh.real, rec.rayleigh.imag],
               "jacobian_det": [rec.jacobian_det.real, rec.jacobian_det.imag]}
        _write_out(json.dumps(obj, indent=2), args.out)
        return 0
    if args.dim < 2:
        raise InputError(f"--dim {args.dim}: the family needs at least "
                         "2 variables")
    sigmas = _parse_numbers(args.sigmas, "sigmas")
    for i, sigma in enumerate(sigmas):
        if sigma.imag != 0.0 or not sigma.real > 0.0:
            raise InputError(f"sigmas {args.sigmas!r}: component {i + 1} is "
                             f"{_fmt_complex(sigma)}, not a positive real "
                             "number")
    sigmas = [sigma.real for sigma in sigmas]
    rows = condition_sweep(args.dim, sigmas, method=args.method,
                           seed=args.seed)
    _write_out(_condition_table(rows, args.method, args.dim), args.out)
    return 0


def cmd_repro(args):
    out = []
    for d in (2, 3):
        rows = condition_sweep(d, [0.5, 0.2, 0.1], method="cayley")
        out.append(f"# coupled rotation family, d={d}, full construction")
        out.append(_condition_table(rows, "cayley", d))
    rows = condition_sweep(2, [0.5, 0.1], method="sylvester")
    out.append("# coupled rotation family, d=2, bivariate construction")
    out.append(_condition_table(rows, "sylvester", 2))
    u = 1e-4
    system = family_coupled_quadratic(u)
    res = cayley_resultant(hide_variable(system))
    top = res.matrix_poly.coeffs[2]
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    dev = float(np.max(np.abs(top - target)))
    out.append(f"# weakly coupled pair, u={u:g}: leading matrix deviation "
               f"from [[0,1],[1,0]] = {dev:.3e} (should be O(u))")
    _write_out("\n".join(out), args.out)
    return 0


# ----------------------------------------------------------------------
# Parser plumbing
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="resultant-lab",
        description="Hidden-variable resultant solvers for polynomial "
                    "systems in degree-graded bases.")
    parser.add_argument("--log-level", default=None,
                        help="DEBUG/INFO/WARNING/ERROR (default from "
                             "RESULTANT_LAB_LOG, else WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, hidden=True, out=True):
        p.add_argument("--system", required=True,
                       help="system JSON file, or - for stdin")
        if hidden:
            p.add_argument("--hidden", type=int, default=None,
                           help="index of the variable to hide "
                                "(default: the last)")
        if out:
            p.add_argument("--out", default=None,
                           help="output file (default stdout)")

    p = sub.add_parser("eval", help="evaluate the system at points")
    common(p, hidden=False)
    p.add_argument("--point", action="append", required=True,
                   help="comma-separated components; repeatable; write "
                        "--point=-0.5,0.5 when the first is negative")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cayley", help="emit the Cayley resultant as JSON")
    common(p)
    p.add_argument("--taus", default=None,
                   help="comma-separated degree bound overrides")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("sylvester",
                       help="emit the Sylvester resultant as JSON")
    common(p)
    p.set_defaults(func=cmd_sylvester)

    p = sub.add_parser("solve", help="find roots inside the domain")
    common(p)
    p.add_argument("--method", choices=("cayley", "sylvester"),
                   default="cayley")
    p.add_argument("--taus", default=None)
    p.add_argument("--tol-accept", type=float,
                   default=SolveOptions.tol_accept,
                   help="spurious-root residual threshold (relative)")
    p.add_argument("--margin", type=float,
                   default=SolveOptions.domain_margin,
                   help="domain inflation when filtering eigenvalues")
    p.add_argument("--no-polish", action="store_true",
                   help="skip Newton refinement")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("condition",
                       help="conditioning at a root or across a family")
    p.add_argument("--system", default=None,
                   help="system JSON (needs --root)")
    p.add_argument("--root", default=None,
                   help="comma-separated root components; write "
                        "--root=-0.5,-0.5 when the first is negative")
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--method", choices=("cayley", "sylvester"),
                   default="cayley")
    p.add_argument("--dim", type=int, default=2,
                   help="family dimension (family mode)")
    p.add_argument("--sigmas", default="0.5,0.2,0.1",
                   help="family coupling strengths (family mode)")
    p.add_argument("--seed", type=int, default=None,
                   help="random rotation seed (family mode)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("repro",
                       help="regenerate the standard conditioning tables")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_repro)

    return parser


def _setup_logging(level_flag):
    level_name = level_flag or os.environ.get("RESULTANT_LAB_LOG", "WARNING")
    level = getattr(logging, str(level_name).upper(), logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EigenSolveError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, StructureError, np.linalg.LinAlgError) as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
