"""Command line front end.

Subcommands mirror the library pipeline: ``indexset`` enumerates a
quasi-optimal selection, ``pvolume`` estimates the sublevel-set volume,
``synth`` assembles a network for a seeded synthetic target, ``eval`` runs a
saved network over points, ``verify`` re-measures a saved network against its
recorded budgets, and ``study`` sweeps term budgets into a CSV report with a
JSON sidecar.

Outputs are reproducible byte for byte except the wall_time column of study
CSVs and the sidecar timestamp.  Exit codes: 0 on success, 1 on a
categorized runtime failure (printed as ``error[category]: message``), 2 on
usage errors.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import multiindex as mi
from . import netcore as nc
from . import orthopoly as op
from . import synth as synthmod
from . import verify as verifymod
from .errors import ConfigurationError, QopnetError, VerificationError
from .sampling import SamplerSpec, default_sampler

_CONFIG_KEYS = {
    "bound", "rho", "d", "log_c", "literal_prefactor", "family", "m",
    "seed", "pvol", "cutoff", "tau", "no_extrapolate", "sampler",
    "sampler_n", "sampler_seed", "tail_margin", "precision",
}


def _add_bound_flags(p):
    p.add_argument("--bound", choices=("isotropic", "taylor", "legendre"),
                   default=None, help="decay model for index selection")
    p.add_argument("--rho", default=None,
                   help="comma-separated per-coordinate rates, e.g. 2.0,3.5")
    p.add_argument("--d", type=int, default=None,
                   help="dimension (isotropic only; others take it from rho)")
    p.add_argument("--log-c", dest="log_c", type=float, default=None,
                   help="log of the coefficient-bound prefactor")
    p.add_argument("--literal-prefactor", dest="literal_prefactor",
                   action="store_true", default=None,
                   help="use the |2n-1| polynomial prefactor variant")


def _add_sampler_flags(p):
    p.add_argument("--sampler", choices=("grid", "halton"), default=None)
    p.add_argument("--sampler-n", dest="sampler_n", type=int, default=None)
    p.add_argument("--sampler-seed", dest="sampler_seed", type=int,
                   default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qopnet",
        description="quasi-optimal polynomial approximations realized as "
                    "deep ReLU networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indexset", help="enumerate a quasi-optimal index set")
    _add_bound_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--m", type=int, default=None, help="number of indices")
    p.add_argument("--out", default=None, help="write JSON here, not stdout")

    p = sub.add_parser("pvolume", help="estimate the sublevel-set volume")
    _add_bound_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--tau", type=float, default=None,
                   help="lattice resolution (default 512)")
    p.add_argument("--no-extrapolate", dest="no_extrapolate",
                   action="store_true", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="assemble a network for a seeded target")
    _add_bound_flags(p)
    _add_sampler_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="target coefficient seed (required)")
    p.add_argument("--pvol", type=float, default=None,
                   help="sublevel volume (default: estimated)")
    p.add_argument("--cutoff", type=float, default=None,
                   help="target support cutoff (default: threshold + "
                        f"{verifymod.TARGET_MARGIN:g})")
    p.add_argument("--family", choices=("shifted_legendre", "monomial"),
                   default=None)
    p.add_argument("--out", required=True, help="network JSON path")
    p.add_argument("--report", default=None, help="synthesis report path")

    p = sub.add_parser("eval", help="evaluate a saved network over points")
    p.add_argument("--network", required=True)
    p.add_argument("--points", required=True,
                   help="CSV, one comma-separated point per line")
    p.add_argument("--out", default=None, help="values CSV (default stdout)")

    p = sub.add_parser("verify",
                       help="re-measure a saved network against its budgets")
    _add_sampler_flags(p)
    p.add_argument("--network", required=True)
    p.add_argument("--out", default=None, help="write the check JSON here")

    p = sub.add_parser("study", help="sweep term budgets into a CSV report")
    _add_bound_flags(p)
    _add_sampler_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--m", default=None,
                   help="comma-separated budgets, e.g. 2,4,8")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pvol", type=float, default=None)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--tail-margin", dest="tail_margin", type=float,
                   default=None)
    p.add_argument("--precision", choices=("auto", "float64", "dd"),
                   default=None)
    p.add_argument("--family", choices=("shifted_legendre", "monomial"),
                   default=None)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--sidecar", default=None,
                   help="JSON sidecar path (default: CSV path + .json)")
    return parser


def _apply_config(args):
    """Fill unset flags from the --config JSON file; flags win."""
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path}: expected an object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(
            f"config {path}: unknown keys {sorted(unknown)}")
    for key, val in doc.items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)


def _parse_rho(text):
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad --rho value {text!r}") from exc


def _bound_from_args(args):
    kind = args.bound or "isotropic"
    rho = _parse_rho(args.rho)
    log_c = args.log_c if args.log_c is not None else 0.0
    literal = bool(args.literal_prefactor)
    if kind == "isotropic":
        if rho is not None:
            raise ConfigurationError(
                "isotropic takes no decay rates; use taylor or legendre "
                "for per-coordinate --rho")
        if args.d is None:
            raise ConfigurationError("isotropic bound needs --d")
        return mi.BoundFunction("isotropic", dim=args.d, log_c=log_c)
    if rho is None:
        raise ConfigurationError(f"{kind} bound needs --rho")
    if args.d is not None and args.d != len(rho):
        raise ConfigurationError(
            f"--d {args.d} disagrees with {len(rho)} rates in --rho")
    if kind == "taylor":
        return mi.taylor_bound(rho, log_c=log_c)
    return mi.legendre_bound(rho, log_c=log_c, literal_prefactor=literal)


def _sampler_from_args(args, d):
    if args.sampler is None:
        if args.sampler_n is not None or args.sampler_seed is not None:
            raise ConfigurationError("--sampler-n/--sampler-seed need "
                                     "--sampler")
        return default_sampler(d)
    if args.sampler == "halton" and args.sampler_seed is None:
        raise ConfigurationError("halton sampling requires --sampler-seed")
    n = args.sampler_n
    if n is None:
        raise ConfigurationError("--sampler requires --sampler-n")
    return SamplerSpec(args.sampler, n, seed=args.sampler_seed or 0)


def _emit(doc, out):
    text = json.dumps(doc, indent=1) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(args, name):
    if getattr(args, name, None) is None:
        raise ConfigurationError(f"--{name.replace('_', '-')} is required")
    return getattr(args, name)


def _cmd_indexset(args):
    _apply_config(args)
    bound = _bound_from_args(args)
    m = int(_require(args, "m"))
    lam = mi.enumerate_quasi_optimal(bound, m)
    _emit(lam.to_json_dict(), args.out)
    return 0


def _cmd_pvolume(args):
    _apply_config(args)
    bound = _bound_from_args(args)
    tau = args.tau if args.tau is not None else 512.0
    est = mi.estimate_sublevel_volume(bound, tau=tau,
                                      extrapolate=not args.no_extrapolate)
    _emit(est.to_json_dict(), args.out)
    return 0


def _family_from_args(args):
    return op.make_family(args.family or "shifted_legendre")


def _cmd_synth(args):
    _apply_config(args)
    bound = _bound_from_args(args)
    family = _family_from_args(args)
    m = int(_require(args, "m"))
    seed = int(_require(args, "seed"))
    lam = mi.enumerate_quasi_optimal(bound, m)
    pvol = args.pvol
    if pvol is None:
        pvol = mi.estimate_sublevel_volume(bound).value
    cutoff = args.cutoff
    if cutoff is None:
        cutoff = lam.threshold + verifymod.TARGET_MARGIN
    target = op.synthetic_expansion(bound, family, cutoff, seed=seed)
    sampler = _sampler_from_args(args, bound.dim)
    net, report = synthmod.expansion_network(target.restrict(lam), pvol,
                                             sampler=sampler)
    nc.save_network(net, args.out)
    if args.report:
        _emit(report.to_json_dict(), args.report)
    return 0


def _load_points(path, d):
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.shape[1] != d:
        raise ConfigurationError(
            f"points file has {pts.shape[1]} coordinates per line, network "
            f"takes {d}")
    return pts


def _cmd_eval(args):
    net = nc.load_network(args.network)
    pts = _load_points(args.points, net.input_dim)
    vals = net.forward(pts)
    lines = [",".join("%.17e" % v for v in row) for row in vals]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    net = nc.load_network(args.network)
    meta = net.metadata
    for key in ("epsilon", "coeffs", "index_set", "global_exponent", "pvol"):
        if key not in meta:
            raise VerificationError(
                f"network metadata lacks {key!r}; only networks written by "
                f"synth carry re-checkable budgets")
    sampler = _sampler_from_args(args, net.input_dim)
    family = op.make_family(meta.get("family", "shifted_legendre"))
    budgets = {tuple(int(v) for v in k.split(",")): e
               for k, e in meta["epsilon"].items()}
    indices = [tuple(int(v) for v in nu) for nu in meta["index_set"]]
    live = [nu for nu in indices if sum(nu) != 0]

    checks, worst = [], 0.0
    if net.depth > 1 and live:
        bound_rhs = len(indices) * math.exp(-meta["global_exponent"])
        errors, _ = synthmod.measure_errors(
            net, live, family, sampler.points(net.input_dim),
            synthmod.choose_precision(bound_rhs, budgets))
        for nu in live:
            err, eps = errors[nu], budgets[nu]
            worst = max(worst, err / eps if eps > 0 else np.inf)
            checks.append({"nu": list(nu), "measured": err, "budget": eps,
                           "passed": synthmod.within_budget(err, eps)})
    failed = [c for c in checks if not c["passed"]]
    doc = {"network": args.network,
           "points": sampler.to_json_dict(),
           "subnetworks": checks,
           "worst_ratio": worst,
           "passed": not failed}
    _emit(doc, args.out)
    if failed:
        raise VerificationError(
            f"{len(failed)} subnetwork(s) exceed their recorded budgets; "
            f"first offender nu={failed[0]['nu']}")
    return 0


def _parse_m_list(text):
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"bad --m value {text!r}") from exc


def _cmd_study(args):
    _apply_config(args)
    bound = _bound_from_args(args)
    family = _family_from_args(args)
    m_values = _parse_m_list(_require(args, "m"))
    seed = int(_require(args, "seed"))
    sampler = _sampler_from_args(args, bound.dim)
    report = verifymod.convergence_study(
        bound, family, m_values, pvol=args.pvol, sampler=sampler, seed=seed,
        coeff_cutoff=args.cutoff,
        tail_margin=args.tail_margin if args.tail_margin is not None else 60.0,
        precision=args.precision or "auto")
    report.write(args.out, args.sidecar)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


_DISPATCH = {
    "indexset": _cmd_indexset,
    "pvolume": _cmd_pvolume,
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "study": _cmd_study,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except QopnetError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error[format]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
