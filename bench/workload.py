"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the JSON result
it writes.  The script imports qopnet from the checkout's ``src/``,
generates its inputs from the workload seed, runs the pipeline, checks the
outputs, and reports:

* ``setup_s``: from the parent's spawn timestamp (``--spawned-at``, a
  ``time.monotonic`` value) to the first pipeline call, i.e. interpreter
  start, imports and input generation;
* ``wall_s``: from the first pipeline call until the last output is written;
* ``peak_rss_mb``: this process's peak resident set when the last output
  is written;
* ``attempted`` / ``failed`` operations (a study row or a CLI command), the
  reason for every failure, and the checked outputs (study CSV rows,
  SHA-256 of the CLI files) from which ``reference.json`` is recorded;
* with ``--trace 1``, the per-layer values of ``tracer.layer_metrics``.

Output checks: the program's own checks must pass for every seed (studies
raise ``VerificationError``; ``verify`` exits 1), eval values must lie
within the a-priori error budget of the target expansion, and for seed 0
every output must match ``reference.json`` byte for byte (study CSVs with
the ``wall_time`` column removed).
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Study configurations are those of the acceptance sweeps; the workload seed
# is added to the target seed, so it changes coefficient signs but never
# the index sets, budgets or network sizes.
STUDIES = {
    "study_d1": {"dim": 1, "m_values": [2, 4, 8, 16, 32], "pvol": 1.0,
                 "seed": 7, "coeff_cutoff": 40.0},
    "study_d2": {"dim": 2, "m_values": [6, 21, 66, 120], "pvol": 0.5,
                 "seed": 11, "coeff_cutoff": None},
}
CLI_CHAIN = {"dim": 3, "m": 220, "seed": 0, "points": 1024}

# --tiny: the smoke-check sizes, seconds instead of minutes
TINY = {
    "study_d1": {"m_values": [2, 4]},
    "study_d2": {"m_values": [6, 21]},
    "cli_chain": {"m": 10, "points": 64},
}

WORKLOADS = ("study_d1", "study_d2", "cli_chain")


def operations(name, tiny):
    """Labels of the operations one repetition attempts."""
    if name == "cli_chain":
        return ["synth", "eval", "verify"]
    m_values = (TINY if tiny else STUDIES)[name]["m_values"]
    return [f"M={m}" for m in m_values]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_without_wall_time(path):
    """Study CSV lines with the last (wall_time) column dropped."""
    lines = Path(path).read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


class Outcome:
    """Operations attempted and failed, with one message per failure."""

    def __init__(self, operations):
        self.operations = list(operations)
        self.failed = set()
        self.failures = []
        self.outputs = {}

    def fail(self, operations, message):
        self.failed.update(operations)
        self.failures.append(message)


# -- study workloads ---------------------------------------------------------


def study_inputs(name, seed, tiny):
    from qopnet import multiindex as mi, orthopoly as op
    cfg = dict(STUDIES[name])
    if tiny:
        cfg.update(TINY[name])
    return {"bound": mi.isotropic_bound(cfg["dim"]),
            "family": op.shifted_legendre(),
            "m_values": cfg["m_values"], "pvol": cfg["pvol"],
            "seed": cfg["seed"] + seed, "coeff_cutoff": cfg["coeff_cutoff"]}


def run_study(inputs, outcome):
    """convergence_study, then the CSV; returns the CSV path or None."""
    from qopnet import QopnetError, multiindex, verify

    # rows finish with their tail bracket; counting those tells how many
    # rows completed before a failure
    finished = [0]
    tail_sum = multiindex.tail_sum

    def counted_tail(*args, **kwargs):
        out = tail_sum(*args, **kwargs)
        finished[0] += 1
        return out

    multiindex.tail_sum = counted_tail
    try:
        report = verify.convergence_study(
            inputs["bound"], inputs["family"], inputs["m_values"],
            pvol=inputs["pvol"], seed=inputs["seed"],
            coeff_cutoff=inputs["coeff_cutoff"])
        report.write_csv("study.csv")
    except QopnetError as exc:
        outcome.fail(outcome.operations[finished[0]:],
                     f"study raised {type(exc).__name__}: {exc}")
        return None
    finally:
        multiindex.tail_sum = tail_sum
    return "study.csv"


def check_study(name, csv_path, outcome, reference):
    if csv_path is None:
        return
    lines = _csv_without_wall_time(csv_path)
    header, rows = lines[0], lines[1:]
    outcome.outputs["csv_rows"] = rows
    if len(rows) != len(outcome.operations):
        outcome.fail(outcome.operations, f"study CSV has {len(rows)} rows")
        return
    cols = header.split(",")
    for op, line in zip(outcome.operations, rows):
        rec = dict(zip(cols, line.split(",")))
        sup, rhs = float(rec["sup_error_uQ_uNN"]), float(rec["bound_rhs"])
        if not (math.isfinite(sup) and sup <= rhs):
            outcome.fail([op], f"{op}: sup {sup} above bound {rhs}")
    if reference is None:
        return
    if header != reference[name]["csv_header"]:
        outcome.fail(outcome.operations,
                     "study CSV header differs from reference")
        return
    for op, got, want in zip(outcome.operations, rows,
                             reference[name]["csv_rows"]):
        if got != want:
            outcome.fail([op], f"{op}: row differs from reference: {got}")


# -- CLI chain ---------------------------------------------------------------


def cli_inputs(seed, tiny):
    """argv of the three commands, plus the eval points file."""
    import numpy as np
    from scipy.stats import qmc
    cfg = dict(CLI_CHAIN)
    if tiny:
        cfg.update(TINY["cli_chain"])
    s = cfg["seed"] + seed
    pts = qmc.Halton(d=cfg["dim"], scramble=True, seed=s + 3).random(
        cfg["points"])
    np.savetxt("points.csv", pts, delimiter=",", fmt="%.17e")
    halton = ["--sampler", "halton", "--sampler-n", str(cfg["points"])]
    return [
        ("synth", ["synth", "--bound", "isotropic", "--d", str(cfg["dim"]),
                   "--m", str(cfg["m"]), "--seed", str(s)] + halton +
         ["--sampler-seed", str(s + 1), "--out", "net.json",
          "--report", "report.json"]),
        ("eval", ["eval", "--network", "net.json", "--points", "points.csv",
                  "--out", "values.csv"]),
        ("verify", ["verify", "--network", "net.json"] + halton +
         ["--sampler-seed", str(s + 2), "--out", "verify.json"]),
    ]


def run_cli(commands, outcome, tracer):
    """Run the chain in this process; a failed command fails the rest."""
    from qopnet import cli
    for k, (name, argv) in enumerate(commands):
        span = tracer.span("cli." + name) if tracer else \
            contextlib.nullcontext()
        with span:
            code = cli.main(argv)
        if code != 0:
            outcome.fail(outcome.operations[k:], f"{name} exited {code}")
            return False
    return True


def check_cli(ok, outcome, reference):
    import numpy as np
    from qopnet import multiindex as mi, orthopoly as op
    if not ok:
        return
    files = {"network_json": "net.json", "report_json": "report.json",
             "eval_csv": "values.csv", "verify_json": "verify.json"}
    outcome.outputs.update({k: _sha256(v) for k, v in files.items()})
    # eval: every value within the a-priori budget of the target expansion
    meta = json.loads(Path("net.json").read_text())["metadata"]
    indices = tuple(tuple(nu) for nu in meta["index_set"])
    target = op.QuasiOptimalExpansion(
        mi.QuasiOptimalIndexSet(indices, meta["threshold"], None),
        tuple(meta["coeffs"]), op.make_family(meta["family"]))
    budget = math.fsum(
        abs(c) * meta["epsilon"][",".join(map(str, nu))]
        for nu, c in zip(indices, meta["coeffs"]) if sum(nu))
    pts = np.loadtxt("points.csv", delimiter=",", ndmin=2)
    vals = np.loadtxt("values.csv", delimiter=",", ndmin=1)
    err = np.abs(vals - target.evaluate(pts))
    if vals.shape != (len(pts),) or not np.all(err <= budget + 1e-12):
        outcome.fail(["eval"], f"eval values off target: max error "
                        f"{float(np.max(err))} vs budget {budget}")
    doc = json.loads(Path("verify.json").read_text())
    if not doc["passed"] or not all(c["passed"] for c in doc["subnetworks"]):
        outcome.fail(["verify"], "verify reported a failed subnetwork")
    if reference is None:
        return
    producer = {"network_json": "synth", "report_json": "synth",
                "eval_csv": "eval", "verify_json": "verify"}
    for key, name in files.items():
        if outcome.outputs[key] != reference["cli_chain"][key]:
            outcome.fail([producer[key]], f"{name} differs from reference")


# -- entry point -------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first pipeline call")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import qopnet
    from qopnet import cli, verify  # noqa: F401  (import cost is set-up)
    import tracer as tracing

    os.chdir(args.workdir)
    reference = None
    if args.seed == 0 and not args.tiny:
        reference = json.loads((HERE / "reference.json").read_text())
    if args.workload == "cli_chain":
        inputs = cli_inputs(args.seed, args.tiny)
    else:
        inputs = study_inputs(args.workload, args.seed, args.tiny)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "qopnet": qopnet.__version__}}
    if args.setup_only:
        Path("result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracing.install(tracer)
    outcome = Outcome(operations(args.workload, args.tiny))
    start = time.perf_counter()
    root = tracer.open("bench.pipeline") if tracer else None
    if args.workload == "cli_chain":
        ok = run_cli(inputs, outcome, tracer)
    else:
        csv_path = run_study(inputs, outcome)
    if tracer:
        tracer.close(root)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        # before the checks, whose own calls would open further root spans
        result["layers"] = tracing.layer_metrics(
            tracer, len(outcome.operations))
        if args.trace_file:
            tracer.write_jsonl(args.trace_file)

    if args.workload == "cli_chain":
        check_cli(ok, outcome, reference)
    else:
        check_study(args.workload, csv_path, outcome, reference)
    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcome.operations),
        "failed": len(outcome.failed),
        "failures": outcome.failures,
        "outputs": outcome.outputs,
    })
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
