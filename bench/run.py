"""qopnet benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload study_d1 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                    # all three workloads, interleaved

Every repetition runs in a fresh interpreter (``workload.py``) with one
BLAS/OpenMP thread, so each run pays imports and cold gadget caches as a
user's process does.  Repetitions of the chosen workloads are interleaved
round by round and repeat while the next round still fits in ``--seconds``
(at least one round always runs).  Set-up time is sampled in extra
interpreters that stop at the first pipeline call.

With ``--trace 0`` the last line reports the end-to-end metrics (medians);
with ``--trace 1`` every round runs one untraced and one traced repetition
and the last line reports the per-layer metrics of the traced ones, with
``trace.overhead_s`` = traced minus untraced ``wall_s``.  A run record
(commit, cores, versions, thread settings, sample counts, src/ line count,
every raw sample) is printed before the last line and written with the
spans to ``.bench_out/``.  See README.md for the workloads and the map from
layer metrics to end-to-end metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402
from workload import WORKLOADS, operations  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 4          # set-up-only interpreters per workload and run
RUN_LIMIT_S = 170.0       # hard stop for one invocation of this script
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(workload, args, deadline, *, trace=0, setup_only=False):
    """Run one repetition in a fresh interpreter; return its result dict."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--trace", str(trace), "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace-file",
                str(OUT / f"trace-{workload}-seed{args.seed}-"
                          f"{Path(workdir).name}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                env=env, cwd=str(ROOT),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timed out", "elapsed_s":
                    time.monotonic() - spawned}
        elapsed = time.monotonic() - spawned
        result_file = Path(workdir) / "result.json"
        if proc.returncode != 0 or not result_file.is_file():
            tail = (err or out).strip().splitlines()[-1:] or ["no output"]
            return {"error": f"exit {proc.returncode}: {tail[0]}",
                    "elapsed_s": elapsed}
        result = json.loads(result_file.read_text())
        result["elapsed_s"] = elapsed
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def measure(names, args):
    """Interleaved rounds of repetitions; returns raw samples per workload."""
    deadline = time.monotonic() + RUN_LIMIT_S
    raw = {name: {"setup": [], "plain": [], "traced": []} for name in names}

    def record(name, res, kind):
        if "error" in res:
            ops = len(operations(name, args.tiny))
            res = {"attempted": ops, "failed": ops,
                   "failures": [res["error"]]}
        raw[name][kind].append(res)

    for k in range(SETUP_PROBES):
        for name in names[k % len(names):] + names[:k % len(names)]:
            res = _child(name, args, deadline, setup_only=True)
            if "error" in res:
                raise HarnessError(f"{name} set-up failed: {res['error']}")
            raw[name]["setup"].append(res["setup_s"])
    start = time.monotonic()
    rounds = 0
    round_s = 0.0
    while rounds == 0 or (time.monotonic() + round_s
                          <= start + args.seconds):
        began = time.monotonic()
        order = names[rounds % len(names):] + names[:rounds % len(names)]
        for name in order:
            record(name, _child(name, args, deadline), "plain")
            if args.trace:
                record(name, _child(name, args, deadline, trace=1), "traced")
        rounds += 1
        round_s = time.monotonic() - began
        if time.monotonic() >= deadline:
            break
    return raw


def summarize(samples, trace):
    """Metric values, sample counts, and the operation totals of one
    workload."""
    ok = [s for s in samples["plain"] if "wall_s" in s]
    traced = [s for s in samples["traced"] if "wall_s" in s]
    every = samples["plain"] + samples["traced"]
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    setups = samples["setup"] + [s["setup_s"] for s in ok + traced]
    values = {}
    counts = {}
    if not trace:
        values = {"wall_s": _median([s["wall_s"] for s in ok]),
                  "setup_s": _median(setups),
                  "peak_rss_mb": _median([s["peak_rss_mb"] for s in ok])}
        counts = {"wall_s": len(ok), "setup_s": len(setups),
                  "peak_rss_mb": len(ok)}
    elif traced:
        for metric, _ in LAYER_METRICS:
            if metric == "trace.overhead_s":
                continue
            values[metric] = _median([s["layers"][metric] for s in traced])
            counts[metric] = len(traced)
        values["trace.overhead_s"] = (
            _median([s["wall_s"] for s in traced])
            - _median([s["wall_s"] for s in ok]))
        counts["trace.overhead_s"] = min(len(traced), len(ok))
        for s in traced:
            drift = abs(s["layers"]["trace.self_sum_s"]
                        - s["layers"]["trace.root_s"])
            if drift > 1e-6 * max(1.0, s["layers"]["trace.root_s"]):
                failed += 1
                s.setdefault("failures", []).append(
                    f"self times sum to {s['layers']['trace.self_sum_s']}, "
                    f"root span is {s['layers']['trace.root_s']}")
    return {"values": values, "counts": counts, "attempted": attempted,
            "failed": failed, "error_rate": failed / max(attempted, 1)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-check sizes (no reference outputs)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qopnet" / "__init__.py").is_file():
        print(f"bench: no qopnet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        raw = measure(names, args)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    summary = {name: summarize(raw[name], args.trace) for name in names}
    metrics = {}
    for name in names:
        s = summary[name]
        print(f"{name}: error_rate {s['error_rate']:.4g} "
              f"({s['failed']} of {s['attempted']} operations failed)")
        for metric, value in s["values"].items():
            print(f"  {metric:38s} {value:<14.6g} {units[metric]:14s} "
                  f"n={s['counts'][metric]}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
        for sample in raw[name]["plain"] + raw[name]["traced"]:
            for failure in sample.get("failures", []):
                print(f"  FAILED: {failure}")

    first = next((s for n in names for s in raw[n]["plain"]
                  if "versions" in s), {})
    record = {
        "workloads": names, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "commit": _git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "versions": first.get("versions", {}), "thread_env": THREAD_ENV,
        "src_lines": _src_lines(), "summary": summary, "raw": raw,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k != "raw"}))
    attempted = sum(s["attempted"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
