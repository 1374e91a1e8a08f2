"""Fast self-check of the benchmark harness (about half a minute).

Runs every workload at the tiny sizes (``run.py --tiny``), untraced and
traced, and checks that the last output line is the result object, that
every operation passed, and that it names exactly the metrics
``BENCHMARK.json`` declares, each with its declared unit.  It also checks
that the benchmark exits non-zero, printing no result, in a directory that
holds only ``BENCHMARK.json`` and ``bench/``.

    python3 bench/smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workload import WORKLOADS  # noqa: E402


def _run(cwd, *argv):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workload.py")
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, "--workload", name, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace), "--tiny")
            where = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(k for k in got if k in declared[trace]
                               and got[k] != declared[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "--workload", WORKLOADS[0], "--seed", "0",
                    "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or done.stdout.strip():
            problems.append("bare directory: expected a non-zero exit and "
                            f"no result, got exit {done.returncode}")
    finally:
        shutil.rmtree(bare)
    for line in problems:
        print("FAIL " + line)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
