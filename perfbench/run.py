"""mtra benchmark runner.

    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

runs the workloads one after another, each in fresh single-threaded
worker processes, checks every op's output, prints each metric with its
unit, and ends with one JSON line.  ``--trace 1`` reports the per-layer
metrics of BENCHMARK.json instead: an untraced pass and a traced pass of
the same rounds, whose time ratio gives ``trace.overhead_share``.
Records go to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit", "truthfulness", "cli")
SETUP_REPEATS = 4  # extra setup-only workers; setup_s is the median with the main worker's
# Times are reported at reference speed: scaled by REFERENCE_S over the
# duration of worker.reference() measured next to them.  On a shared
# machine the speed of a core drifts by tens of percent within seconds;
# the scaling cancels that drift and leaves a change in mtra's own cost.
REFERENCE_S = 0.005
DEADLINE_S = 170  # a single-workload run must end within 180 s


class HarnessError(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MTRA_SEED", "PYTHONOPTIMIZE")}
    t_start = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--t-start", repr(t_start), *args]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t_start)
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {args} did not finish in time") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(raw: dict) -> list:
    return [rec for rec in raw["ops"] if rec[6] is not None]


def latencies(raw: dict) -> list[float]:
    """Each op's latency at reference speed, from the references timed
    just before and just after it."""
    ops = raw["ops"]
    speeds = [rec[7] for rec in ops] + [raw["final_speed_s"]]
    return [rec[5] * 2 * REFERENCE_S / (speeds[i] + speeds[i + 1]) for i, rec in enumerate(ops)]


def setup_s(sample: dict) -> float:
    return sample["setup_s"] * REFERENCE_S / sample["setup_speed_s"]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [setup_s(worker(base + ["--setup-only"], deadline)) for _ in range(SETUP_REPEATS)]
    raw = worker(base, deadline)
    setups.append(setup_s(raw))
    lat = latencies(raw)
    attempted = len(lat)
    failed = failures(raw)
    return {
        "raw": raw,
        "attempted": attempted,
        "failures": failed,
        "metrics": {
            "ops_per_s": attempted / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "failed_share": len(failed) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        },
        "setup_samples_s": setups,
    }


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / 2)]
    plain = worker(base, deadline)
    spans = HERE / "results" / f"spans-{workload}-seed{seed}.jsonl.gz"
    spans.parent.mkdir(exist_ok=True)
    raw = worker(base + ["--trace", "1", "--spans-out", str(spans)], deadline)
    metrics = dict(raw["layers"])
    metrics["trace.overhead_share"] = sum(latencies(raw)) / sum(latencies(plain)) - 1
    return {
        "raw": raw,
        "attempted": len(raw["ops"]) + len(plain["ops"]),
        "failures": failures(plain) + failures(raw),
        "metrics": metrics,
        "spans_file": str(spans.relative_to(ROOT)),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_average_at_start": os.getloadavg(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mtra benchmark: audit, truthfulness and cli workloads")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips mtra's assert-based soundness checks", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "mtra" / "__init__.py").is_file():
        print(f"no mtra sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = dict(machine(), seed=args.seed, seconds=args.seconds, trace=args.trace, workloads={})
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    fn = traced if args.trace else measure
    results = {}
    try:
        for workload in chosen:
            results[workload] = fn(workload, args.seed, args.seconds, time.monotonic() + DEADLINE_S)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out = {}
    for workload, res in results.items():
        raw = res.pop("raw")
        metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
        failed = res["failures"]
        out[workload] = {
            "correct": not failed,
            "attempted": res["attempted"],
            "failed": len(failed),
            "metrics": metrics,
        }
        count = res["attempted"]
        print(f"== {workload}: {count} ops in {raw['rounds']} rounds, {len(failed)} failed")
        shown = [(m["name"], m["unit"]) for m in wanted] + ([] if args.trace else [("failed_share", "ratio")])
        for name, unit in shown:
            note = f"  (of {count} samples)" if name == "op_p90_ms" else ""
            print(f"   {name:<50} {res['metrics'][name]:>14.6g} {unit}{note}")
        for op_id, _, kind, n, p, _, error, _ in failed[:20]:
            print(f"   FAILED {op_id} {kind} ({n},{p}): {error}", file=sys.stderr)
        record["workloads"][workload] = dict(
            res,
            rounds=raw["rounds"],
            op_count=len(raw["ops"]),
            ops=[rec[:6] + rec[7:] for rec in raw["ops"]],
        )
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {(results_dir / name).relative_to(ROOT)}")
    print(json.dumps(out[args.workload] if args.workload != "all" else out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
