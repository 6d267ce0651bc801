"""One benchmark worker: set up, warm up, run timed rounds, check outputs.

``run.py`` starts a fresh worker process for every measurement; run by
hand it looks like

    python3 perfbench/worker.py --root . --workload audit --seed 0 --seconds 30

and prints one JSON object.  Recording the default seed's digests after
an intended output change, for more rounds than a run does:

    python3 perfbench/worker.py --root . --workload audit --seed 0 --seconds 0 --rounds 8 \\
        --record-digests perfbench/digests/audit.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def reference() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop, about 5 ms on an
    idle core.  Timed next to every op, it tells how fast the machine runs
    at that moment: run.py divides each latency by it."""
    t = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t


def load_workloads(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mtra

    if Path(mtra.__file__).resolve().parent != src / "mtra":
        raise ImportError(f"mtra was imported from {mtra.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def run(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    rounds: int | None = None,
    trace: bool = False,
    setup_only: bool = False,
    t_start: float | None = None,
    spans_out: Path | None = None,
    record_digests: Path | None = None,
) -> dict:
    """Run the rounds ``seconds`` stands for (or exactly ``rounds``) of one
    workload in this process and return the raw record: set-up time,
    every op's latency and check result, peak RSS, digests and, when
    traced, the per-layer metrics."""
    t_start = time.monotonic() if t_start is None else t_start
    W = load_workloads(root)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    work = root / "perfbench" / "work" / f"{workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    expected = {}
    digest_file = HERE / "digests" / f"{workload}.json"
    if seed == W.DEFAULT_SEED and record_digests is None:
        expected = json.loads(digest_file.read_text(encoding="utf-8"))["digests"]
    execute, check = W.RUNNERS[workload]
    try:
        ops = W.make_round(workload, seed, 0, work)
        for op in W.warmup_ops(workload, seed, work):
            execute(op)
        setup_s = time.monotonic() - t_start
        setup_speed = reference()
        if setup_only:
            return {"setup_s": setup_s, "setup_speed_s": setup_speed}
        if rounds is None:
            rounds = W.rounds_for(workload, seconds, len(ops))
        records, digests = [], {}
        for r in range(rounds):
            if r:
                ops = W.make_round(workload, seed, r, work)
            for op in ops:
                if tracer:
                    tracer.op = op.op_id
                error = None
                speed = reference()
                t0 = time.perf_counter()
                try:
                    result = execute(op)
                except Exception as exc:  # an op that raises counts as failed
                    error = f"raised {type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                if tracer:
                    tracer.op = None
                if error is None:
                    try:
                        digests[op.op_id] = check(op, result)
                    except W.CheckFailed as exc:
                        error = f"check failed: {exc}"
                    except Exception as exc:  # a check that cannot run is a failure too
                        error = f"check raised {type(exc).__name__}: {exc}"
                    else:
                        want = expected.get(op.op_id)
                        if want is not None and want != digests[op.op_id]:
                            error = "output differs from the recorded digest"
                records.append([op.op_id, r, op.kind, op.n, op.p, latency, error, speed])
        final_speed = reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer:
            tracer.uninstall()
    out = {
        "setup_s": setup_s,
        "setup_speed_s": setup_speed,
        "final_speed_s": final_speed,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "digests": digests,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        if spans_out is not None:
            tracer.write_spans(spans_out)
    if record_digests is not None:
        record_digests.write_text(
            json.dumps({"workload": workload, "seed": seed, "digests": digests}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=None, help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t-start", type=float, default=None, help="time.monotonic() when the worker was started")
    parser.add_argument("--spans-out", type=Path, default=None)
    parser.add_argument("--record-digests", type=Path, default=None)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips mtra's assert-based soundness checks", file=sys.stderr)
        return 2
    out = run(
        args.root,
        args.workload,
        args.seed,
        args.seconds,
        rounds=args.rounds,
        trace=bool(args.trace),
        setup_only=args.setup_only,
        t_start=args.t_start,
        spans_out=args.spans_out,
        record_digests=args.record_digests,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
