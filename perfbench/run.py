"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload {train,select,batch,tier,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it works from the checkout root.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` with tracing off;
``--trace 1`` reports the per-layer rows from a traced run (plus the
tracing overhead against an untraced half); a traced ``select`` run
also runs the traced phases of ``batch`` and ``tier``.  The last stdout line is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the run's provenance, and a human-readable summary
goes to stderr.  A failed correctness check prints ``"correct": false``
and exits 1.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness

WORKLOADS = ("train", "select", "batch", "tier")
#: Workloads whose traced run also runs other workloads' traced phases,
#: each for an equal share of the seconds.  ``BENCHMARK.json`` gates on
#: ``train`` and ``select`` alone, whose runs are long enough to outlast
#: the speed swings of a shared machine; ``batch`` (streaming reader,
#: process pool, inference engine) and ``tier`` (front-end) keep their
#: per-layer rows by riding along with ``select``.  A row measured by
#: more than one of them keeps the first workload's value.
TRACED_WITH = {"select": ("batch", "tier")}


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import importlib

    module = importlib.import_module(f"workload_{name}")
    return module.run(seed, seconds, trace)


def result_metrics(
    spec: dict, outcome: harness.Outcome, trace: bool, correct: bool
) -> dict:
    """Exactly the metric set the spec names for this mode, with units.

    A run that already failed its checks may have stopped before
    measuring everything; what it missed reads 0.
    """
    measured = dict(outcome.metrics)
    if trace:
        for kind, count in outcome.failures.items():
            measured[f"requests.{kind}"] = count
        measured["error_rate"] = outcome.failed / max(outcome.attempted, 1)
        rows = spec["per_layer"]
    else:
        rows = spec["end_to_end"]
    out = {}
    for row in rows:
        name = row["name"]
        if name not in measured:
            if not trace and correct:
                raise RuntimeError(f"workload did not measure {name}")
            # A layer this workload never calls did zero work here.
            measured[name] = 0.0
        value = float(measured[name])
        if not trace and correct and not value > 0:
            raise RuntimeError(f"end-to-end metric {name} measured {value}")
        out[name] = {"value": value, "unit": row["unit"]}
    return out


def summary(result: dict, outcome: harness.Outcome) -> str:
    lines = [
        f"attempted {outcome.attempted}  ok {outcome.ok}  "
        f"failed {outcome.failed}  "
        f"error_rate {outcome.failed / max(outcome.attempted, 1):.6f}",
        "failures: " + json.dumps(outcome.failures, sort_keys=True),
    ]
    for problem in outcome.problems:
        lines.append(f"  problem: {problem}")
    for name, metric in result["metrics"].items():
        lines.append(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in its own process, one result line each."""
    worst = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        worst = max(worst, subprocess.run(cmd, cwd=harness.ROOT).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(harness.ROOT)
    harness.require_source()
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)

    started = time.perf_counter()
    companions = TRACED_WITH.get(args.workload, ()) if trace else ()
    share = seconds / (1 + len(companions))
    outcome = run_workload(args.workload, args.seed, share, trace)
    for name in companions:
        outcome.absorb(name, run_workload(name, args.seed, share, trace))
    correct = outcome.failed == 0 and not outcome.problems
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result_metrics(spec, outcome, trace, correct),
    }
    prov = harness.provenance(
        args.workload, args.seed,
        {**outcome.params, "seconds": seconds, "trace": trace},
    )
    prov["outcome"] = {
        "attempted": outcome.attempted, "ok": outcome.ok, **outcome.failures
    }
    prov["run_wall_s"] = round(time.perf_counter() - started, 3)
    print(summary(result, outcome), file=sys.stderr)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
