"""``batch``: the ``predict-batch`` path over a seeded directory of ``.mtx``.

Each pass streams every file through ``extract_features_streaming``
fanned out by ``parallel_map``, stacks the vectors, and answers them with
``BatchPredictor.predict_sharded``.  The timed passes run at ``jobs=1``;
one pass at ``jobs=2`` follows, and its labels must equal those at
``jobs=1``.  The traced run adds ``predict_sharded`` alone on stacked
batches of 256 and 4096 vectors at both job counts (the two sizes sit on
either side of the process-pool crossover), the bare pool spawn cost and
the ``jobs=2`` pipeline's rate.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import harness

#: Files in the directory, replayed in whole passes.  A chosen mix, not
#: measured traffic: the latency and rate figures reflect the medium
#: files, seven in eight, which take most of a pass.
MIX = {"tiny": 24, "medium": 168}
SETUP_REPEATS = 5
STACKED = (256, 4096)
REPEATS = 5


def _pass(predictor, paths, names, jobs, item_seconds=None):
    """One predict-batch pass; returns the report and the stacked vectors.

    With ``item_seconds`` at ``jobs=1``, each item's extraction wall
    plus its share of the ``predict_sharded`` wall is appended to it.
    """
    from repro.features import extract_features_streaming
    from repro.runtime.parallel import parallel_map

    walls: list[float] = []
    if jobs == 1 and item_seconds is not None:
        def extract(path):
            t0 = time.perf_counter()
            vec = extract_features_streaming(path)
            walls.append(time.perf_counter() - t0)
            return vec
    else:
        extract = extract_features_streaming
    vectors = parallel_map(extract, paths, jobs=jobs, label="inference.extract")
    t0 = time.perf_counter()
    report = predictor.predict_sharded(np.vstack(vectors), names=names, jobs=jobs)
    predict_wall = time.perf_counter() - t0
    if item_seconds is not None:
        share = predict_wall / len(paths)
        item_seconds.extend(w + share for w in walls)
    return report, np.vstack(vectors)


def _judge(out, report, expected, reference=None) -> list[str]:
    """Count every item against its reference (and the jobs=1 labels)."""
    labels = [item.label for item in report.items]
    for item, want in zip(report.items, expected):
        out.attempted += 1
        if item.source != "model":
            out.fail("fallback", f"{item.name}: {item.source}")
        elif item.label != want:
            out.fail("wrong_label", f"{item.name}: {item.label} != {want}")
        else:
            out.ok += 1
    if reference is not None and labels != reference:
        out.problems.append("jobs=2 labels differ from jobs=1 labels")
    return labels


def _passes(predictor, inputs, seconds, out, item_seconds=None, jobs=(1, 2)):
    paths, names, expected = inputs
    walls = {j: [] for j in jobs}
    started = time.perf_counter()
    reference = None
    while not walls[jobs[-1]] or time.perf_counter() - started < seconds:
        for j in jobs:
            t0 = time.perf_counter()
            report, _ = _pass(predictor, paths, names, j, item_seconds)
            walls[j].append(time.perf_counter() - t0)
            labels = _judge(out, report, expected, reference)
            reference = reference or labels
    return walls


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.core.deploy import FrozenSelector
    from repro.inference import BatchPredictor

    out = harness.Outcome()
    with harness.workdir("batch") as work:
        model = work / "model.npz"
        frozen = harness.frozen_selector_file(seed, model)
        requests, redrawn = harness.make_requests(frozen, seed, MIX)
        coll = work / "coll"
        coll.mkdir()
        for req in requests:
            (coll / f"{req.rid}.mtx").write_text(req.text)
        ordered = sorted(requests, key=lambda r: r.rid)  # directory order
        inputs = (
            [str(coll / f"{r.rid}.mtx") for r in ordered],
            [r.rid for r in ordered],
            [r.expected for r in ordered],
        )
        out.params = {
            "mix": MIX,
            "model_collection_size": harness.MODEL_SIZE,
            "model_clusters": harness.MODEL_CLUSTERS,
            "redrawn_inputs": redrawn,
            "jobs": [1, 2],
            "stacked_batches": list(STACKED),
        }
        predictor = BatchPredictor(FrozenSelector.load(model))
        _pass(predictor, inputs[0], inputs[1], 1)  # warm-up, not counted

        if not trace:
            # Set-up probes are spread over the run, one before each
            # slice of the passes, so one slow spell of a shared machine
            # cannot cover them all.
            probe = harness.probe_argv("batch", str(model), inputs[0][0])
            setup: list[float] = []
            item_seconds: list[float] = []
            walls: list[float] = []
            for _ in range(SETUP_REPEATS):
                # Each slice's probe counts toward the slice's seconds.
                t0 = time.perf_counter()
                setup.append(harness.launch_to_ready(probe))
                left = seconds / SETUP_REPEATS - (time.perf_counter() - t0)
                walls += _passes(
                    predictor, inputs, left, out, item_seconds, jobs=(1,)
                )[1]
            # One pass at each job count, checked against each other; the
            # timed passes above stay at jobs=1, so no pool's processes
            # compete with them for the machine's few cores.
            _passes(predictor, inputs, 0.0, out, jobs=(1, 2))
            # Each file's fastest jobs=1 time over the run's passes: a
            # pass repeats identical work, and interference from other
            # tenants of a shared machine only ever adds time.
            n = len(inputs[0])
            fastest = [min(item_seconds[i::n]) for i in range(n)]
            out.metrics = {
                "setup_s": harness.median(setup),
                "peak_rss_mb": harness.peak_rss_mb(),
                "p50_ms": harness.median(fastest) * 1e3,
                "p90_ms": harness.quantile(fastest, 0.9) * 1e3,
                "throughput_per_s": n / min(walls),
            }
            return out

        plain = _passes(predictor, inputs, seconds / 2, out, jobs=(1,))[1]
        with harness.telemetry_on() as tel:
            traced = _passes(predictor, inputs, seconds / 2, out, jobs=(1,))[1]
            rows, roots = harness.layer_rows(tel)
        print(harness.format_layer_table(rows), file=sys.stderr)
        m = out.metrics
        for key, span in (
            ("features.extract.streaming", "features.extract_streaming"),
            ("features.stats.compute", "features.stats"),
            ("features.extract.derive", "features.derive"),
        ):
            row = rows[span]
            m[f"{key}_ms"] = row.busy_s / row.calls * 1e3
            m[f"{key}_calls"] = row.calls
        m["trace_overhead"] = min(traced) / min(plain)
        m["unattributed_s"] = max(sum(traced) - roots, 0.0)
        _pool_rows(predictor, inputs, out)
    return out


def _pool_rows(predictor, inputs, out) -> None:
    """Pool spawn, stacked-batch inference and jobs=2 pipeline rows."""
    from repro.runtime.parallel import parallel_map

    m = out.metrics
    spawn = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        parallel_map(abs, list(range(4)), jobs=2)
        spawn.append(time.perf_counter() - t0)
    m["runtime.parallel.spawn_s"] = harness.median(spawn)
    m["runtime.parallel.spawn_calls"] = len(spawn)

    _, X = _pass(predictor, inputs[0], inputs[1], 1)
    reference = list(predictor.predict(X))
    for n in STACKED:
        stacked = np.tile(X, (n // X.shape[0] + 1, 1))[:n]
        want = (reference * (n // len(reference) + 1))[:n]
        for jobs in (1, 2):
            walls = []
            with harness.telemetry_on() as tel:
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    report = predictor.predict_sharded(stacked, jobs=jobs)
                    walls.append(time.perf_counter() - t0)
                    if list(report.labels) != want:
                        out.problems.append(f"stacked n={n} jobs={jobs} labels differ")
                util = tel.registry.snapshot().get("inference.shard_utilization")
            m[f"inference.engine.n{n}_j{jobs}_ms"] = harness.median(walls) * 1e3
            if n == STACKED[-1] and jobs == 2 and util:
                m["inference.engine.shard_utilization"] = util["value"]
    walls = _passes(predictor, inputs, 1.0, out, jobs=(2,))[2]
    m["batch.items_per_s_j2"] = len(inputs[0]) / harness.median(walls)
