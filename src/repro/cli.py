"""Command-line interface.

Subcommands:

- ``features <file.mtx>`` — print the 21 Table-1 features of a matrix.
- ``benchmark <file.mtx> --arch volta`` — simulated per-format SpMV times.
- ``train --size 200 --arch volta --out selector.npz`` — build a synthetic
  collection, benchmark it, train a K-Means-VOTE selector, freeze it.
- ``predict <file.mtx> --model selector.npz`` — format recommendation
  (degrades to a CSR fallback when the model is unusable; exit codes:
  0 = recommendation printed, 1 = model problem under ``--strict``,
  2 = unusable input matrix).
- ``predict-batch <dir|manifest> --model selector.npz`` — batched
  recommendations for a whole collection (a directory of ``.mtx`` files,
  or a manifest listing one path per line), one JSON object per matrix
  on stdout.  Runs the sharded batch-inference engine
  (``repro.inference``): answers are bit-identical to per-matrix
  ``predict``, for every ``--jobs``/``--shard-size`` combination;
  unreadable matrices are quarantined and answered with the fallback
  format instead of failing the run.
- ``serve --model selector.npz [--socket PATH]`` — long-running resilient
  selector service (JSONL over stdin/stdout, or a Unix socket): hardened
  ingestion, bounded-queue admission control with load shedding, a
  circuit breaker around inference, an out-of-distribution guard, and
  hot model reload with shadow validation.  ``$REPRO_FAULTS`` injects
  deterministic inference faults, same as for campaigns.
- ``tables [--small] [--only table3 ...]`` — regenerate the paper tables.
- ``chaos [--fail 0.2 ...]`` — run a fault-injected campaign and report
  what the resilience layer absorbed (``--verify`` cross-checks that the
  survivors match a fault-free run byte for byte).  With
  ``--target serve`` the same name-keyed fault stream is aimed at the
  serving stack instead: a deterministic drill of malformed/oversized
  payloads, queue-overflowing bursts, injected inference faults, and a
  corrupt-then-good mid-run model swap.
- ``stats <trace.jsonl>`` — hot-path report from a ``--profile`` trace.
- ``cache info|clear`` — inspect or purge the campaign artifact cache.

Every subcommand accepts ``--profile [PATH]``: telemetry is switched on
for the run, and on exit the span tree plus a metrics snapshot is printed
to stderr (and the Chrome-trace JSONL written to PATH when given).

The campaign subcommands (``train``, ``tables``) accept ``--jobs N``
(process-pool fan-out; results are bit-identical for any N) and
``--cache-dir PATH`` (persist campaign artifacts so warm runs skip the
campaign; also settable via ``$REPRO_CACHE_DIR``), plus the resilience
knobs ``--retries`` / ``--task-timeout`` / ``--checkpoint-every`` /
``--resume``.  The ``$REPRO_FAULTS`` environment variable injects
deterministic faults into any campaign (see ``repro.runtime.faults``);
an injected mid-campaign abort exits with code 3, leaving checkpoints
behind for ``--resume``.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from repro._version import __version__
from repro.core.deploy import FallbackSelector, freeze
from repro.core.semisupervised import ClusterFormatSelector
from repro.features import FEATURE_NAMES, extract_features
from repro.formats import read_matrix_market
from repro.gpu import ARCHITECTURES, GPUSimulator
from repro.runtime.faults import CampaignAbort


def _cmd_features(args: argparse.Namespace) -> int:
    matrix = read_matrix_market(args.matrix)
    vec = extract_features(matrix)
    width = max(len(n) for n in FEATURE_NAMES)
    for name, value in zip(FEATURE_NAMES, vec):
        print(f"{name:<{width}}  {value:.6g}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    matrix = read_matrix_market(args.matrix)
    arch = ARCHITECTURES[args.arch]
    sim = GPUSimulator(arch, trials=args.trials, seed=args.seed)
    result = sim.benchmark(str(args.matrix), matrix, getattr(args, "op", "spmv"))
    print(f"simulated {arch.model} ({arch.microarchitecture}), "
          f"{args.trials} trials, op {result.op}")
    for fmt in ("coo", "csr", "ell", "hyb"):
        if fmt in result.times:
            t = result.times[fmt]
            marker = "  <- best" if fmt == result.best_format else ""
            print(f"  {fmt}: {t * 1e6:10.3f} us{marker}")
        else:
            print(f"  {fmt}: excluded ({result.excluded[fmt]})")
    if result.runnable:
        print(f"speedup of best over CSR: "
              f"{result.times['csr'] / result.times[result.best_format]:.2f}x")
    return 0


def _retry_policy_from(args: argparse.Namespace):
    """A RetryPolicy when any resilience flag was given, else ``None``."""
    from repro.runtime import RetryPolicy

    overrides = {}
    if getattr(args, "retries", None) is not None:
        overrides["max_attempts"] = args.retries
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    return RetryPolicy(**overrides) if overrides else None


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.data import build_experiment_data

    arch = ARCHITECTURES[args.arch]
    print(f"building {args.size}-matrix collection (seed {args.seed}) ...")
    print(f"benchmarking on simulated {arch.model} ...")
    # Route through the shared campaign builder: --jobs fans the work out
    # and --cache-dir makes repeat invocations skip the campaign.
    config = ExperimentConfig(
        collection_size=args.size,
        augment_copies=0,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        retry=_retry_policy_from(args),
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    data = build_experiment_data(config)
    if data.degradation is not None:
        print(data.degradation.to_text())
    dataset = data.datasets[args.arch]
    print(f"training K-Means-{args.labeler.upper()} "
          f"(NC={args.clusters}) on {len(dataset)} matrices ...")
    selector = ClusterFormatSelector(
        "kmeans", args.labeler, args.clusters, seed=args.seed
    )
    selector.fit(dataset.X, dataset.labels)
    frozen = freeze(selector)
    frozen.save(args.out)
    train_acc = float(np.mean(frozen.predict(dataset.X) == dataset.labels))
    print(f"saved {frozen.n_centroids} labeled centroids to {args.out} "
          f"(training accuracy {train_acc:.3f})")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.features import extract_features_streaming
    from repro.formats import ReadPolicy

    op = getattr(args, "op", "spmv")
    if op != "spmv":
        return _predict_for_op(args, op)
    if args.model is None:
        print("repro predict: --model is required for --op spmv",
              file=sys.stderr)
        return 2
    selector = FallbackSelector.load(
        args.model, fallback_format=args.fallback_format
    )
    if selector.degraded:
        print(f"repro predict: model unusable ({selector.error}); "
              f"degrading to {selector.fallback_format}", file=sys.stderr)
    policy = ReadPolicy(
        max_dim=args.max_dim if args.max_dim > 0 else None,
        max_nnz=args.max_nnz if args.max_nnz > 0 else None,
    )
    # An unreadable matrix is unrecoverable — there is nothing to
    # recommend a format *for* — so it exits 2, fallback or not.  The
    # streaming reader enforces the declared-size caps at the size line,
    # so a forged giant header is rejected before any entry is read.
    try:
        vec = extract_features_streaming(args.matrix, policy)[None, :]
    except Exception as exc:
        print(f"repro predict: unusable input matrix {args.matrix!r}: "
              f"{exc}", file=sys.stderr)
        return 2
    label = selector.predict_one(vec)
    if selector.error is not None:
        if args.strict:
            print("repro predict: refusing degraded recommendation "
                  "(--strict)", file=sys.stderr)
            return 1
        print(f"recommended format: {label} (degraded fallback)")
        return 0
    cluster = int(selector.selector.assign(vec)[0])
    print(f"recommended format: {label} (centroid #{cluster} of "
          f"{selector.selector.n_centroids})")
    return 0


def _predict_for_op(args: argparse.Namespace, op: str) -> int:
    """``repro predict --op spmm[:k]|spgemm``: analytical recommendation.

    The frozen selectors are trained on the SpMV campaign, so non-SpMV
    ops go straight to the per-format kernel cost model at the requested
    architecture.  Exit codes mirror the model path: 0 on a
    recommendation, 1 when no format is feasible, 2 on unusable input.
    """
    from repro.features.stats import compute_stats
    from repro.formats import ReadPolicy
    from repro.formats.io import read_matrix_market
    from repro.gpu.kernels import (
        NoFeasibleFormatError,
        best_format,
        parse_op,
        predict_times,
    )

    try:
        spec = parse_op(op)
    except ValueError as exc:
        print(f"repro predict: {exc}", file=sys.stderr)
        return 2
    policy = ReadPolicy(
        max_dim=args.max_dim if args.max_dim > 0 else None,
        max_nnz=args.max_nnz if args.max_nnz > 0 else None,
    )
    try:
        matrix = read_matrix_market(args.matrix, policy)
    except Exception as exc:
        print(f"repro predict: unusable input matrix {args.matrix!r}: "
              f"{exc}", file=sys.stderr)
        return 2
    times = predict_times(compute_stats(matrix), ARCHITECTURES[args.arch], spec)
    try:
        fmt = best_format(times)
    except NoFeasibleFormatError as exc:
        print(f"repro predict: {exc}", file=sys.stderr)
        return 1
    print(f"recommended format: {fmt} for {spec.canonical} on {args.arch} "
          f"(analytical kernel model)")
    return 0


def _extract_task(path: str) -> tuple[np.ndarray | None, str | None]:
    """Pool-side feature extraction guard: (vector, None) or (None, why).

    Module-level so ``parallel_map`` can pickle it; never raises, so one
    unreadable matrix cannot take down a collection run.
    """
    from repro.features import extract_features_streaming

    try:
        return extract_features_streaming(path), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _resolve_batch_inputs(source: str) -> list[tuple[str, str]] | None:
    """(name, path) pairs from a directory, one ``.mtx``, or a manifest."""
    from pathlib import Path

    root = Path(source)
    if root.is_dir():
        return [(p.stem, str(p)) for p in sorted(root.glob("*.mtx"))]
    if not root.is_file():
        return None
    if root.suffix == ".mtx":
        return [(root.stem, str(root))]
    entries: list[tuple[str, str]] = []
    for line in root.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        path = Path(line)
        if not path.is_absolute():
            path = root.parent / path
        entries.append((path.stem, str(path)))
    return entries


def _cmd_predict_many(args: argparse.Namespace) -> int:
    import json

    from repro.inference import BatchPredictor
    from repro.runtime.parallel import parallel_map
    from repro.runtime.resilience import TaskFailure

    entries = _resolve_batch_inputs(args.collection)
    if entries is None:
        print(f"repro predict-batch: no such directory or manifest: "
              f"{args.collection!r}", file=sys.stderr)
        return 2
    if not entries:
        print(f"repro predict-batch: no matrices found in "
              f"{args.collection!r}", file=sys.stderr)
        return 2
    selector = FallbackSelector.load(
        args.model, fallback_format=args.fallback_format
    )
    if selector.degraded:
        print(f"repro predict-batch: model unusable ({selector.error}); "
              f"degrading to {selector.fallback_format}", file=sys.stderr)
        if args.strict:
            return 1
    names = [name for name, _ in entries]
    extracted = parallel_map(
        _extract_task,
        [path for _, path in entries],
        jobs=args.jobs,
        label="inference.extract",
    )
    good = [i for i, (vec, err) in enumerate(extracted) if err is None]
    X = (
        np.vstack([extracted[i][0] for i in good])
        if good
        else np.empty((0, len(FEATURE_NAMES)))
    )
    predictor = BatchPredictor(selector)
    report = predictor.predict_sharded(
        X,
        names=[names[i] for i in good],
        jobs=args.jobs,
        shard_size=args.shard_size,
    )
    records: list[dict | None] = [None] * len(entries)
    for item, i in zip(report.items, good):
        records[i] = item.to_json()
    for i, (_, err) in enumerate(extracted):
        if err is None:
            continue
        report.quarantine.add(
            names[i],
            stage="extract",
            failure=TaskFailure(
                key=names[i], kind="error", attempts=1, message=err
            ),
        )
        records[i] = {
            "name": names[i],
            "format": selector.fallback_format,
            "source": "fallback",
            "error": err,
        }
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for record in records:
            print(json.dumps(record), file=out)
    finally:
        if args.out:
            out.close()
    n_fallback = sum(1 for r in records if r["source"] == "fallback")
    print(
        f"predict-batch: {len(entries)} matrices, "
        f"{len(entries) - n_fallback} model answers, "
        f"{n_fallback} fallbacks "
        f"({report.plan.n_shards} shard(s), jobs={report.plan.jobs})",
        file=sys.stderr,
    )
    if report.quarantine:
        print(report.quarantine.report(), file=sys.stderr)
    if args.strict and n_fallback:
        return 1
    return 0


def _serving_config(args: argparse.Namespace, model_path: str):
    from repro.serving import GatewayLimits, ServingConfig

    return ServingConfig(
        model_path=model_path,
        fallback_format=args.fallback_format,
        max_request_bytes=args.max_request_bytes,
        limits=GatewayLimits(
            max_matrix_bytes=args.max_matrix_bytes,
            max_dim=args.max_dim,
            max_nnz=args.max_nnz,
        ),
        queue_size=args.queue_size,
        deadline_seconds=args.deadline if args.deadline > 0 else None,
        breaker_failures=args.breaker_failures,
        breaker_reset_seconds=args.breaker_reset,
        breaker_probes=args.breaker_probes,
        ood_factor=args.ood_factor,
        hot_reload=not args.no_reload,
        max_batch=args.max_batch,
    )


def _worker_serve_flags(args: argparse.Namespace) -> list[str]:
    """Serving knobs forwarded verbatim to each tier worker process.

    ``--no-reload`` is deliberately *not* forwarded: a worker's reload
    watch is one ``stat`` of the store's CURRENT pointer, and the
    front-end gates whether new versions are ever published at all.
    """
    return [
        "--fallback-format", args.fallback_format,
        "--queue-size", str(args.queue_size),
        "--deadline", str(args.deadline),
        "--max-request-bytes", str(args.max_request_bytes),
        "--max-matrix-bytes", str(args.max_matrix_bytes),
        "--max-dim", str(args.max_dim),
        "--max-nnz", str(args.max_nnz),
        "--breaker-failures", str(args.breaker_failures),
        "--breaker-reset", str(args.breaker_reset),
        "--breaker-probes", str(args.breaker_probes),
        "--ood-factor", str(args.ood_factor),
        "--max-batch", str(args.max_batch),
    ]


def _tier_config(
    args: argparse.Namespace,
    model_path: str,
    run_dir: str,
    worker_env: dict | None = None,
):
    from repro.serving import TierConfig

    return TierConfig(
        model_path=model_path,
        run_dir=run_dir,
        workers=args.workers,
        worker_args=tuple(_worker_serve_flags(args)),
        fallback_format=args.fallback_format,
        max_request_bytes=args.max_request_bytes,
        hot_reload=not args.no_reload,
        request_timeout_seconds=getattr(args, "request_timeout", 60.0),
        hedge_ms=getattr(args, "hedge_ms", None),
        hedge_budget=getattr(args, "hedge_budget", 0.05),
        drain_timeout_seconds=getattr(args, "drain_timeout", 10.0),
        store_keep=getattr(args, "store_keep", 2),
        worker_env=worker_env or {},
    )


def _cmd_serve_tier(args: argparse.Namespace) -> int:
    """``repro serve --workers N`` (N >= 2): the horizontally scaled tier."""
    import asyncio
    import tempfile

    from repro.obs import TELEMETRY
    from repro.obs.events import EventLog
    from repro.serving import ServingTier

    own_telemetry = not TELEMETRY.enabled
    if own_telemetry:
        TELEMETRY.reset()
        TELEMETRY.enable()
    scratch = None
    run_dir = args.run_dir
    if run_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-serve-tier-")
        run_dir = scratch.name
    access_log = None
    if args.access_log:
        access_log = EventLog(
            args.access_log,
            max_bytes=args.access_log_max_bytes,
            backups=args.access_log_backups,
        )
    try:
        tier = ServingTier(
            _tier_config(args, args.model, run_dir), access_log=access_log
        )
        if tier.host.degraded:
            print(
                f"repro serve: tier starting degraded "
                f"({tier.host.active.error}); workers fall back to "
                f"{args.fallback_format} until a valid model appears at "
                f"{args.model}",
                file=sys.stderr,
            )
        if args.socket:
            print(
                f"repro serve: tier front-end on unix socket "
                f"{args.socket} ({tier.config.workers} workers)",
                file=sys.stderr,
            )
            return asyncio.run(tier.run_socket(args.socket))
        return asyncio.run(tier.run_stdio())
    finally:
        if scratch is not None:
            scratch.cleanup()
        if own_telemetry:
            TELEMETRY.disable()
            TELEMETRY.reset()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import TELEMETRY
    from repro.obs.events import EventLog
    from repro.runtime.faults import injector_for, spec_from_env
    from repro.serving import SelectorServer

    if args.worker_store is None and args.workers > 1:
        return _cmd_serve_tier(args)

    access_log = None
    if args.access_log:
        access_log = EventLog(
            args.access_log,
            max_bytes=args.access_log_max_bytes,
            backups=args.access_log_backups,
        )
    # The `metrics` op serves from the live global registry, so serving
    # turns telemetry on for its lifetime — unless --profile (or a
    # caller) already did, in which case that owner keeps control.
    own_telemetry = not TELEMETRY.enabled
    if own_telemetry:
        TELEMETRY.reset()
        TELEMETRY.enable()
    try:
        host = None
        if args.worker_store is not None:
            # Tier worker: attach read-only to the shared mmap store
            # instead of loading (and re-validating) the .npz — the
            # front-end shadow-validated this version once for everyone.
            from repro.serving import ModelHost, ModelStore, StoreLoader

            host = ModelHost(StoreLoader(ModelStore(args.worker_store)))
            print(
                f"repro serve: worker {args.worker_id or '?'} attached to "
                f"model store {args.worker_store}",
                file=sys.stderr,
            )
        server = SelectorServer(
            _serving_config(args, args.model),
            fault_injector=injector_for(spec_from_env()),
            access_log=access_log,
            host=host,
        )
        if server.host.degraded:
            print(
                f"repro serve: starting degraded "
                f"({server.host.active.error}); "
                f"answers fall back to {args.fallback_format} until a valid "
                f"model appears at {args.model}",
                file=sys.stderr,
            )
        if args.socket:
            print(
                f"repro serve: listening on unix socket {args.socket}",
                file=sys.stderr,
            )
            return server.serve_socket(args.socket)
        # Decoded as serve_socket and the tier front-end decode: a
        # non-UTF-8 byte becomes U+FFFD and its line is answered like any
        # other, instead of ending the process.
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(encoding="utf-8", errors="replace")
        return server.serve_stream(sys.stdin, sys.stdout)
    finally:
        if access_log is not None:
            access_log.close()
        if own_telemetry:
            TELEMETRY.disable()
            TELEMETRY.reset()


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    from repro.obs import TELEMETRY
    from repro.runtime import FaultSpec

    spec = FaultSpec(
        failure_rate=args.fail,
        latency_rate=args.latency,
        latency_seconds=args.delay,
        corruption_rate=args.corrupt,
        poison_fraction=args.poison,
        seed=args.fault_seed,
    )
    # The drill exports its serving counters (--metrics-out feeds
    # `repro obs report`), so it needs the registry live even without
    # --profile; respect an already-enabled owner as `serve` does.
    own_telemetry = not TELEMETRY.enabled
    if own_telemetry:
        TELEMETRY.reset()
        TELEMETRY.enable()
    try:
        if args.workers > 1:
            return _run_chaos_tier_drill(args, spec)
        return _run_chaos_serve_drill(args, spec)
    finally:
        if own_telemetry:
            TELEMETRY.disable()
            TELEMETRY.reset()


def _run_chaos_tier_drill(args: argparse.Namespace, spec) -> int:
    """Chaos drill against the multi-worker tier (real subprocesses).

    Same request mix and same per-line contract as the in-process drill,
    plus the tier-only hazards: ``--kill-worker`` SIGKILLs one worker
    mid-burst, after which the drill asserts the respawn happened, the
    worker rejoined the ring, no connection hung, and the front-end's
    routed-request counters reconcile exactly
    (``routed == completed + worker_lost``).
    """
    import asyncio
    import json
    import os
    import tempfile

    from repro.serving import ServingTier
    from repro.serving.drill import (
        audit_tier_conservation,
        audit_tier_responses,
        build_request_lines,
        run_tier_drain_drill,
        synthetic_frozen_selector,
        tier_expectations,
    )
    from repro.serving.frontend import drive_tier

    with tempfile.TemporaryDirectory(prefix="repro-tier-chaos-") as tmp:
        model_path = os.path.join(tmp, "selector.npz")
        synthetic_frozen_selector(seed=args.seed).save(model_path)
        extra_env = {}
        if spec.active:
            # Workers inherit the same deterministic fault stream the
            # in-process drill injects directly.
            extra_env["REPRO_FAULTS"] = (
                f"fail={args.fail},latency={args.latency},"
                f"delay={args.delay},corrupt={args.corrupt},"
                f"poison={args.poison},seed={args.fault_seed}"
            )
        worker_env = {}
        if args.slow_worker:
            # Exactly one worker answers slowly (50 ms on half its
            # requests); the rest of the fleet is healthy, so hedged
            # dispatch — not respawn — is what rescues its tail.  A
            # fixed hedge delay keeps the drill deterministic (the
            # rolling p95 would need warm-up traffic first).
            worker_env["w0"] = {
                "REPRO_FAULTS": (
                    f"latency=0.5,delay=0.05,seed={args.fault_seed}"
                )
            }
            if args.hedge_ms is None:
                args.hedge_ms = 15.0
        tier = ServingTier(
            _tier_config(
                args,
                model_path,
                os.path.join(tmp, "tier"),
                worker_env=worker_env,
            ),
            extra_env=extra_env,
        )
        lines, expectations = build_request_lines(
            args.requests, seed=args.seed, oversize_bytes=args.max_matrix_bytes
        )
        expectations = tier_expectations(expectations)

        events: list[str] = []
        killed: list[str] = []
        actions: dict[int, object] = {}
        if args.swap:
            # The writes call check_reload() synchronously (the tier
            # object lives in this process), so quarantine/publish are
            # deterministic, not racing the watch loop.
            def _write_corrupt() -> None:
                with open(model_path, "wb") as fh:
                    fh.write(b"\x00garbage, not an npz\x00" * 64)
                events.append(f"corrupt candidate: {tier.check_reload()}")

            def _write_good() -> None:
                synthetic_frozen_selector(
                    seed=args.seed + 1, n_centroids=8
                ).save(model_path)
                events.append(f"retrained candidate: {tier.check_reload()}")

            actions[max(1, len(lines) // 3)] = _write_corrupt
            actions[max(2, (2 * len(lines)) // 3)] = _write_good
        if args.kill_worker:
            def _kill() -> None:
                name = tier.kill_worker()
                if name:
                    killed.append(name)
                events.append(f"killed worker {name} mid-burst")

            actions[max(1, len(lines) // 2)] = _kill

        front = os.path.join(tmp, "front.sock")

        async def _run():
            server_task = asyncio.ensure_future(tier.run_socket(front))
            for _ in range(1200):
                if os.path.exists(front):
                    break
                if server_task.done():
                    server_task.result()
                await asyncio.sleep(0.05)
            pairs = await asyncio.wait_for(
                drive_tier(
                    front, lines, connections=args.burst, actions=actions
                ),
                timeout=300.0,
            )
            rejoined = not killed
            if killed:
                for _ in range(400):
                    if killed[0] in tier.workers:
                        rejoined = True
                        break
                    await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_unix_connection(front)
            writer.write(b'{"id":"__m","op":"metrics"}\n')
            await writer.drain()
            metrics = json.loads(await reader.readline())
            writer.close()
            # Graceful-drain audit doubles as the tier's shutdown: the
            # shutdown op inside the drill is what stops the server.
            drain_report = await run_tier_drain_drill(front, seed=args.seed)
            await asyncio.wait_for(server_task, timeout=60.0)
            return pairs, metrics, rejoined, drain_report

        pairs, metrics, rejoined, drain_report = asyncio.run(_run())
        report = audit_tier_responses(
            pairs, expectations, n_requests=len(lines)
        )
        report.swap_events = events
        # The tier-wide p99 of serving.latency_seconds, merged over workers.
        report.p99_latency_ms = metrics.get("quantiles_ms", {}).get("p99")
        print(
            f"serve chaos (tier): {args.requests} requests over "
            f"{args.burst} connections, {args.workers} workers, "
            f"kill={'on' if args.kill_worker else 'off'}, "
            f"swap={'on' if args.swap else 'off'}, fail={args.fail} "
            f"corrupt={args.corrupt}"
        )
        print(report.to_text())
        print(
            f"tier counters: routed={tier.n_routed} "
            f"completed={tier.n_completed} worker_lost={tier.n_worker_lost} "
            f"respawned={tier.n_respawned} rebalanced={tier.n_rebalanced} "
            f"hedges={tier.n_hedges} hedge_wins={tier.n_hedge_wins} "
            f"primary_wins={tier.n_primary_wins} "
            f"deadline_exceeded={tier.n_deadline_exceeded} "
            f"drain_rejected={tier.n_draining_rejected} "
            f"invalid={tier.n_invalid}"
        )
        rc = 0 if report.ok else 1
        for violation in audit_tier_conservation(tier, lines):
            print(f"repro chaos: {violation}", file=sys.stderr)
            rc = 1
        if drain_report.violations:
            for violation in drain_report.violations:
                print(f"repro chaos: drain: {violation}", file=sys.stderr)
            rc = 1
        else:
            print(
                f"drain audit: {drain_report.n_responses} responses, "
                f"zero silently-dropped requests"
            )
        if args.slow_worker and tier.n_hedges < 1:
            print(
                "repro chaos: slow worker never triggered a hedged "
                "dispatch",
                file=sys.stderr,
            )
            rc = 1
        if args.kill_worker:
            if tier.n_respawned < 1:
                print(
                    "repro chaos: killed worker was never respawned",
                    file=sys.stderr,
                )
                rc = 1
            if not rejoined:
                print(
                    f"repro chaos: killed worker "
                    f"{killed[0] if killed else '?'} did not rejoin the "
                    f"ring",
                    file=sys.stderr,
                )
                rc = 1
        if args.swap:
            if tier.host.n_quarantined < 1:
                print(
                    "repro chaos: corrupt candidate was not quarantined",
                    file=sys.stderr,
                )
                rc = 1
            if tier.host.n_reloads < 1:
                print(
                    "repro chaos: retrained candidate was not swapped in",
                    file=sys.stderr,
                )
                rc = 1
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(
                    metrics.get("metrics", {}), fh, indent=2, sort_keys=True
                )
                fh.write("\n")
            print(f"serve chaos: tier metrics snapshot -> {args.metrics_out}")
        return rc


def _run_chaos_serve_drill(args: argparse.Namespace, spec) -> int:
    import io
    import json
    import os
    import tempfile
    import time as time_mod

    from repro.core.deploy import FallbackSelector
    from repro.features import extract_features
    from repro.formats import read_matrix_market
    from repro.runtime.faults import FaultInjector
    from repro.serving import SelectorServer
    from repro.serving.drill import (
        _random_matrix_text,
        build_request_lines,
        run_serve_drill,
        synthetic_frozen_selector,
    )

    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") as tmp:
        model_path = os.path.join(tmp, "selector.npz")
        synthetic_frozen_selector(seed=args.seed).save(model_path)
        server = SelectorServer(
            _serving_config(args, model_path),
            fault_injector=FaultInjector(spec) if spec.active else None,
        )
        lines, expectations = build_request_lines(
            args.requests, seed=args.seed, oversize_bytes=args.max_matrix_bytes
        )
        n_bursts = max(1, -(-len(lines) // args.burst))
        actions = {}
        if args.swap:
            def _write_corrupt() -> str:
                with open(model_path, "wb") as fh:
                    fh.write(b"\x00garbage, not an npz\x00" * 64)
                return "corrupt candidate written"

            def _write_good() -> str:
                synthetic_frozen_selector(
                    seed=args.seed + 1, n_centroids=8
                ).save(model_path)
                return "retrained candidate written"

            actions[max(1, n_bursts // 3)] = _write_corrupt
            actions[max(2, (2 * n_bursts) // 3)] = _write_good
        print(
            f"serve chaos: {args.requests} requests in bursts of "
            f"{args.burst} (queue {args.queue_size}), fail={args.fail} "
            f"corrupt={args.corrupt}, swap={'on' if args.swap else 'off'}"
        )
        report = run_serve_drill(
            server, lines, expectations, burst=args.burst, actions=actions
        )
        print(report.to_text())
        rc = 0
        if not report.ok:
            rc = 1
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(
                    server.metrics_snapshot(), fh, indent=2, sort_keys=True
                )
                fh.write("\n")
            print(f"serve chaos: metrics snapshot -> {args.metrics_out}")
        if args.swap:
            if server.host.n_quarantined < 1:
                print(
                    "repro chaos: corrupt candidate was not quarantined",
                    file=sys.stderr,
                )
                rc = 1
            if server.host.n_reloads < 1:
                print(
                    "repro chaos: retrained candidate was not swapped in",
                    file=sys.stderr,
                )
                rc = 1
        if args.require_breaker and server.breaker.n_opens == 0:
            print(
                "repro chaos: expected the circuit breaker to open; "
                "raise --fail or --requests",
                file=sys.stderr,
            )
            rc = 1
        if args.verify:
            # Recovery: disarm injection, let the breaker's half-open
            # probes close it, then demand byte-identical parity with a
            # fresh single-shot FallbackSelector on the same model file.
            server.fault_injector = None
            time_mod.sleep(args.breaker_reset + 0.05)
            text = _random_matrix_text(0, args.seed)
            line = json.dumps({"id": "parity", "op": "predict", "mtx": text})
            for _ in range(args.breaker_probes + 1):
                served = server.handle_line(line)
            fresh = FallbackSelector.load(model_path)
            vec = extract_features(read_matrix_market(io.StringIO(text)))[None, :]
            expected = fresh.predict_one(vec)
            if served.get("status") != "ok" or served.get("format") != expected:
                print(
                    f"repro chaos: PARITY MISMATCH: served {served} vs "
                    f"single-shot {expected!r}",
                    file=sys.stderr,
                )
                rc = 1
            else:
                print(
                    f"verify: post-recovery answer {expected!r} identical "
                    f"to a fresh single-shot predict"
                )
        return rc


def _survivor_mismatches(clean, chaotic) -> list[str]:
    """Where a degraded campaign's survivors differ from a clean run."""
    clean_rows = {
        name: clean.features.values[i]
        for i, name in enumerate(clean.features.names)
    }
    mismatches = []
    for i, name in enumerate(chaotic.features.names):
        if not np.array_equal(chaotic.features.values[i], clean_rows[name]):
            mismatches.append(f"features differ for {name}")
    for arch, results in chaotic.results.items():
        clean_by_name = dict(zip(clean.features.names, clean.results[arch]))
        for name, result in zip(chaotic.features.names, results):
            reference = clean_by_name[name]
            if (result.times != reference.times
                    or result.best_format != reference.best_format):
                mismatches.append(f"benchmark differs for {arch}:{name}")
    return mismatches


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.target == "serve":
        return _cmd_chaos_serve(args)
    import dataclasses

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.data import build_experiment_data
    from repro.runtime import FaultSpec, RetryPolicy

    spec = FaultSpec(
        failure_rate=args.fail,
        latency_rate=args.latency,
        latency_seconds=args.delay,
        corruption_rate=args.corrupt,
        poison_fraction=args.poison,
        seed=args.fault_seed,
    )
    # Zero backoff: chaos runs exercise the retry *logic*; sleeping
    # between rounds would only slow the smoke test down.
    policy = RetryPolicy(
        max_attempts=args.retries, backoff_base=0.0, backoff_max=0.0
    )
    config = ExperimentConfig.small(
        collection_size=args.size,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        faults=spec,
        retry=policy,
    )
    print(f"chaos campaign: {args.size} matrices, "
          f"fail={args.fail} corrupt={args.corrupt} latency={args.latency} "
          f"(fault seed {args.fault_seed}, {args.retries} attempts)")
    data = build_experiment_data(config, use_cache=False)
    report = data.degradation
    print(report.to_text())
    rc = 0
    if args.require_quarantine and report.n_quarantined == 0:
        print("repro chaos: expected a non-empty quarantine but every "
              "task survived; raise --fail or --size", file=sys.stderr)
        rc = 1
    if args.verify:
        clean_config = dataclasses.replace(config, faults=None, retry=None)
        clean = build_experiment_data(clean_config, use_cache=False)
        mismatches = _survivor_mismatches(clean, data)
        if mismatches:
            for line in mismatches:
                print(f"repro chaos: MISMATCH: {line}", file=sys.stderr)
            rc = 1
        else:
            print(f"verify: {len(data.features)} surviving matrices x "
                  f"{len(data.results)} arches byte-identical to the "
                  f"fault-free run")
    return rc


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded: list[str] = []
    if args.small:
        forwarded.append("--small")
    if args.only:
        forwarded += ["--only", *args.only]
    if args.markdown:
        forwarded += ["--markdown", args.markdown]
    forwarded += ["--jobs", str(args.jobs)]
    if args.cache_dir:
        forwarded += ["--cache-dir", args.cache_dir]
    if args.retries is not None:
        forwarded += ["--retries", str(args.retries)]
    if args.task_timeout is not None:
        forwarded += ["--task-timeout", str(args.task_timeout)]
    if args.checkpoint_every:
        forwarded += ["--checkpoint-every", str(args.checkpoint_every)]
    if args.resume:
        forwarded.append("--resume")
    return runner_main(forwarded)


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    from repro.runtime import default_cache_dir

    return args.cache_dir or default_cache_dir()


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import ArtifactCache

    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        print(
            "repro cache: no cache directory (pass --cache-dir or set "
            "$REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    cache = ArtifactCache(cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached campaign(s) from {cache_dir}")
        return 0
    info = cache.info()
    print(f"cache root : {info['root']}")
    print(f"entries    : {info['entries']}")
    print(f"total size : {info['bytes'] / 1e6:.1f} MB")
    for meta in cache.entries():
        key = str(meta.get("key", "?"))[:16]
        n = meta.get("n_matrices", "?")
        size_mb = int(meta.get("bytes", 0)) / 1e6
        cfg = meta.get("config", {})
        print(f"  {key}…  {n} matrices  {size_mb:.1f} MB  {cfg}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import TraceParseError, stats_report

    try:
        print(stats_report(args.trace, top=args.top))
    except TraceParseError as exc:
        # Missing, empty, and truncated traces all land here: one typed
        # diagnostic line, exit code 2 (distinct from runtime failures).
        print(f"repro stats: {exc}", file=sys.stderr)
        return 2
    return 0


def _load_metrics_snapshot(path: str) -> dict:
    """Read a registry snapshot from a metrics JSON or a ``metrics`` answer."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    # A saved `metrics` op response wraps the snapshot under "metrics".
    if "metrics" in data and isinstance(data["metrics"], dict):
        return data["metrics"]
    return data


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.slo import SLOConfigError, load_slo_file, report

    try:
        rules = load_slo_file(args.slo)
        snapshot = _load_metrics_snapshot(args.metrics)
    except (SLOConfigError, OSError, ValueError) as exc:
        print(f"repro obs report: {exc}", file=sys.stderr)
        return 2
    try:
        text, ok = report(rules, snapshot)
    except SLOConfigError as exc:
        print(f"repro obs report: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if ok else 1


#: Sentinel for ``--profile`` given without a PATH operand.
_PROFILE_STDERR_ONLY = "-"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    # Shared by every subcommand (argparse only honours flags placed
    # after the subcommand name when they live on the subparser).
    profile_parent = argparse.ArgumentParser(add_help=False)
    profile_parent.add_argument(
        "--profile",
        nargs="?",
        const=_PROFILE_STDERR_ONLY,
        default=None,
        metavar="PATH",
        help="enable telemetry; dump span tree + metrics on exit "
             "(and write a Chrome-trace JSONL to PATH when given)",
    )
    # Shared by the campaign-running subcommands (train, tables).
    campaign_parent = argparse.ArgumentParser(add_help=False)
    campaign_parent.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the campaign fan-outs (0 = all "
             "cores); results are identical for any value",
    )
    campaign_parent.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist campaign artifacts under PATH (warm runs skip "
             "the campaign; default $REPRO_CACHE_DIR, else off)",
    )
    campaign_parent.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per campaign task before quarantining it "
             "(enables the fault-tolerant path; default 3 when active)",
    )
    campaign_parent.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget for campaign tasks "
             "(SIGALRM-based; hangs become retryable failures)",
    )
    campaign_parent.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint campaign progress to the cache dir every N "
             "benchmark tasks (0 = off)",
    )
    campaign_parent.add_argument(
        "--resume", action="store_true",
        help="reuse a previous run's checkpoint from the cache dir "
             "instead of redoing completed work",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", parents=[profile_parent],
                       help="print Table-1 features of a matrix")
    p.add_argument("matrix", help=".mtx file")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("benchmark", parents=[profile_parent],
                       help="simulated per-format kernel times")
    p.add_argument("matrix", help=".mtx file")
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), default="volta")
    p.add_argument("--op", default="spmv", metavar="OP",
                   help="operation to time: spmv (default), spmm[:k], "
                        "or spgemm")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("train", parents=[profile_parent, campaign_parent],
                       help="train and freeze a selector")
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), default="volta")
    p.add_argument("--labeler", choices=("vote", "lr", "rf"), default="vote")
    p.add_argument("--clusters", type=int, default=40)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .npz path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", parents=[profile_parent],
                       help="recommend a format for a matrix")
    p.add_argument("matrix", help=".mtx file")
    p.add_argument("--model", default=None, help="frozen selector .npz "
                   "(required for --op spmv; ignored for other ops, which "
                   "use the analytical kernel model)")
    p.add_argument("--op", default="spmv", metavar="OP",
                   help="operation to select for: spmv (default), "
                        "spmm[:k] (sparse x dense with width k), or spgemm")
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), default="volta",
                   help="architecture for the analytical --op path")
    p.add_argument("--fallback-format", default="csr", metavar="FMT",
                   help="format recommended when the model is unusable "
                        "(default: csr)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 instead of degrading when the model is "
                        "unusable")
    p.add_argument("--max-dim", type=int, default=50_000_000, metavar="N",
                   help="reject matrices declaring more rows or columns "
                        "than this at the size line, before any entry is "
                        "read (0 disables)")
    p.add_argument("--max-nnz", type=int, default=2_000_000_000, metavar="N",
                   help="reject matrices declaring more nonzeros than this "
                        "at the size line (0 disables)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("predict-batch", parents=[profile_parent],
                       help="batched recommendations for a collection "
                            "(bit-identical to per-matrix predict)")
    p.add_argument("collection",
                   help="directory of .mtx files, a single .mtx, or a "
                        "manifest file listing one matrix path per line")
    p.add_argument("--model", required=True, help="frozen selector .npz")
    p.add_argument("--fallback-format", default="csr", metavar="FMT",
                   help="format recorded for unusable matrices or an "
                        "unusable model (default: csr)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for extraction and inference "
                        "shards (0 = all cores); output is identical "
                        "for any value")
    p.add_argument("--shard-size", type=int, default=None, metavar="N",
                   help="items per inference shard (default: pool "
                        "heuristic); never changes output")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSONL here instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if the model is unusable or any matrix "
                        "fell back")
    p.set_defaults(func=_cmd_predict_many)

    def add_serving_args(parser, **overrides):
        """Serving knobs, shared by ``serve`` and ``chaos --target serve``.

        A plain function rather than a parent parser: parent parsers
        share action objects between subparsers, so per-subcommand
        ``set_defaults`` on one would silently leak into the other.
        """
        defaults = dict(
            queue_size=64, deadline=5.0,
            max_request_bytes=16 * 1024 * 1024,
            max_matrix_bytes=8 * 1024 * 1024,
            max_dim=50_000_000, max_nnz=5_000_000,
            breaker_failures=5, breaker_reset=2.0, breaker_probes=2,
            max_batch=8,
        )
        defaults.update(overrides)
        parser.add_argument(
            "--fallback-format", default="csr", metavar="FMT",
            help="format served when the model cannot be trusted")
        parser.add_argument(
            "--queue-size", type=int, default=defaults["queue_size"],
            metavar="N",
            help="bounded request queue; overflowing bursts shed the oldest")
        parser.add_argument(
            "--deadline", type=float, default=defaults["deadline"],
            metavar="SECONDS",
            help="per-request processing deadline (0 disables)")
        parser.add_argument(
            "--max-request-bytes", type=int,
            default=defaults["max_request_bytes"], metavar="N",
            help="reject request lines larger than this")
        parser.add_argument(
            "--max-matrix-bytes", type=int,
            default=defaults["max_matrix_bytes"], metavar="N",
            help="reject serialized matrices larger than this")
        parser.add_argument(
            "--max-dim", type=int, default=defaults["max_dim"], metavar="N",
            help="reject matrices declaring more rows/columns than this")
        parser.add_argument(
            "--max-nnz", type=int, default=defaults["max_nnz"], metavar="N",
            help="reject matrices declaring more nonzeros than this")
        parser.add_argument(
            "--breaker-failures", type=int,
            default=defaults["breaker_failures"], metavar="N",
            help="consecutive inference faults that open the circuit breaker")
        parser.add_argument(
            "--breaker-reset", type=float, default=defaults["breaker_reset"],
            metavar="SECONDS",
            help="open-state dwell before half-open probing")
        parser.add_argument(
            "--breaker-probes", type=int, default=defaults["breaker_probes"],
            metavar="N",
            help="half-open probe successes needed to close the breaker")
        parser.add_argument(
            "--ood-factor", type=float, default=8.0, metavar="F",
            help="out-of-distribution threshold as a multiple of the "
                 "model's centroid scale (0 disables)")
        parser.add_argument(
            "--no-reload", action="store_true",
            help="disable hot model reload (serve the boot-time model only)")
        parser.add_argument(
            "--max-batch", type=int, default=defaults["max_batch"],
            metavar="N",
            help="admission-queue requests drained per micro-batch; the "
                 "predict ops share one vectorized inference pass with "
                 "per-request responses unchanged (1 disables)")

    p = sub.add_parser("serve", parents=[profile_parent],
                       help="run the resilient selector service "
                            "(JSONL on stdin/stdout, or a Unix socket)")
    add_serving_args(p)
    p.add_argument("--model", required=True, help="frozen selector .npz")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="serve on a Unix socket instead of stdin/stdout")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes behind the asyncio front-end; "
                        "1 (default) keeps the single-process server "
                        "with byte-identical responses")
    p.add_argument("--run-dir", default=None, metavar="DIR",
                   help="tier scratch directory for the shared model "
                        "store and worker sockets (default: a temp dir)")
    p.add_argument("--worker-store", default=None, help=argparse.SUPPRESS)
    p.add_argument("--worker-id", default=None, help=argparse.SUPPRESS)
    p.add_argument("--access-log", default=None, metavar="PATH",
                   help="append one JSONL event per request (trace id, "
                        "op, status, latency) with size-based rotation")
    p.add_argument("--access-log-max-bytes", type=int,
                   default=10 * 1024 * 1024, metavar="N",
                   help="rotate the access log past this size")
    p.add_argument("--request-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="tier front-end: per-request latency budget; "
                        "stamped on the worker wire as deadline_ms "
                        "(min-combined with the client's own) and the "
                        "patience before a wedged worker is killed "
                        "(default 60)")
    p.add_argument("--hedge-ms", type=float, default=None, metavar="MS",
                   help="tier front-end: hedge a request to the next ring "
                        "worker after this many ms without an answer "
                        "(default: rolling p95 of completed requests; "
                        "<= 0 disables hedging)")
    p.add_argument("--hedge-budget", type=float, default=0.05, metavar="FRAC",
                   help="tier front-end: token-bucket cap on hedged "
                        "dispatches as a fraction of routed traffic "
                        "(default 0.05; <= 0 disables hedging)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="tier front-end: patience for in-flight requests "
                        "after SIGTERM/shutdown before teardown "
                        "(default 10)")
    p.add_argument("--store-keep", type=int, default=2, metavar="N",
                   help="tier front-end: non-CURRENT model-store versions "
                        "kept by GC after each publish (default 2; "
                        "0 disables pruning)")
    p.add_argument("--access-log-backups", type=int, default=3, metavar="N",
                   help="rotated access-log files kept")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("chaos", parents=[profile_parent],
                       help="run a fault-injected campaign and report "
                            "what the resilience layer absorbed")
    # Chaos-tuned serving defaults: a queue smaller than the burst so
    # shedding actually happens, and a breaker that trips and recovers
    # within the drill's wall-clock budget.
    add_serving_args(p, queue_size=8, deadline=0.0, breaker_failures=3,
                     breaker_reset=0.05, breaker_probes=1,
                     max_matrix_bytes=32768, max_request_bytes=65536,
                     max_nnz=100_000)
    p.add_argument("--target", choices=("campaign", "serve"),
                   default="campaign",
                   help="aim the fault stream at the training campaign "
                        "or at the serving stack")
    p.add_argument("--requests", type=int, default=200, metavar="N",
                   help="[serve] drill request count")
    p.add_argument("--burst", type=int, default=16, metavar="N",
                   help="[serve] requests submitted per burst (tier "
                        "drills use this as the concurrent connection "
                        "count)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="[serve] drill the multi-worker tier with this "
                        "many worker processes (1 = in-process server)")
    p.add_argument("--kill-worker", action="store_true",
                   help="[serve] SIGKILL one worker mid-drill and "
                        "assert respawn, ring rejoin, and counter "
                        "reconciliation (requires --workers >= 2)")
    p.add_argument("--slow-worker", action="store_true",
                   help="[serve] inject latency faults into exactly one "
                        "worker and assert hedged dispatch fires, hedge "
                        "volume stays within budget, and the hedging "
                        "conservation law holds (requires --workers >= 2)")
    p.add_argument("--hedge-ms", type=float, default=None, metavar="MS",
                   help="[serve] tier hedge delay override (default: "
                        "15 ms under --slow-worker, else rolling p95)")
    p.add_argument("--hedge-budget", type=float, default=0.05,
                   metavar="FRAC",
                   help="[serve] tier hedge token-bucket budget "
                        "(default 0.05)")
    p.add_argument("--swap", dest="swap", action="store_true", default=True,
                   help="[serve] perform the corrupt-then-good mid-run "
                        "model swap (default)")
    p.add_argument("--no-swap", dest="swap", action="store_false",
                   help="[serve] skip the mid-run model swap")
    p.add_argument("--require-breaker", action="store_true",
                   help="[serve] exit 1 unless the circuit breaker opened")
    p.add_argument("--size", type=int, default=60,
                   help="collection size of the chaos campaign")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=20210809,
                   help="campaign seed (matrices + benchmark noise)")
    p.add_argument("--jobs", type=int, default=1, metavar="N")
    p.add_argument("--fail", type=float, default=0.2, metavar="P",
                   help="per-attempt task failure probability")
    p.add_argument("--latency", type=float, default=0.0, metavar="P",
                   help="per-attempt probability of an injected delay")
    p.add_argument("--delay", type=float, default=0.002, metavar="SECONDS",
                   help="injected delay length")
    p.add_argument("--corrupt", type=float, default=0.05, metavar="P",
                   help="per-attempt result-corruption probability")
    p.add_argument("--poison", type=float, default=0.25, metavar="FRAC",
                   help="fraction of failing mass that fails every attempt")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the fault stream")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="attempts per task before quarantine")
    p.add_argument("--require-quarantine", action="store_true",
                   help="exit 1 unless at least one task was quarantined")
    p.add_argument("--verify", action="store_true",
                   help="re-run fault-free and exit 1 unless every "
                        "survivor is byte-identical (campaign), or check "
                        "post-recovery parity with a fresh single-shot "
                        "predict (serve)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="[serve] write the post-drill metrics snapshot "
                        "as JSON (feed it to `repro obs report`)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("tables", parents=[profile_parent, campaign_parent],
                       help="regenerate the paper's tables")
    p.add_argument("--small", action="store_true")
    p.add_argument("--only", nargs="*", default=None)
    p.add_argument("--markdown", default=None)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("cache", parents=[profile_parent],
                       help="inspect or purge the campaign artifact cache")
    p.add_argument("action", choices=("info", "clear"))
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="cache directory (default $REPRO_CACHE_DIR)")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("stats",
                       help="aggregate a --profile trace into a hot-path "
                            "report")
    p.add_argument("trace", help="trace .jsonl written by --profile")
    p.add_argument("--top", type=int, default=None,
                   help="show only the N hottest spans")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("obs",
                       help="observability tooling: SLO reports over a "
                            "metrics snapshot")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    p_report = obs_sub.add_parser(
        "report",
        help="evaluate declarative SLO thresholds against a metrics "
             "snapshot; exits 1 on violation, 2 on bad input")
    p_report.add_argument("--slo", required=True, metavar="FILE",
                          help="SLO rules JSON (top-level 'slos' list)")
    p_report.add_argument("--metrics", required=True, metavar="FILE",
                          help="metrics snapshot JSON (from `repro chaos "
                               "--metrics-out` or a saved `metrics` op "
                               "response)")
    p_report.set_defaults(func=_cmd_obs_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CampaignAbort as exc:
        # A (simulated) mid-campaign crash: partial progress is already
        # checkpointed when --checkpoint-every/--resume are in play.
        print(f"repro: campaign aborted: {exc}", file=sys.stderr)
        print("repro: rerun with --resume --cache-dir PATH to continue "
              "from the last checkpoint", file=sys.stderr)
        return 3


def _dispatch(args: argparse.Namespace) -> int:
    profile = getattr(args, "profile", None)
    if profile is None:
        return args.func(args)

    from repro.obs import TELEMETRY, dump_profile, request_scope

    TELEMETRY.enable()
    TELEMETRY.reset()
    try:
        # The CLI root is a request scope: every fan-out the command
        # performs (feature extraction, sharded inference, campaign
        # chunks) inherits one trace id, so a profiled run stitches
        # into a single end-to-end trace.
        with request_scope(f"cli.{args.command}"):
            rc = args.func(args)
    finally:
        trace_path = None if profile == _PROFILE_STDERR_ONLY else profile
        dump_profile(TELEMETRY, trace_path)
        TELEMETRY.disable()
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
