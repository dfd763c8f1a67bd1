"""Shared plumbing for the repository benchmark (see README.md here).

Everything a workload needs besides its own loop: locating the source
tree, seeded inputs (a frozen selector trained through the real
pipeline, request matrices drawn from the suite's generator families),
launch-to-ready probes, quantiles, peak memory, and the traced-run
helpers that turn span trees into per-layer rows.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Checkout root (the benchmark always runs from here).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Scratch space for models, matrix files and sockets.  Paths handed to
#: subprocesses stay *relative* to ROOT so Unix socket paths remain short
#: however deep the checkout lives.
WORK_ROOT = Path(".perfbench_work")

#: asyncio's default StreamReader limit; tier payload lines must stay
#: below it so the tier workload measures the tier, not that limit.
ASYNCIO_LINE_LIMIT = 64 * 1024


def require_source() -> None:
    """Put ``src`` on the import path, or exit 2 when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def workdir(name: str):
    """A private scratch directory under :data:`WORK_ROOT`, removed after."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: ``repro`` importable."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# -- statistics ---------------------------------------------------------


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile (no interpolation); 0.0 for no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(samples) -> float:
    return quantile(samples, 0.5)


def block_latency(blocks) -> dict[str, float]:
    """``p50_ms``/``p90_ms`` of the run's fastest block.

    A run is cut into blocks of equal work, each with its own quantiles;
    the run reports the lowest.  Interference from other tenants of a
    shared machine only ever adds time, so the fastest block is the
    figure least moved by it, while each block's quantile keeps its
    meaning.  Blocks hold 100-200 samples, so the 90th percentile is the
    highest with ten samples beyond it.
    """
    return {
        "p50_ms": min(median(b) for b in blocks) * 1e3,
        "p90_ms": min(quantile(b, 0.9) for b in blocks) * 1e3,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of another live process, in MB; 0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_children(pid: int) -> list[int]:
    """Direct child pids of a live process (Linux ``/proc``)."""
    out: list[int] = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            text = (task / "children").read_text().split()
            out.extend(int(p) for p in text)
    except OSError:
        pass
    return out


# -- provenance -----------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from its own ``.git`` (else ``unknown``).

    Read directly rather than through ``git``, which would search the
    directories above the checkout.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, params: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# -- outcome accounting ---------------------------------------------------

#: Failure kinds every workload counts (``failed`` is their sum).
FAILURE_KINDS = (
    "fallback",
    "invalid",
    "overloaded",
    "deadline",
    "worker_lost",
    "dropped",
    "wrong_label",
)


@dataclass
class Outcome:
    """What one workload run attempted, got right, and measured."""

    attempted: int = 0
    ok: int = 0
    failures: dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in FAILURE_KINDS}
    )
    #: Messages of failed correctness checks (any entry fails the run).
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def absorb(self, name: str, other: "Outcome") -> None:
        """Add another workload's counts, and its metrics not measured here."""
        self.attempted += other.attempted
        self.ok += other.ok
        for kind, count in other.failures.items():
            self.failures[kind] += count
        self.problems += other.problems
        for key, value in other.metrics.items():
            self.metrics.setdefault(key, value)
        self.params[name] = other.params

    def fail(self, kind: str, message: str | None = None) -> None:
        self.failures[kind] += 1
        if message is not None and len(self.problems) < 20:
            self.problems.append(message)

    def judge(self, response: dict, expected: str) -> None:
        """Count one serving answer against its reference label."""
        self.attempted += 1
        status = response.get("status")
        if status == "ok" and response.get("format") == expected:
            self.ok += 1
        elif status == "ok":
            self.fail(
                "wrong_label",
                f"{response.get('id')}: got {response.get('format')!r}, "
                f"reference {expected!r}",
            )
        elif status == "fallback":
            self.fail("fallback", f"{response.get('id')}: {response}")
        elif status == "overloaded":
            code = response.get("code")
            kind = "deadline" if code == "deadline_exceeded" else "overloaded"
            self.fail(kind, f"{response.get('id')}: {response}")
        elif response.get("code") == "worker_lost":
            self.fail("worker_lost", f"{response.get('id')}: {response}")
        else:
            self.fail("invalid", f"{response.get('id')}: {response}")


# -- seeded inputs ----------------------------------------------------------


#: Training collection size and cluster count of the served model.
MODEL_SIZE = 80
MODEL_CLUSTERS = 12


def train_frozen_selector(seed: int):
    """A K-Means-VOTE selector trained through the real pipeline.

    The campaign (``build_experiment_data``, cache off) over
    :data:`MODEL_SIZE` suite matrices, its volta dataset through the
    paper's default log + min-max + PCA pipeline, then :func:`freeze`.
    Workloads call it through :func:`frozen_selector_file`, so the
    campaign's memory stays out of their own peak RSS.
    """
    from repro.core.deploy import freeze
    from repro.core.semisupervised import ClusterFormatSelector
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.data import build_experiment_data

    config = ExperimentConfig(
        collection_size=MODEL_SIZE, augment_copies=0, trials=5, seed=seed
    )
    ds = build_experiment_data(
        config, use_cache=False, jobs=1, cache_dir=""
    ).datasets["volta"]
    selector = ClusterFormatSelector(
        "kmeans", "vote", n_clusters=MODEL_CLUSTERS, seed=seed % 2**31
    )
    selector.fit(ds.X, ds.labels)
    return freeze(selector)


def frozen_selector_file(seed: int, path: Path):
    """Train the served model in a child process; load and return it."""
    from repro.core.deploy import FrozenSelector

    subprocess.run(
        [sys.executable, __file__, str(seed), str(path)],
        cwd=ROOT,
        env=child_env(),
        check=True,
        timeout=300,
    )
    return FrozenSelector.load(path)


#: Generator families requests are drawn from, and per-family parameter
#: rules hitting a target nonzero count ``t`` (tiny matrices pass ``dim``).
REQUEST_FAMILIES = (
    "banded",
    "multi_diagonal",
    "stencil_2d",
    "random_uniform",
    "power_law_rows",
    "block_diagonal",
    "row_blocks",
    "rectangular",
)


def _params(family: str, rng, t: int, dim: int | None) -> dict:
    """Generator parameters for ~``t`` nonzeros (or ``dim`` rows)."""
    if family == "banded":
        bw = int(rng.integers(1, 4 if dim else 12))
        dens = float(rng.uniform(0.6, 1.0))
        n = dim or max(8, int(t / ((2 * bw + 1) * dens)))
        return {"n": n, "bandwidth": bw, "density": dens}
    if family == "multi_diagonal":
        nd = int(rng.integers(2, 5 if dim else 16))
        n = dim or max(8, t // nd)
        return {"n": n, "ndiags": nd}
    if family == "stencil_2d":
        pts = int(rng.choice([5, 9]))
        side = (
            max(2, int(round(math.sqrt(dim))))
            if dim
            else max(4, int(math.sqrt(t / pts)))
        )
        return {"nx": side, "ny": side, "points": pts}
    if family == "random_uniform":
        root = int(math.sqrt(t))
        n = dim or int(rng.integers(max(16, root), 4 * root + 17))
        dens = (
            float(rng.uniform(0.1, 0.4))
            if dim
            else min(1.0, t / float(n * n))
        )
        return {"nrows": n, "ncols": n, "density": dens}
    if family == "power_law_rows":
        avg = float(rng.uniform(1.5, 4.0) if dim else rng.uniform(4, 24))
        n = dim or max(8, int(t / avg))
        return {
            "nrows": n,
            "avg_nnz_per_row": avg,
            "alpha": float(rng.uniform(1.6, 2.8)),
            "max_over_mean": float(rng.uniform(1.3, 6.0)),
        }
    if family == "block_diagonal":
        bs = int(rng.integers(2, 6) if dim else rng.integers(8, 48))
        dens = float(rng.uniform(0.3, 0.9))
        nb = max(2, dim // bs) if dim else max(2, int(t / (bs * bs * dens)))
        return {"nblocks": nb, "block_size": bs, "density": dens}
    if family == "row_blocks":
        hi = 5 if dim else 48
        k = int(rng.integers(2, 4))
        lengths = tuple(int(v) for v in np.sort(rng.integers(1, hi, size=k)))
        mean = sum(lengths) / len(lengths)
        n = dim or max(8, int(t / mean))
        return {"nrows": n, "ncols": max(n, hi), "lengths": lengths}
    if family == "rectangular":
        per = int(rng.integers(1, 4) if dim else rng.integers(2, 16))
        n = dim or max(8, t // per)
        return {
            "nrows": n,
            "ncols": max(per, n // int(rng.integers(2, 6))),
            "nnz_per_row": per,
        }
    raise KeyError(family)


#: Candidates drawn for one request slot before input generation fails.
MAX_REDRAWS = 500

#: Target nonzeros per size class (tiny uses 4-24 dimensions instead).
SIZE_CLASSES = {"tiny": 0, "medium": 2_000, "large": 50_000}


def request_matrix(rng, size_class: str, family: str):
    """One matrix of ``family`` in the given size class."""
    from repro.datasets.generators import GENERATORS

    dim = int(rng.integers(4, 25)) if size_class == "tiny" else None
    params = _params(family, rng, SIZE_CLASSES[size_class], dim)
    return GENERATORS[family](rng, **params)


@dataclass
class Request:
    """One seeded request: its line, reference label and size class."""

    rid: str
    size_class: str
    matrix: object
    text: str
    line: str
    expected: str


def make_requests(
    frozen,
    seed: int,
    mix: dict[str, int],
    max_line_bytes: int | None = None,
) -> tuple[list[Request], int]:
    """Seeded in-distribution requests, ``mix[class]`` of each class.

    The reference label is ``FrozenSelector.predict`` applied to
    ``extract_features(read_matrix_market(text))``.  Candidates the
    default server would answer with its out-of-distribution fallback,
    whose nonzero count is more than 10% off their class target, or
    whose line reaches ``max_line_bytes``, are redrawn (the count of
    redraws is returned) so that no operation of the workload fails by
    construction.
    """
    import io

    from repro.features import extract_features
    from repro.formats.io import matrix_market_string, read_matrix_market
    from repro.serving.server import ServingConfig

    rng = np.random.default_rng([seed, 7])
    # The default server answers a request farther than this from every
    # centroid with its out-of-distribution fallback (a factor of 0 or
    # less turns the check off).
    factor = ServingConfig(model_path="").ood_factor
    ood_distance = factor * frozen.centroid_scale() if factor > 0 else math.inf
    out: list[Request] = []
    redrawn = 0
    # Families are dealt round-robin within each class, so every seed
    # gets the same family mix and only the matrices themselves vary.
    order = [
        (c, REQUEST_FAMILIES[k % len(REQUEST_FAMILIES)])
        for c, n in mix.items()
        for k in range(n)
    ]
    rng.shuffle(order)
    for i, (size_class, family) in enumerate(order):
        for _ in range(MAX_REDRAWS):
            matrix = request_matrix(rng, size_class, family)
            target = SIZE_CLASSES[size_class]
            if matrix.nnz == 0 or (
                target and abs(matrix.nnz - target) > 0.1 * target
            ):
                # Keep each class's size tight so its latency depends
                # on the code, not on which sizes a seed happened to draw.
                redrawn += 1
                continue
            text = matrix_market_string(matrix)
            rid = f"{size_class[0]}{i}"
            line = json.dumps({"id": rid, "op": "predict", "mtx": text})
            if max_line_bytes is not None and len(line) + 1 >= max_line_bytes:
                redrawn += 1
                continue
            vec = extract_features(read_matrix_market(io.StringIO(text)))
            X = vec[None, :]
            if float(frozen.nearest_distance(X)[0]) > ood_distance:
                redrawn += 1
                continue
            expected = str(frozen.predict(X)[0])
            out.append(
                Request(rid, size_class, matrix, text, line, expected)
            )
            break
        else:
            raise RuntimeError(f"no usable {size_class} {family} matrix")
    return out, redrawn


# -- launch-to-ready probes -----------------------------------------------


def launch_to_ready(argv: list[str], timeout: float = 60.0) -> float:
    """Seconds from launching ``argv`` until it prints ``ready``.

    The probe process exits right after; a non-zero exit or a missing
    ``ready`` line is an error.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"probe {argv[2:]} failed (exit {code}): {line!r}")
    return elapsed


def probe_argv(kind: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "probe.py"), kind, *args]


# -- traced runs ------------------------------------------------------------


@contextlib.contextmanager
def telemetry_on():
    """Enable the global telemetry for a traced phase (fresh state)."""
    from repro.obs import TELEMETRY

    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.disable()


@contextlib.contextmanager
def spans_around(targets: list[tuple[object, str, str]]):
    """Wrap ``owner.attr`` callables in spans named by the layer.

    The wrapping is done from outside (attribute replacement on the
    module or class the system calls through) and undone on exit, so the
    system's code is unchanged.
    """
    from repro.obs import TELEMETRY

    saved = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)

        def wrapper(*args, __orig=original, __name=name, **kwargs):
            with TELEMETRY.span(__name):
                return __orig(*args, **kwargs)

        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass
class LayerRow:
    calls: int
    busy_s: float
    self_s: float


def layer_rows(telemetry) -> tuple[dict[str, LayerRow], float]:
    """{span name: row} of the live trace, plus the root spans' total."""
    from repro.obs.stats import aggregate

    events = telemetry.tracer.events()
    rows = {
        hp.name: LayerRow(hp.calls, hp.cum_seconds, hp.self_seconds)
        for hp in aggregate(events)
    }
    roots = sum(
        float(e["dur"]) / 1e6
        for e in events
        if e.get("args", {}).get("parent", -1) in (-1, None)
    )
    return rows, roots


def format_layer_table(rows: dict[str, LayerRow]) -> str:
    lines = [f"{'span':44s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1].self_s):
        lines.append(
            f"{name:44s} {row.calls:8d} {row.busy_s:10.4f} {row.self_s:10.4f}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    # ``python3 perfbench/harness.py SEED OUT.npz``: train and save the
    # served model (see frozen_selector_file).
    train_frozen_selector(int(sys.argv[1])).save(sys.argv[2])
