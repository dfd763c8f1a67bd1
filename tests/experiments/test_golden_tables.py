"""Golden regression snapshot of the paper's headline tables.

The seeded mini-campaign (the session-scoped ``tiny_data`` fixture) is
fully deterministic, so Tables 4–7 — the ACC/F1/MCC and GT/CSR speedup
numbers the paper's conclusions rest on — can be pinned exactly.  Any
change to feature extraction, clustering, model training, or evaluation
that shifts a metric shows up here as a cell-level diff.

Floats are rounded to 6 decimals before comparison, which survives the
JSON round-trip bit-exactly while leaving headroom below the metrics'
meaningful precision.

To regenerate after an *intentional* change:

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_golden_tables.py

then review the golden diff like any other code change (see TESTING.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    spmm,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.experiments.config import ExperimentConfig

GOLDEN_PATH = Path(__file__).parent / "goldens" / "tables_4_7.json"
SPMV_GOLDEN_PATH = Path(__file__).parent / "goldens" / "tables_2_9_spmv.json"
TABLE10_GOLDEN_PATH = Path(__file__).parent / "goldens" / "table10.json"

GENERATORS = {
    "table4": table4.generate,
    "table5": table5.generate,
    "table6": table6.generate,
    "table7": table7.generate,
}


def _cell(value):
    """JSON-stable cell: rounded builtin float / builtin int / str."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return round(float(value), 6)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return str(value)


def snapshot(data) -> dict:
    out = {}
    for key, generate in GENERATORS.items():
        table = generate(data)
        out[key] = {
            "headers": list(table.headers),
            "rows": [[_cell(v) for v in row] for row in table.rows],
        }
    return out


def test_tables_4_to_7_match_goldens(tiny_data):
    snap = snapshot(tiny_data)
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(snap, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"goldens rewritten at {GOLDEN_PATH}")
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"no golden file at {GOLDEN_PATH}; generate one with "
            "REPRO_UPDATE_GOLDENS=1"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(snap) == sorted(golden), "table set changed"
    for key in GENERATORS:
        assert snap[key]["headers"] == golden[key]["headers"], (
            f"{key}: headers changed"
        )
        got_rows, want_rows = snap[key]["rows"], golden[key]["rows"]
        assert len(got_rows) == len(want_rows), (
            f"{key}: {len(got_rows)} rows, golden has {len(want_rows)}"
        )
        for i, (got, want) in enumerate(zip(got_rows, want_rows)):
            for header, g, w in zip(snap[key]["headers"], got, want):
                assert g == w, (
                    f"{key} row {i} [{header}]: got {g!r}, golden {w!r} "
                    "(REPRO_UPDATE_GOLDENS=1 regenerates after an "
                    "intentional change)"
                )


def _table_snap(table) -> dict:
    return {
        "headers": list(table.headers),
        "rows": [[_cell(v) for v in row] for row in table.rows],
    }


def spmv_snapshot(data) -> dict:
    """Tables 2/3/8 cell-exact plus Table 9's structure (cells are wall-clock)."""
    out = {
        "table2": _table_snap(table2.generate(data)),
        "table3": _table_snap(table3.generate(data)),
        "table8": _table_snap(table8.generate(data)),
    }
    t9 = table9.generate(data)
    out["table9"] = {
        "headers": list(t9.headers),
        "rows": [[_cell(row[0])] for row in t9.rows],
    }
    return out


def test_tables_2_9_spmv_identity(tiny_data):
    """The op-aware layer leaves the SpMV campaign byte-identical.

    The golden was snapshotted from the pre-SpMM tree on the same seeded
    tiny campaign; ``op="spmv"`` defaults everywhere must keep every
    Table 2/3/8 cell (and Table 9's structure) exactly as it was.
    """
    snap = spmv_snapshot(tiny_data)
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        SPMV_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        SPMV_GOLDEN_PATH.write_text(
            json.dumps(snap, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"goldens rewritten at {SPMV_GOLDEN_PATH}")
    if not SPMV_GOLDEN_PATH.exists():
        pytest.fail(
            f"no golden file at {SPMV_GOLDEN_PATH}; generate one with "
            "REPRO_UPDATE_GOLDENS=1"
        )
    golden = json.loads(SPMV_GOLDEN_PATH.read_text())
    assert snap == golden, (
        "SpMV-path outputs changed — the op extension must be inert at "
        "op='spmv' (REPRO_UPDATE_GOLDENS=1 regenerates only after an "
        "intentional change)"
    )


#: Table 10's own seeded mini-campaign: smaller than ``tiny_config``
#: because it benchmarks every matrix under three ops.
TABLE10_CONFIG = ExperimentConfig(
    collection_size=96,
    augment_copies=0,
    trials=5,
    n_folds=3,
    nc_grid=(10, 25),
)


def test_table10_matches_golden():
    snap = {"table10": _table_snap(spmm.generate(config=TABLE10_CONFIG))}
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        TABLE10_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        TABLE10_GOLDEN_PATH.write_text(
            json.dumps(snap, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"goldens rewritten at {TABLE10_GOLDEN_PATH}")
    if not TABLE10_GOLDEN_PATH.exists():
        pytest.fail(
            f"no golden file at {TABLE10_GOLDEN_PATH}; generate one with "
            "REPRO_UPDATE_GOLDENS=1"
        )
    golden = json.loads(TABLE10_GOLDEN_PATH.read_text())
    assert snap == golden, (
        "Table 10 changed (REPRO_UPDATE_GOLDENS=1 regenerates after an "
        "intentional change)"
    )
    # The golden itself must encode the acceptance criterion.
    quantities = [row[0] for row in golden["table10"]["rows"]]
    beats = golden["table10"]["rows"][
        quantities.index("selector beats best static")
    ][1]
    assert beats == "yes"


def test_op_aware_selector_beats_best_static_at_64_matrices():
    """The acceptance criterion on a smaller campaign than the golden's."""
    table = spmm.generate(
        config=ExperimentConfig(
            collection_size=64,
            augment_copies=0,
            trials=3,
            n_folds=3,
            nc_grid=(10,),
        )
    )
    beats = table.column("Value")[
        table.column("Quantity").index("selector beats best static")
    ]
    assert beats == "yes", table.format_text()


def test_golden_metrics_are_in_range():
    """The committed golden itself stays sane (metrics in [-1, 1])."""
    if not GOLDEN_PATH.exists():
        pytest.skip("goldens not generated yet")
    golden = json.loads(GOLDEN_PATH.read_text())
    for key, table in golden.items():
        for header, column in zip(
            table["headers"], zip(*table["rows"]) if table["rows"] else []
        ):
            if header.startswith(("F1", "MCC")):
                for v in column:
                    assert -1.0 <= v <= 1.0, f"{key} {header}: {v}"
            elif header.startswith("ACC"):
                # Tables 4–5 report fractions, 6–7 the paper's percents.
                for v in column:
                    assert 0.0 <= v <= 100.0, f"{key} {header}: {v}"
