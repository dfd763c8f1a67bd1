"""Cold start: loading and querying a frozen selector imports NumPy and
the serving layers only (DESIGN §18).

Each check runs in a fresh interpreter, since this process has long
since imported everything.  No check asserts a wall-clock figure.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.serving
from repro.serving import gateway
from repro.serving.drill import _random_matrix_text

#: Modules (and their submodules) the serving path must never load:
#: SciPy, the asyncio front-end, the drill, and the training stack.
DENY = (
    "scipy",
    "asyncio",
    "repro.serving.frontend",
    "repro.serving.drill",
    "repro.core.semisupervised",
    "repro.core.supervised",
    "repro.core.labeling",
    "repro.ml.logistic",
    "repro.ml.forest",
    "repro.ml.tree",
    "repro.ml.boosting",
    "repro.ml.svm",
    "repro.ml.cluster",
    "repro.datasets",
    "repro.experiments",
    "repro.gpu",
)

SERVE_AND_FIT = """
import json, sys
from repro.serving.server import SelectorServer, ServingConfig

model_path, lines, deny = json.loads(sys.stdin.read())
server = SelectorServer(ServingConfig(model_path=model_path))
answers = [server.handle_line(line) for line in lines]
loaded = sorted(
    m for m in sys.modules
    if any(m == d or m.startswith(d + ".") for d in deny)
)

import numpy as np
from repro.ml.logistic import LogisticRegression

before_fit = "scipy.optimize" in sys.modules
X = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]])
y = np.array([0, 0, 1, 1])
predicted = LogisticRegression().fit(X, y).predict(X).tolist()
print(json.dumps({
    "statuses": [a["status"] for a in answers],
    "loaded": loaded,
    "scipy_before_fit": before_fit,
    "scipy_after_fit": "scipy.optimize" in sys.modules,
    "predicted": predicted,
}))
"""


def _run_fresh(code: str, stdin: str = "") -> str:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_serving_path_stays_inside_its_import_budget(model_path):
    lines = [
        json.dumps(
            {"id": "p", "op": "predict", "mtx": _random_matrix_text(0, 0)}
        ),
        json.dumps({"id": "h", "op": "health"}),
        json.dumps({"id": "m", "op": "metrics"}),
        "{not json",
    ]
    report = json.loads(
        _run_fresh(SERVE_AND_FIT, json.dumps([model_path, lines, DENY]))
    )
    assert report["statuses"] == ["ok", "ok", "ok", "invalid"]
    assert report["loaded"] == []
    # SciPy is deferred to the first fit, and the fit still works.
    assert not report["scipy_before_fit"]
    assert report["scipy_after_fit"]
    assert report["predicted"] == [0, 0, 1, 1]


def test_cli_import_loads_no_scipy():
    out = _run_fresh(
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", repro.serving.__all__)
def test_every_lazy_export_is_its_submodules_object(name):
    module = importlib.import_module(
        f"repro.serving.{repro.serving._EXPORTS[name]}"
    )
    assert getattr(repro.serving, name) is getattr(module, name)


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.serving.no_such_name
    with pytest.raises(ImportError):
        from repro.serving import no_such_name  # noqa: F401


def test_from_import_of_a_submodule_yields_the_submodule():
    assert gateway is sys.modules["repro.serving.gateway"]
    assert gateway.IngestionGateway is repro.serving.IngestionGateway
