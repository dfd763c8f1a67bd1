"""Launch-to-ready probe: start like a user would, then print ``ready``.

Run as ``python3 perfbench/probe.py <kind> [args]``; the parent times
process launch to the ``ready`` line, which is the workload's set-up
time (interpreter start, imports, model load, first answer):

- ``train`` — import every layer the training workload drives;
- ``select MODEL LINEFILE`` — build a default ``SelectorServer`` over
  the model and answer the request line in LINEFILE;
- ``batch MODEL MTX`` — load the model into a ``BatchPredictor`` and
  predict the one matrix file MTX through the streaming extractor.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    kind = argv[0]
    if kind == "train":
        import repro.core.semisupervised  # noqa: F401
        import repro.core.supervised  # noqa: F401
        import repro.core.transfer  # noqa: F401
        import repro.datasets  # noqa: F401
        import repro.features.extract  # noqa: F401
        import repro.gpu  # noqa: F401
    elif kind == "select":
        from repro.serving.server import SelectorServer, ServingConfig

        server = SelectorServer(ServingConfig(model_path=argv[1]))
        with open(argv[2], encoding="utf-8") as fh:
            response = server.handle_line(fh.read())
        if response.get("status") != "ok":
            print(f"probe: first answer not ok: {response}", file=sys.stderr)
            return 1
    elif kind == "batch":
        from repro.core.deploy import FrozenSelector
        from repro.features import extract_features_streaming
        from repro.inference import BatchPredictor

        predictor = BatchPredictor(FrozenSelector.load(argv[1]))
        vec = extract_features_streaming(argv[2])
        predictor.predict_sharded(vec[None, :], jobs=1)
    else:
        print(f"probe: unknown kind {kind!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
