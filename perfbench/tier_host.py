"""Host the serving tier's front-end in its own process, with one worker.

    python3 perfbench/tier_host.py MODEL SOCKET RUN_DIR [--telemetry off]

Builds the same ``ServingTier`` that ``repro serve --workers N`` builds,
pinned to one worker (no autoscaling), and serves it on the Unix socket
until a ``shutdown`` request drains it.  Like ``repro serve``, the
front-end runs with telemetry on by default; ``--telemetry off`` is for
the untraced end-to-end run and the tracing-overhead comparison.  The
worker, a ``repro serve`` process, keeps its telemetry on either way.
"""

from __future__ import annotations

import argparse
import asyncio
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("model")
    parser.add_argument("socket")
    parser.add_argument("run_dir")
    parser.add_argument("--telemetry", choices=("on", "off"), default="on")
    args = parser.parse_args(argv)

    from repro.obs import TELEMETRY
    from repro.serving import ServingTier, TierConfig

    if args.telemetry == "on":
        TELEMETRY.reset()
        TELEMETRY.enable()
    tier = ServingTier(
        TierConfig(model_path=args.model, run_dir=args.run_dir, workers=1)
    )
    return asyncio.run(tier.run_socket(args.socket))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
