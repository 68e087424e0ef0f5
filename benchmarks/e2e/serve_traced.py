"""``repro serve`` with the benchmark's probes installed.

serve-mixed starts its server through this script instead of
``python -m repro serve``.  It runs exactly ``repro serve --port 0``,
pinned to one CPU, with a speed sampler (``yardstick.py``) and, for
``--trace 1``, the service, cache and campaign layers wrapped in spans
(``trace.py``).  Once a SIGTERM has drained the server it writes the
samples and spans to ``--out`` as JSON::

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py --out server.json --trace 1
"""

from __future__ import annotations

import argparse
import json

from trace import LAYER_PATCHES, PROBE_PATCHES, SERVICE_PATCHES, Tracer
from yardstick import Sampler, pin


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    from repro.cli import main as repro_main

    # one CPU for the event loop and the campaign executor (yardstick.py)
    pin(0)
    tracer = Tracer()
    sampler = Sampler()
    if args.trace:
        tracer.install(PROBE_PATCHES + LAYER_PATCHES + SERVICE_PATCHES)
    sampler.start()
    try:
        repro_main(["serve", "--port", "0"])
    finally:
        sampler.stop()
        tracer.uninstall()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"samples": sampler.samples,
                       "spans": [s.to_dict() for s in tracer.spans],
                       "missing": tracer.missing}, handle)


if __name__ == "__main__":
    main()
