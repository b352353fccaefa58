"""``nhzm`` command line with the span tracer installed (traced cold runs).

    python bench/traced_main.py <spans.json> run <scenario> [--seed N] [--out DIR]

Imports nhzm.cli as a plain ``nhzm run`` would, installs the tracer, runs
``nhzm.cli.main`` inside one item span and writes the spans, together with
the tracer's own start-up cost, to <spans.json> on exit.
"""

import sys
import time

import nhzm.cli


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    from tracer import ITEM, Tracer

    tracer = Tracer()
    tracer.install()
    startup = time.perf_counter() - t0
    try:
        with tracer.span(ITEM, item="main"):
            return nhzm.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0], startup_s=startup)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
