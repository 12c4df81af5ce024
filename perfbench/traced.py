"""Run one ``repro`` CLI command with every layer's entry points traced.

Usage: ``python3 perfbench/traced.py SPANS_JSON [repro arguments...]``

The command's stdout is the CLI's own, so the benchmark checks a traced
operation's output exactly like an untraced one.  Spans and counters
land in ``SPANS_JSON`` (see :mod:`layers`).
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    recorder = layers.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        recorder.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
