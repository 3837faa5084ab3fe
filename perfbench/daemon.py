"""Launch ``memtree serve`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/daemon.py [--spans-out FILE] serve ARGS...``

Without ``--spans-out`` this is exactly ``memtree serve ARGS...``.  With
it, the same span wrappers as the benchmark's traced mode are installed
first (plus the daemon-side request, encode and row-store wrappers), and
the spans are written to ``FILE`` as JSON when the daemon exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main as memtree

    if spans_out is None:
        return memtree(argv)
    from spans import Recorder, install

    recorder = Recorder()
    install(recorder, service=True)
    try:
        return memtree(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
