"""The repository benchmark: one named workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig15-native --seed 7011 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead, from a run that
alternates traced and untraced operations.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads, the metrics and
the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path


#: ``time.perf_counter()`` when this script began: set-up is timed from here.
CLOCK_ZERO = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig15-native", "fig8-orders", "heavyleaf-batched-py", "service-mix")
DEFAULT_SEEDS = {
    "fig15-native": 7011,
    "fig8-orders": 2017,
    "heavyleaf-batched-py": 4099,
    "service-mix": 7011,
}
#: How many check failures are printed in full.
SHOWN_ERRORS = 20


def _isolate(tmp: Path, native: bool) -> None:
    """Pin every environment switch that changes the program measured."""
    os.environ["REPRO_NATIVE"] = "1" if native else "0"
    os.environ["REPRO_FAULTS"] = ""
    os.environ["REPRO_NATIVE_CACHE"] = str(tmp / "native")
    os.environ["TMPDIR"] = str(tmp)
    for name in ("REPRO_WATCHDOG", "CC"):
        os.environ.pop(name, None)
    tempfile.tempdir = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its daemon is stopped and reaped
    # and its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    os.chdir(ROOT)  # run-relative paths keep the daemon's socket path short
    declared_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=runs)).relative_to(ROOT)
    try:
        _isolate(tmp.resolve(), native=args.workload != "heavyleaf-batched-py")
        sys.path.insert(0, str(ROOT / "src"))
        import repro

        if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
            raise RuntimeError(f"imported repro from {repro.__file__}, not {ROOT / 'src'}")
        if args.workload == "service-mix":
            import service_mix

            outcome = service_mix.run(
                seed, args.seconds, bool(args.trace), tmp, CLOCK_ZERO, ROOT
            )
        else:
            import sweeps

            outcome = sweeps.run(
                sweeps.WORKLOADS[args.workload], seed, args.seconds, bool(args.trace),
                tmp.resolve(), CLOCK_ZERO,
            )
    finally:
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass

    values = outcome["layers"] if args.trace else outcome["metrics"]
    if set(values) != set(units):
        raise RuntimeError(
            f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}"
        )
    errors = outcome["errors"]
    for error in errors[:SHOWN_ERRORS]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if len(errors) > SHOWN_ERRORS:
        print(f"... and {len(errors) - SHOWN_ERRORS} more", file=sys.stderr)
    print(
        f"{args.workload} seed={seed} trace={args.trace}: {outcome['attempted']} operations,"
        f" {outcome['failed']} failed, {outcome['samples']} timed samples"
    )
    for name in units:
        print(f"  {name:<34} {values[name]:>14.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
