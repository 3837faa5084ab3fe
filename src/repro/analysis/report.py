"""Report rendering, baseline handling and the ``memtree lint`` entry point.

Output modes:

* human text (default): one line per finding, ``location RULE [scope]
  message``, waived/baselined findings annotated, summary line at the end;
* ``--json PATH``: machine-readable report (schema below), uploaded as a CI
  artifact;
* ``--baseline PATH``: a committed JSON file of finding fingerprints that
  are *accepted* — matching findings are reported but do not fail the run;
  ``--write-baseline`` regenerates it from the current findings.

Exit status: 0 when every finding is waived or baselined, 1 otherwise —
so CI gates on *new* findings only.

JSON schema (version 1)::

    {"version": 1, "tool": "repro.analysis", "counts": {"total": N,
     "waived": N, "baselined": N, "failing": N},
     "findings": [{"rule", "category", "path", "line", "col", "scope",
                   "message", "waived", "baselined", "fingerprint"}, ...]}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .rules import Finding, analyze_paths, apply_baseline, failing

__all__ = [
    "build_parser",
    "load_baseline",
    "main",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]

_BASELINE_VERSION = 1
_REPORT_VERSION = 1


def render_json(findings: Sequence[Finding]) -> dict:
    return {
        "version": _REPORT_VERSION,
        "tool": "repro.analysis",
        "counts": {
            "total": len(findings),
            "waived": sum(f.waived for f in findings),
            "baselined": sum(f.baselined for f in findings),
            "failing": len(failing(findings)),
        },
        "findings": [
            {
                "rule": f.rule,
                "category": f.category,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "scope": f.scope,
                "message": f.message,
                "waived": f.waived,
                "baselined": f.baselined,
                "fingerprint": f.fingerprint(),
            }
            for f in findings
        ],
    }


def render_text(findings: Sequence[Finding]) -> str:
    lines: list[str] = []
    for f in findings:
        status = ""
        if f.waived:
            status = "  [waived]"
        elif f.baselined:
            status = "  [baselined]"
        lines.append(f"{f.location()}: {f.rule} [{f.scope}] {f.message}{status}")
    new = len(failing(findings))
    lines.append(
        f"{len(findings)} finding(s): {new} new, "
        f"{sum(f.waived for f in findings)} waived, "
        f"{sum(f.baselined for f in findings)} baselined"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #
def load_baseline(path: Path) -> set[str]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("version") != _BASELINE_VERSION:
        raise ValueError(f"unsupported baseline version in {path}")
    return set(payload.get("fingerprints", []))


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Record every non-waived finding as accepted."""
    fingerprints = sorted({f.fingerprint() for f in findings if not f.waived})
    payload = {"version": _BASELINE_VERSION, "fingerprints": fingerprints}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def build_parser(prog: str = "python -m repro.analysis") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static kernel-contract analyzer: compilable-subset purity, "
            "plane dtype contracts, one-kernel anti-drift."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the installed repro package)",
    )
    parser.add_argument(
        "--json", type=Path, metavar="PATH", help="write the JSON report to PATH"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        metavar="PATH",
        help="committed baseline of accepted finding fingerprints",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate --baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only the summary line"
    )
    return parser


def run_lint(args: argparse.Namespace) -> int:
    """Shared implementation behind ``memtree lint`` and ``-m repro.analysis``."""
    if args.paths:
        paths = list(args.paths)
    else:
        import repro

        paths = [Path(repro.__file__).parent]

    findings = analyze_paths(paths)

    if args.write_baseline:
        if args.baseline is None:
            print("--write-baseline requires --baseline PATH", file=sys.stderr)
            return 2
        write_baseline(args.baseline, findings)
        print(
            f"baseline written to {args.baseline} "
            f"({sum(not f.waived for f in findings)} fingerprint(s))"
        )
        return 0

    if args.baseline is not None and Path(args.baseline).exists():
        findings = apply_baseline(findings, load_baseline(args.baseline))

    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(render_json(findings), indent=2) + "\n", encoding="utf-8"
        )

    text = render_text(findings)
    if args.quiet:
        print(text.rsplit("\n", 1)[-1])
    else:
        print(text)
    return 1 if failing(findings) else 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    return run_lint(parser.parse_args(argv))
