"""Compile-on-first-use build driver for the native kernel plane.

Cython/numba are not part of the toolchain, but a platform C compiler
usually is.  This module compiles the bundled ``kernels.c`` into a shared
object in a content-addressed cache directory: the cache key is the SHA-256
of (ABI version, compiler flags, source text), so editing the source --
or shipping a new release -- transparently rebuilds, while warm starts are
a single ``dlopen``.

No state is kept here beyond the cache directory; mode selection (OFF /
AUTO / REQUIRED) and the loaded-library singleton live in
:mod:`repro.native`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

#: Bumped whenever the C <-> Python struct/signature contract changes; part
#: of the cache key so stale shared objects can never be loaded.
ABI_VERSION = 2

#: Flags are part of the bit-identity contract: -ffp-contract=off forbids
#: fused multiply-adds so every double op matches CPython's, and there is
#: deliberately no -ffast-math.
CFLAGS = ("-O2", "-fPIC", "-shared", "-std=c11", "-ffp-contract=off")

SOURCE_PATH = Path(__file__).with_name("kernels.c")


class NativeBuildError(RuntimeError):
    """Raised when the shared object cannot be produced (no compiler, or
    the compiler exited nonzero).  Carries the compiler stderr when any."""


def cache_directory() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "memtree-native"


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        found = shutil.which(cc)
        if found:
            return found
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def source_digest(source: str) -> str:
    payload = "\x00".join((str(ABI_VERSION), " ".join(CFLAGS), source))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_library(source: str | None = None, cache_dir: Path | None = None) -> Path:
    """Return the path of the compiled shared object, building if needed.

    ``source``/``cache_dir`` exist for tests; production callers pass
    nothing and get the bundled source in the user cache directory.
    """

    from ..resilience.faults import resolve_fault_plan

    plan = resolve_fault_plan(None)
    if plan is not None:
        # Before the cache short-circuit: an armed ``native-build`` fault
        # must fail the build even when a compiled object already exists.
        plan.maybe_raise("native-build", "build", exc=NativeBuildError)
    if source is None:
        try:
            source = SOURCE_PATH.read_text(encoding="utf-8")
        except OSError as exc:  # source not shipped (broken install)
            raise NativeBuildError(f"native kernel source unavailable: {exc}") from exc
    directory = cache_dir if cache_dir is not None else cache_directory()
    digest = source_digest(source)
    target = directory / f"memtree_{digest[:16]}.so"
    if target.exists():
        return target

    compiler = _find_compiler()
    if compiler is None:
        raise NativeBuildError("no C compiler found (tried $CC, cc, gcc, clang)")

    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        c_path = Path(tmp) / "kernels.c"
        so_path = Path(tmp) / target.name
        c_path.write_text(source, encoding="utf-8")
        command = [compiler, *CFLAGS, str(c_path), "-o", str(so_path), "-lm"]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            raise NativeBuildError(
                f"native kernel build failed ({compiler} exited "
                f"{proc.returncode}):\n{proc.stderr.strip()}"
            )
        # Atomic publish: concurrent builders race benignly to the same name.
        os.replace(so_path, target)
    return target
