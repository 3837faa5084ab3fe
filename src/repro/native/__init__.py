"""Native kernel plane: compiled C twins of the ``@hot_kernel`` loops.

Mode resolution (checked at every acquisition, so tests can flip the
environment freely):

- ``REPRO_NATIVE=0``  -> OFF: never build or load, pure Python only.
- ``REPRO_NATIVE=1``  -> REQUIRED: build/load, raise on any failure
  (CI uses this to forbid silent fallbacks).
- unset / other      -> AUTO: try once per process, fall back silently
  to the Python kernels if no compiler is available.

Explicit per-call selection (``SweepConfig.native``, ``--native`` /
``--no-native``, ``scheduler.native``) overrides the environment: True
behaves like REQUIRED, False like OFF, None defers to the environment.
"""

from __future__ import annotations

import os

from .abi import NativeKernels, load_kernels
from .build import NativeBuildError, build_library
from .api import NativeOutcome, NativePlanes, check_schedule, simulate

__all__ = [
    "NativeBuildError",
    "NativeKernels",
    "NativeOutcome",
    "NativePlanes",
    "NativeUnavailableError",
    "check_schedule",
    "native_kernels",
    "reset_native_cache",
    "simulate",
]


class NativeUnavailableError(RuntimeError):
    """Native kernels were explicitly required but could not be loaded."""


# Process-wide load state: None = not attempted, False = attempted and
# failed (AUTO mode caches the failure), NativeKernels = loaded.
_LOADED: NativeKernels | None | bool = None


def reset_native_cache() -> None:
    """Forget the process-wide load state (test helper)."""

    global _LOADED
    _LOADED = None


def _load() -> NativeKernels:
    global _LOADED
    if isinstance(_LOADED, NativeKernels):
        return _LOADED
    kernels = load_kernels(build_library())
    _LOADED = kernels
    return kernels


def native_kernels(explicit: bool | None = None) -> NativeKernels | None:
    """Resolve the native mode and return loaded kernels, or ``None``.

    ``explicit`` is the per-call override (config/CLI/scheduler attribute);
    ``None`` defers to ``REPRO_NATIVE``.  Returns ``None`` when native is
    off or (in AUTO mode) unavailable; raises
    :class:`NativeUnavailableError` when required but broken.
    """

    global _LOADED
    mode = explicit
    if mode is None:
        env = os.environ.get("REPRO_NATIVE")
        if env == "0":
            return None
        if env == "1":
            mode = True
    if mode is False:
        return None
    if mode is True:
        try:
            return _load()
        except (NativeBuildError, OSError) as exc:
            raise NativeUnavailableError(
                f"native kernels required (REPRO_NATIVE=1 or --native) but "
                f"unavailable: {exc}"
            ) from exc
    # AUTO: try once, remember a failure for the rest of the process.
    if _LOADED is False:
        return None
    try:
        return _load()
    except (NativeBuildError, OSError):
        _LOADED = False
        # The bottom rung of the kernel ladder: AUTO quietly continues on
        # the pure-Python kernels, but the health ledger records the drop.
        from ..resilience.health import current_health

        current_health().record_degradation("native->python")
        return None
