"""High-level entry point: run one instance through the compiled stepper.

``simulate`` is the native twin of the Python event loop
``repro.schedulers.engine.simulate_kernel``: it takes the contiguous planes
of a :class:`~repro.schedulers.engine.SimWorkspace`, allocates the output
arrays, performs the single C call, and translates the returned stats
struct into the exact Python-side artefacts -- including the verbatim
failure strings and the ledger ``RuntimeError`` the Python kernels raise.

``check_schedule`` is the native half of
:func:`repro.schedulers.validation.validate_schedule`: one C call returns a
violation mask and the resident-memory peak of a finished schedule.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .abi import (
    CHECK_DEFER,
    CHECK_PEAK_ONLY,
    FAIL_DEADLOCK,
    FAIL_LEDGER,
    FAIL_NONE,
    FAIL_T0,
    MemtreeStats,
    NativeKernels,
)

_T0_FAILURE = (
    "no task can be started at t=0: "
    "the memory bound is too small for the first activations"
)


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


@dataclass(frozen=True)
class NativePlanes:
    """Contiguous int64/float64 views of one SimWorkspace, ABI-ready.

    ``address`` maps each plane's name to its raw data address, read once
    here: ``ndarray.ctypes.data`` costs ~2 µs per read, and every
    :func:`simulate` call of the workspace passes ten or so planes.
    """

    n: int
    parent: np.ndarray
    ptime: np.ndarray
    fout: np.ndarray
    mem_needed: np.ndarray
    num_children: np.ndarray
    child_offsets: np.ndarray
    child_nodes: np.ndarray
    leaves: np.ndarray
    ao_sequence: np.ndarray
    ao_rank: np.ndarray
    eo_rank: np.ndarray
    request_ao: np.ndarray
    release: np.ndarray
    address: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        address = {
            plane.name: _ptr(getattr(self, plane.name))
            for plane in fields(self)
            if plane.name not in ("n", "address")
        }
        object.__setattr__(self, "address", address)


@dataclass(frozen=True)
class NativeOutcome:
    """Everything a caller (a scheduler or the lane engine) needs."""

    start: np.ndarray
    finish: np.ndarray
    processor: np.ndarray
    clock: float
    finished: int
    num_events: int
    failure: str | None
    extras: dict[str, Any]
    peak_running: int
    blocked: bool
    memory_bound: bool
    starve_min: int
    bound_need: float


def simulate(
    kernels: NativeKernels,
    kernel_name: str,
    planes: NativePlanes,
    num_processors: int,
    memory_limit: float,
    *,
    dispatch_to_candidates: bool = True,
    starve_init: int | None = None,
) -> NativeOutcome:
    n = planes.n
    limit = float(memory_limit)
    tol = 1e-9 * max(1.0, limit)
    threshold = limit + tol
    if starve_init is None:
        starve_init = n + num_processors + 1

    start = np.empty(n, dtype=np.float64)
    finish = np.empty(n, dtype=np.float64)
    proc = np.empty(n, dtype=np.int64)
    stats = MemtreeStats()

    address = planes.address
    if kernel_name == "activation":
        rc = kernels.activation_run(
            n,
            num_processors,
            threshold,
            tol,
            address["request_ao"],
            address["ao_sequence"],
            address["eo_rank"],
            address["release"],
            address["parent"],
            address["ptime"],
            address["num_children"],
            starve_init,
            _ptr(start),
            _ptr(finish),
            _ptr(proc),
            stats,
        )
    elif kernel_name == "membooking":
        rc = kernels.membooking_run(
            n,
            num_processors,
            threshold,
            tol,
            address["parent"],
            address["fout"],
            address["mem_needed"],
            address["ptime"],
            address["child_offsets"],
            address["child_nodes"],
            address["num_children"],
            address["ao_rank"],
            address["eo_rank"],
            address["leaves"],
            len(planes.leaves),
            1 if dispatch_to_candidates else 0,
            starve_init,
            _ptr(start),
            _ptr(finish),
            _ptr(proc),
            stats,
        )
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown native kernel: {kernel_name!r}")
    if rc != 0:  # pragma: no cover - allocation failure
        raise MemoryError("native kernel scratch allocation failed")

    code = stats.failure
    if code == FAIL_LEDGER:
        raise RuntimeError(
            f"released more memory than was booked (booked={stats.ledger_value:.6g})"
        )
    failure: str | None
    if code == FAIL_NONE:
        failure = None
    elif code == FAIL_T0:
        failure = _T0_FAILURE
    elif code == FAIL_DEADLOCK:
        remaining = n - stats.finished
        failure = (
            f"deadlock at t={stats.clock:.6g}: {remaining} tasks remain "
            "but none is activated and available under the memory bound"
        )
    else:  # pragma: no cover - unknown code
        raise RuntimeError(f"native kernel returned unknown failure code {code}")

    extras: dict[str, Any] = {"peak_booked_memory": stats.peak_booked}
    if kernel_name == "activation":
        extras["activated"] = int(stats.next_activation)

    return NativeOutcome(
        start=start,
        finish=finish,
        processor=proc,
        clock=stats.clock,
        finished=int(stats.finished),
        num_events=int(stats.num_events),
        failure=failure,
        extras=extras,
        peak_running=int(stats.peak_running),
        blocked=bool(stats.blocked),
        memory_bound=bool(stats.memory_bound),
        starve_min=int(stats.starve_min),
        bound_need=float(stats.bound_need),
    )


def _plane(array: np.ndarray, dtype: type, n: int) -> np.ndarray | None:
    """``array`` as a contiguous ``dtype`` plane of length ``n``, or ``None``
    when it is not one already (the C check reads raw pointers)."""
    if array.dtype != dtype or array.shape != (n,):
        return None
    return np.ascontiguousarray(array)


def check_schedule(
    kernels: NativeKernels,
    tree: Any,
    result: Any,
    *,
    tolerance: float = 1e-6,
    peak_only: bool = False,
    memory_limit: float | None = None,
) -> tuple[int, float]:
    """Check one schedule in C: ``(violation mask, resident peak)``.

    A zero mask means the schedule is feasible and the peak equals
    ``memory_profile(tree, result).peak`` bit for bit.  Any other mask --
    including ``CHECK_DEFER`` for inputs the kernel does not decide, such as
    mistyped planes -- means "ask numpy".  ``peak_only`` skips the
    feasibility checks: a zero mask then only vouches for the peak.
    ``memory_limit`` overrides ``result.memory_limit`` as the bound of the
    memory check (``inf`` skips it).
    """
    n = tree.n
    planes = (
        _plane(tree.parent, np.int64, n),
        _plane(tree.ptime, np.float64, n),
        _plane(tree.nexec, np.float64, n),
        _plane(tree.fout, np.float64, n),
        _plane(result.start_times, np.float64, n),
        _plane(result.finish_times, np.float64, n),
        _plane(result.processor, np.int64, n),
    )
    if any(plane is None for plane in planes):
        return CHECK_DEFER, float("nan")
    parent, ptime, nexec, fout, start, finish, proc = planes
    peak = ctypes.c_double()
    mask = kernels.check_schedule(
        n,
        int(result.num_processors),
        1 if result.completed else 0,
        CHECK_PEAK_ONLY if peak_only else 0,
        float(tolerance),
        float(result.memory_limit if memory_limit is None else memory_limit),
        _ptr(parent),
        _ptr(ptime),
        _ptr(nexec),
        _ptr(fout),
        _ptr(start),
        _ptr(finish),
        _ptr(proc),
        ctypes.byref(peak),
    )
    if mask < 0:  # pragma: no cover - allocation failure
        raise MemoryError("native schedule check scratch allocation failed")
    return mask, peak.value
