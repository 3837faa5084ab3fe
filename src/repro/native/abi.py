"""ctypes bindings for the compiled kernel plane (see ``kernels.c``).

The ABI is deliberately thin: every argument is a raw pointer into an
existing contiguous numpy plane (passed as the integer ``.ctypes.data``)
or a scalar, and each call simulates one full instance -- no Python is
entered per event.  The ``memtree_stats`` struct mirrors the C layout
exactly (four doubles first, then int64 fields, so there is no padding).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

from .build import ABI_VERSION, NativeBuildError

FAIL_NONE = 0
FAIL_T0 = 1
FAIL_DEADLOCK = 2
FAIL_LEDGER = 3

#: ``memtree_check_schedule`` result bits (0 = the schedule is feasible).
CHECK_DEFER = 1
CHECK_PEAK_ONLY = 1  # the flags argument: compute the peak only


class MemtreeStats(ctypes.Structure):
    _fields_ = [
        ("clock", ctypes.c_double),
        ("peak_booked", ctypes.c_double),
        ("ledger_value", ctypes.c_double),
        ("bound_need", ctypes.c_double),
        ("finished", ctypes.c_int64),
        ("num_events", ctypes.c_int64),
        ("next_activation", ctypes.c_int64),
        ("failure", ctypes.c_int64),
        ("peak_running", ctypes.c_int64),
        ("blocked", ctypes.c_int64),
        ("memory_bound", ctypes.c_int64),
        ("starve_min", ctypes.c_int64),
    ]


_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

_ACTIVATION_ARGTYPES = [
    _I64,  # n
    _I64,  # num_processors
    _F64,  # threshold
    _F64,  # tol
    _PTR,  # req_ao (f64)
    _PTR,  # ao_seq (i64)
    _PTR,  # eo_rank (i64)
    _PTR,  # release (f64)
    _PTR,  # parent (i64)
    _PTR,  # ptime (f64)
    _PTR,  # num_children (i64)
    _I64,  # starve_init
    _PTR,  # start out (f64)
    _PTR,  # finish out (f64)
    _PTR,  # proc out (i64)
    ctypes.POINTER(MemtreeStats),
]

_MEMBOOKING_ARGTYPES = [
    _I64,  # n
    _I64,  # num_processors
    _F64,  # threshold
    _F64,  # tol
    _PTR,  # parent (i64)
    _PTR,  # fout (f64)
    _PTR,  # mem_needed (f64)
    _PTR,  # ptime (f64)
    _PTR,  # child_offsets (i64)
    _PTR,  # child_nodes (i64)
    _PTR,  # num_children (i64)
    _PTR,  # ao_rank (i64)
    _PTR,  # eo_rank (i64)
    _PTR,  # leaves (i64)
    _I64,  # num_leaves
    _I64,  # dispatch_to_candidates
    _I64,  # starve_init
    _PTR,  # start out (f64)
    _PTR,  # finish out (f64)
    _PTR,  # proc out (i64)
    ctypes.POINTER(MemtreeStats),
]

_CHECK_ARGTYPES = [
    _I64,  # n
    _I64,  # num_processors
    _I64,  # completed
    _I64,  # flags
    _F64,  # tolerance
    _F64,  # memory_limit
    _PTR,  # parent (i64)
    _PTR,  # ptime (f64)
    _PTR,  # nexec (f64)
    _PTR,  # fout (f64)
    _PTR,  # start (f64)
    _PTR,  # finish (f64)
    _PTR,  # proc (i64)
    ctypes.POINTER(ctypes.c_double),  # peak out
]


@dataclass(frozen=True)
class NativeKernels:
    """Loaded shared object with typed entry points."""

    path: Path
    activation_run: ctypes._CFuncPtr  # type: ignore[name-defined]
    membooking_run: ctypes._CFuncPtr  # type: ignore[name-defined]
    check_schedule: ctypes._CFuncPtr  # type: ignore[name-defined]


def load_kernels(path: Path) -> NativeKernels:
    lib = ctypes.CDLL(str(path))
    abi = lib.memtree_abi_version
    abi.restype = ctypes.c_int64
    abi.argtypes = []
    version = abi()
    if version != ABI_VERSION:
        raise NativeBuildError(
            f"native kernel ABI mismatch: shared object reports {version}, "
            f"this build expects {ABI_VERSION}"
        )
    activation = lib.memtree_activation_run
    activation.restype = ctypes.c_int
    activation.argtypes = _ACTIVATION_ARGTYPES
    membooking = lib.memtree_membooking_run
    membooking.restype = ctypes.c_int
    membooking.argtypes = _MEMBOOKING_ARGTYPES
    check = lib.memtree_check_schedule
    check.restype = ctypes.c_int64
    check.argtypes = _CHECK_ARGTYPES
    return NativeKernels(
        path=path,
        activation_run=activation,
        membooking_run=membooking,
        check_schedule=check,
    )
