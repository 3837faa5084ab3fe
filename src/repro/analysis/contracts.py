"""Declarative contract registry for the static analyzer.

Everything the rule families check against lives here as plain data, so the
repo's architecture rules are written down exactly once and the analyzer
stays a mechanical cross-checker:

* the **compilable-subset** bans of the kernel-purity family (which NumPy
  constructors count as allocations, which dtypes are object-like);
* the **plane dtype contracts**: the 21-field :data:`RECORD_FIELD_CONTRACT`
  mirrored from ``experiments/records.py``, the workspace plane columns of
  ``batch/planes.py``, the arena plane dtype set of ``core/tree_store.py``,
  and the named array/keyword dtype contracts of the engine module;
* the **anti-drift** configuration: which modules are scanned, which
  variable names are protected state planes.

``schedulers/reference.py`` is deliberately absent everywhere: it is the
frozen pre-array generation kept verbatim as the parity oracle, and must
never be edited to satisfy a lint rule.
"""

from __future__ import annotations

__all__ = [
    "ALLOCATING_CONSTRUCTORS",
    "ARENA_PLANE_DTYPES",
    "CALL_KEYWORD_DTYPES",
    "DRIFT_MODULE_SUFFIXES",
    "NAMED_ARRAY_DTYPES",
    "OBJECT_DTYPE_NAMES",
    "RECORD_FIELD_CONTRACT",
    "STATE_PLANE_NAMES",
    "WAIVER_PREFIX",
    "WAIVER_TOKENS",
    "WORKSPACE_PLANE_DTYPES",
]

# --------------------------------------------------------------------------- #
# kernel purity (rules KP1xx)
# --------------------------------------------------------------------------- #

#: NumPy namespace calls that allocate a fresh array.  Inside a kernel's
#: loop body these are findings (rule KP106): the compiled port pre-allocates
#: every buffer, so a hot-loop allocation is a porting hazard *and* a CPython
#: performance bug.  Reductions/ufuncs with ``out=`` are deliberately not
#: listed.
ALLOCATING_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "empty",
        "empty_like",
        "zeros",
        "zeros_like",
        "ones",
        "ones_like",
        "full",
        "full_like",
        "array",
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "arange",
        "linspace",
        "frombuffer",
        "fromiter",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "tile",
        "repeat",
    }
)

#: dtype spellings that make an array object-dtyped (rule KP102: object
#: arrays are uncompilable and box every element).
OBJECT_DTYPE_NAMES: frozenset[str] = frozenset({"object", "object_", "O"})

#: ``# kernel-ok: <token>`` waiver tokens, one per rule.  The rule id itself
#: is always accepted too.
WAIVER_PREFIX = "kernel-ok:"
WAIVER_TOKENS: dict[str, str] = {
    "KP101": "dict-state",
    "KP102": "object-dtype",
    "KP103": "try",
    "KP104": "generator",
    "KP105": "kwargs",
    "KP106": "loop-alloc",
    "KP107": "closure",
    "AD301": "plane-mutation",
}

# --------------------------------------------------------------------------- #
# plane dtype contracts (rules PC2xx)
# --------------------------------------------------------------------------- #

#: The fixed sweep-record schema of
#: :data:`repro.experiments.records.RECORD_FIELDS`, duplicated declaratively
#: as ``(name, dtype, nullable, encoding)``.  Rule PC201 statically parses
#: the ``RECORD_FIELDS`` literal and diffs it against this table, so editing
#: the schema without updating the contract (or vice versa) fails lint —
#: before any fuzz or cache-key machinery notices.
RECORD_FIELD_CONTRACT: tuple[tuple[str, str, bool, "str | None"], ...] = (
    ("tree_index", "<i8", False, None),
    ("tree_size", "<i8", False, None),
    ("tree_height", "<i8", False, None),
    ("scheduler", "<U24", False, None),
    ("num_processors", "<i8", False, None),
    ("memory_factor", "<f8", False, None),
    ("memory_limit", "<f8", False, None),
    ("minimum_memory", "<f8", False, None),
    ("completed", "|b1", False, None),
    ("makespan", "<f8", False, None),
    ("lower_bound", "<f8", False, None),
    ("classical_lower_bound", "<f8", False, None),
    ("memory_lower_bound", "<f8", False, None),
    ("normalized_makespan", "<f8", False, None),
    ("peak_memory", "<f8", False, None),
    ("memory_fraction", "<f8", False, None),
    ("scheduling_seconds", "<f8", False, None),
    ("scheduling_seconds_per_node", "<f8", False, None),
    ("activation_order", "<U16", False, None),
    ("execution_order", "<U16", False, None),
    ("failure_reason", "<i4", True, "dict"),
)

#: The arena-resident workspace plane columns of
#: :data:`repro.batch.planes.WORKSPACE_PLANE_NAMES` with their dtypes.
#: Rule PC205 diffs the names tuple literal against these keys; PC202/PC203
#: check every ``planes["ws:..."].append(np.asarray(..., dtype=...))`` site.
WORKSPACE_PLANE_DTYPES: dict[str, str] = {
    "ws:child_offsets": "int64",
    "ws:child_nodes": "int64",
    "ws:ao_sequence": "int64",
    "ws:ao_rank": "int64",
    "ws:eo_sequence": "int64",
    "ws:eo_rank": "int64",
    "ws:request_ao": "float64",
    "ws:release": "float64",
    "ws:scalars": "float64",
}

#: dtype strings the TreeStore arena accepts for plane columns; rule PC206
#: pins the ``_PLANE_DTYPES`` literal of ``core/tree_store.py`` to this set
#: (8-byte scalars keep every arena section aligned without padding).
ARENA_PLANE_DTYPES: frozenset[str] = frozenset({"<i8", "<f8"})

#: Named-array dtype contracts: ``module suffix -> {target name -> dtype}``.
#: A *target name* is the variable, ``self``-attribute or attribute being
#: assigned an ``np.<constructor>`` call (or ``.astype`` result).  Rules
#: PC202 (dtype mismatch) and PC203 (registered target built without an
#: explicit dtype) fire on these; unregistered names are never checked, so
#: the registry only pins the planes whose layout other code relies on.
NAMED_ARRAY_DTYPES: dict[str, dict[str, str]] = {
    "schedulers/engine.py": {
        "block": "float64",  # the SimWorkspace request/release scratch block
        "_block": "float64",
        "children_fout": "float64",
        "offsets": "int64",  # children CSR offsets adopted in from_planes
        "request": "float64",
    },
    "core/tree_store.py": {
        "offsets": "int64",  # per-tree node offsets (prefix sums)
        "sizes": "int64",
        "off_view": "int64",
    },
    "experiments/plan.py": {
        "tree_index": "int64",  # the SweepPlan instance-grid planes
        "scheduler_code": "int64",
        "ao_code": "int64",
        "eo_code": "int64",
        "processors": "int64",
        "memory_factor": "float64",
        "global_index": "int64",
    },
    "experiments/backends.py": {
        "seen": "bool",  # instance-coverage bitmap of the keyed merges
    },
}

#: Call-keyword dtype contracts: ``module suffix -> {(callee, keyword) ->
#: dtype}`` — the schedule planes every consumer (validation, records,
#: batch collapse) indexes by dtype.  The Python event loop builds them in
#: the ``NativeOutcome`` it returns, which becomes the ``ScheduleResult``.
CALL_KEYWORD_DTYPES: dict[str, dict[tuple[str, str], str]] = {
    "schedulers/engine.py": {
        ("NativeOutcome", "start"): "float64",
        ("NativeOutcome", "finish"): "float64",
        ("NativeOutcome", "processor"): "int64",
    },
}

# --------------------------------------------------------------------------- #
# anti-drift (rule AD301)
# --------------------------------------------------------------------------- #

#: Modules whose state-plane mutations are policed.  ``reference.py`` is the
#: frozen oracle (never edited, never registered); everything else that
#: touches the heuristic state planes must route mutations through the
#: registered kernels / plane mutators.
DRIFT_MODULE_SUFFIXES: tuple[str, ...] = (
    "schedulers/engine.py",
    "schedulers/activation.py",
    "schedulers/membooking.py",
    "schedulers/membooking_redtree.py",
    "schedulers/list_scheduler.py",
    "batch/lanes.py",
)

#: Protected state-plane variable names (bare locals/params and
#: ``self``-attributes alike).  Subscript stores and augmented subscript
#: stores on these outside a registered kernel / plane mutator are AD301
#: findings: a second implementation of the transition rules is exactly the
#: drift that one kernel class per heuristic exists to prevent.
STATE_PLANE_NAMES: frozenset[str] = frozenset(
    {
        "activated",
        "_activated",
        "ch_not_fin",
        "_ch_not_fin",
        "ch_not_act",
        "_ch_not_act",
        "booked",
        "_booked",
        "bbs",
        "_bbs",
        "state",
        "_state",
    }
)
