"""``memtree`` command line interface.

Eight sub-commands cover the typical workflows of the library:

``memtree generate``
    Generate a dataset (synthetic trees or the assembly-tree surrogate) and
    save it to a directory of JSON files.
``memtree info``
    Print the structural statistics of a tree file (or of every tree of a
    dataset directory).
``memtree schedule``
    Schedule one tree file — or sweep a whole dataset directory — with a
    chosen heuristic, memory factor and processor count, and print the
    outcome.  On a directory, ``--jobs N`` fans the instances out over
    ``N`` worker processes (per-tree orders and minimum memory are computed
    once per tree, and the rows come back in deterministic dataset order).
``memtree lint``
    Run the static kernel-contract analyzer (:mod:`repro.analysis`) over the
    package (or given paths): compilable-subset purity of the registered hot
    kernels, plane dtype contracts, and the one-kernel anti-drift rule.
    Exits nonzero on findings that are neither waived in source
    (``# kernel-ok: <rule>``) nor recorded in a committed baseline.
``memtree figure``
    Reproduce one of the paper's figures/tables and print its series, with
    an optional CSV export.  ``--jobs N`` parallelises the underlying sweep
    without changing the reported series; ``--cache-dir DIR`` keeps a
    persistent result cache (saved
    :class:`~repro.experiments.records.RecordTable` files keyed by dataset
    and sweep config), so re-running a figure at the same scale loads the
    recorded results instead of re-simulating; ``--workload-cache-dir DIR``
    does the same for the *generated datasets* (packed
    :class:`~repro.core.tree_store.TreeStore` arenas keyed by dataset,
    scale, seed and generator version, mmap-loaded as zero-copy views);
    ``--dry-run`` prints the figure's assembled
    :class:`~repro.experiments.plan.SweepPlan` (instance count, predicted
    cache hits, lane groups) without simulating anything.
``memtree suite``
    Run the whole evaluation suite (every figure, or ``--figures`` for a
    subset) and write per-figure text/CSV files plus ``summary.md`` and
    ``plan-stats.json``; overlapping figures share simulations through the
    instance-level result cache, and ``--dry-run`` prints the concatenated
    deduplicated plan.
``memtree serve``
    Run the resident scheduler service (:mod:`repro.service`): datasets
    loaded once into memory, per-tree contexts and caches kept warm, and
    ``schedule``/``sweep``/``status``/``load``/``evict`` queries answered
    over an ``AF_UNIX`` socket (``--socket PATH``) or localhost TCP
    (``--port N``).  Shuts down cleanly (exit 0) on SIGTERM/SIGINT.
``memtree client``
    Query a running daemon: ``ping``, ``status``, ``load``, ``evict``,
    ``sweep`` and ``shutdown`` actions.  ``memtree schedule --via ADDRESS``
    routes a single-tree schedule through the daemon the same way.

Both sweep commands take ``--backend`` to pick the execution strategy:
``serial``; ``shared-memory``, the worker pool, which packs the dataset
into a :class:`~repro.core.tree_store.TreeStore` arena shipped once through
:mod:`multiprocessing.shared_memory` and schedules at instance granularity,
so a few huge trees still saturate every worker; or ``batched``, the lane
engine of :mod:`repro.batch`: all instances of one tree are resolved
together in-process, with provably identical lanes collapsed to a single
simulation.  The default ``auto`` runs serial for ``--jobs 1`` and the
shared-memory pool otherwise; the records are identical for every backend.

Examples
--------
::

    memtree generate synthetic --num-trees 5 --num-nodes 1000 --out trees/
    memtree info trees/tree_00000.json
    memtree schedule trees/tree_00000.json --scheduler MemBooking \\
            --processors 8 --memory-factor 2
    memtree schedule trees/ --scheduler MemBooking --memory-factor 2 --jobs 4
    memtree figure fig10 --scale tiny --jobs 4
    memtree lint --json lint-report.json
    memtree figure fig15 --scale tiny --jobs 2 --backend shared-memory
    memtree figure fig10 --scale tiny --dry-run
    memtree suite --scale tiny --out results/ --dry-run
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .core import load_dataset, load_json, save_dataset, tree_stats
from .core.task_tree import TaskTree
from .experiments import (
    FIGURE_SPECS,
    FIGURES,
    InMemoryRowCache,
    ResultCache,
    RunContext,
    SweepConfig,
    backends as _backends,
    format_plan_report,
    plan_report,
    run_figure,
    run_sweep,
    write_series_csv,
)
from .orders import ORDER_FACTORIES, minimum_memory_postorder, sequential_peak_memory
from .schedulers import SCHEDULER_FACTORIES
from .workloads import WorkloadCache, assembly_dataset, heavyleaf_dataset, synthetic_dataset

__all__ = ["main", "build_parser"]


def _jobs_count(value: str) -> int:
    """argparse type for ``--jobs``: a non-negative int (0 = one per CPU)."""
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 means one worker per CPU)")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of the ``memtree`` command."""
    parser = argparse.ArgumentParser(
        prog="memtree",
        description="Dynamic memory-aware task-tree scheduling (IPDPS 2017 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"memtree {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a tree dataset")
    generate.add_argument("kind", choices=["synthetic", "assembly", "heavyleaf"])
    generate.add_argument("--out", type=Path, required=True, help="output directory")
    generate.add_argument("--scale", default="small", help="dataset scale (tiny/small/medium/large)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--num-trees", type=int, default=None, help="synthetic only")
    generate.add_argument("--num-nodes", type=int, default=None, help="synthetic only")

    info = subparsers.add_parser("info", help="print tree statistics")
    info.add_argument("path", type=Path, help="a tree JSON file or a dataset directory")

    schedule = subparsers.add_parser(
        "schedule", help="schedule one tree file or sweep a dataset directory"
    )
    schedule.add_argument("path", type=Path, help="tree JSON file or dataset directory")
    schedule.add_argument(
        "--scheduler", default="MemBooking", choices=sorted(SCHEDULER_FACTORIES)
    )
    schedule.add_argument("--processors", type=int, default=8)
    schedule.add_argument(
        "--memory-factor",
        type=float,
        default=2.0,
        help="memory bound as a multiple of the minimum sequential memory",
    )
    schedule.add_argument(
        "--memory", type=float, default=None, help="absolute memory bound (overrides the factor)"
    )
    schedule.add_argument("--ao", default="memPO", choices=sorted(ORDER_FACTORIES))
    schedule.add_argument("--eo", default="memPO", choices=sorted(ORDER_FACTORIES))
    schedule.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="worker processes when PATH is a dataset directory (0 = one per CPU)",
    )
    schedule.add_argument(
        "--backend",
        choices=sorted(_backends.BACKEND_NAMES),
        default="auto",
        help="sweep execution backend for dataset directories "
        "(shared-memory = ship the dataset once as a zero-copy arena; "
        "batched = lane-batched in-process stepper)",
    )
    schedule.add_argument(
        "--json",
        action="store_true",
        help="print the full schedule record as machine-readable JSON "
        "(single tree files; same serializer as the service wire)",
    )
    schedule.add_argument(
        "--via",
        default=None,
        metavar="ADDRESS",
        help="route the query through a running memtree serve daemon "
        "(socket path or host:port) instead of simulating in-process",
    )
    _add_native_flags(schedule)

    from .analysis.report import build_parser as _lint_parser  # local: keep CLI import light

    lint = subparsers.add_parser(
        "lint",
        parents=[_lint_parser()],
        add_help=False,
        help="run the static kernel-contract analyzer",
    )
    del lint

    figure = subparsers.add_parser("figure", help="reproduce a figure of the paper")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument("--scale", default="small")
    figure.add_argument("--csv", type=Path, default=None, help="write the series to a CSV file")
    figure.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="worker processes for the figure's sweep (0 = one per CPU, default 1)",
    )
    figure.add_argument(
        "--backend",
        choices=sorted(_backends.BACKEND_NAMES),
        default="auto",
        help="sweep execution backend (shared-memory = zero-copy arena transfer "
        "+ instance-granularity scheduling; batched = lane-batched in-process "
        "stepper with provable lane collapse)",
    )
    figure.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent result-cache directory: sweeps already recorded there "
        "are loaded instead of re-simulated",
    )
    figure.add_argument(
        "--workload-cache-dir",
        type=Path,
        default=None,
        help="persistent workload-cache directory: generated datasets are saved "
        "once as TreeStore arenas and mmap-loaded on later runs",
    )
    figure.add_argument(
        "--no-workload-cache",
        action="store_true",
        help="ignore --workload-cache-dir and always regenerate the datasets",
    )
    figure.add_argument(
        "--dry-run",
        action="store_true",
        help="print the figure's assembled sweep plan (instance count, "
        "predicted cache hits, lane groups) and exit without simulating",
    )
    figure.add_argument(
        "--json",
        action="store_true",
        help="with --dry-run: print the plan report as machine-readable "
        "JSON (same serializer as the service wire)",
    )
    figure.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan spec, e.g. "
        '"seed=7;worker-crash:40;watchdog=5" (default: the REPRO_FAULTS '
        "environment variable; see repro.resilience)",
    )
    _add_native_flags(figure)

    from .experiments.suite import add_suite_arguments  # local: keep CLI import light

    suite = subparsers.add_parser(
        "suite",
        help="run the whole evaluation suite (all figures) and write a report",
    )
    add_suite_arguments(suite)

    serve = subparsers.add_parser(
        "serve", help="run the resident scheduler service daemon"
    )
    serve.add_argument(
        "--socket", type=Path, default=None, help="AF_UNIX socket path to bind"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port to bind on --host (0 = pick an ephemeral port)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host (with --port)")
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent result-cache directory shared by every sweep request "
        "(default: a per-daemon in-memory row cache)",
    )
    serve.add_argument(
        "--workload-cache-dir",
        type=Path,
        default=None,
        help="persistent workload-cache directory: loaded datasets are saved "
        "once as TreeStore arenas and mmap-loaded on later daemon starts",
    )
    serve.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="KIND:SCALE[:SEED]",
        help="preload a dataset at startup, e.g. synthetic:tiny (repeatable; "
        "default seed: the dataset kind's canonical seed)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        help="seconds a connection may sit silent before it is dropped",
    )
    _add_native_flags(serve)

    client = subparsers.add_parser(
        "client", help="query a running memtree serve daemon"
    )
    client.add_argument("address", help="daemon address: socket path or host:port")
    client.add_argument(
        "action", choices=["ping", "status", "load", "evict", "sweep", "shutdown"]
    )
    client.add_argument(
        "--kind",
        default=None,
        choices=["synthetic", "assembly", "heavyleaf", "height"],
        help="dataset kind (load)",
    )
    client.add_argument("--scale", default="tiny", help="dataset scale (load)")
    client.add_argument("--seed", type=int, default=None, help="dataset seed (load)")
    client.add_argument("--name", default=None, help="dataset name (load/evict)")
    client.add_argument("--dataset", default=None, help="resident dataset name (sweep)")
    client.add_argument(
        "--schedulers",
        default="MemBooking",
        help="comma-separated scheduler list (sweep)",
    )
    client.add_argument(
        "--processors", default="8", help="comma-separated processor counts (sweep)"
    )
    client.add_argument(
        "--memory-factors",
        default="2.0",
        help="comma-separated memory factors (sweep)",
    )
    client.add_argument(
        "--rows",
        default=None,
        help="plan-row subset for sweep, e.g. 0-15 or 0,3,9 (default: full plan)",
    )
    client.add_argument("--ao", default="memPO", choices=sorted(ORDER_FACTORIES))
    client.add_argument("--eo", default="memPO", choices=sorted(ORDER_FACTORIES))
    client.add_argument(
        "--json",
        action="store_true",
        help="print sweep records as JSON instead of the summary table",
    )

    return parser


def _add_native_flags(subparser: argparse.ArgumentParser) -> None:
    """Paired --native/--no-native flags (tri-state, default: REPRO_NATIVE)."""
    subparser.add_argument(
        "--native",
        action="store_true",
        dest="native",
        default=None,
        help="require the compiled C kernels (repro.native; error if they "
        "cannot be built)",
    )
    subparser.add_argument(
        "--no-native",
        action="store_false",
        dest="native",
        help="force the pure-Python kernels (default: the REPRO_NATIVE "
        "environment switch; unset = auto with silent fallback)",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        kwargs = {}
        if args.num_trees is not None:
            kwargs["num_trees"] = args.num_trees
        if args.num_nodes is not None:
            kwargs["num_nodes"] = args.num_nodes
        trees, spec = synthetic_dataset(args.scale, seed=args.seed, **kwargs)
    elif args.kind == "heavyleaf":
        trees, spec = heavyleaf_dataset(args.scale, seed=args.seed)
    else:
        trees, spec = assembly_dataset(args.scale, seed=args.seed)
    save_dataset(
        trees,
        args.out,
        name=spec.name,
        metadata={"scale": spec.scale, "seed": spec.seed},
    )
    print(f"wrote {len(trees)} trees to {args.out}")
    return 0


def _iter_trees(path: Path):
    if path.is_dir():
        for tree in load_dataset(path):
            yield tree
    else:
        yield load_json(path)


def _cmd_info(args: argparse.Namespace) -> int:
    for tree in _iter_trees(args.path):
        stats = tree_stats(tree)
        order = minimum_memory_postorder(tree)
        minimum = sequential_peak_memory(tree, order)
        print(
            f"n={stats.n} height={stats.height} leaves={stats.num_leaves} "
            f"max_degree={stats.max_degree} total_work={stats.total_work:.4g} "
            f"critical_path={stats.critical_path:.4g} min_memory={minimum:.4g}"
        )
    return 0


def _cmd_schedule_dataset(args: argparse.Namespace) -> int:
    """Sweep every tree of a dataset directory (parallel with ``--jobs``)."""
    if args.memory is not None:
        raise SystemExit("--memory applies to a single tree; use --memory-factor on datasets")
    trees = list(load_dataset(args.path))
    if not trees:
        raise SystemExit(f"no trees found in {args.path}")
    config = SweepConfig(
        schedulers=(args.scheduler,),
        memory_factors=(args.memory_factor,),
        processors=(args.processors,),
        activation_order=args.ao,
        execution_order=args.eo,
        jobs=args.jobs,
        backend=args.backend,
        native=args.native,
    )
    records = run_sweep(trees, config)
    print(
        f"{'tree':>5} {'n':>7} {'makespan':>12} {'norm.':>7} {'peak mem':>12} "
        f"{'sched ms':>9}  status"
    )
    for record in records:
        status = "ok" if record["completed"] else f"FAILED ({record['failure_reason']})"
        print(
            f"{record['tree_index']:>5} {record['tree_size']:>7} "
            f"{record['makespan']:>12.6g} {record['normalized_makespan']:>7.3f} "
            f"{record['peak_memory']:>12.6g} {record['scheduling_seconds'] * 1e3:>9.2f}  {status}"
        )
    failures = sum(1 for record in records if not record["completed"])
    print(
        f"{len(records)} trees, {len(records) - failures} completed, {failures} failed "
        f"(scheduler={args.scheduler}, factor={args.memory_factor}, "
        f"p={args.processors}, jobs={args.jobs})"
    )
    return 1 if failures else 0


def _schedule_request(args: argparse.Namespace, tree: TaskTree) -> dict:
    """The service-protocol ``schedule`` request the CLI args describe.

    The in-process path and ``--via`` hand the *same* request to the same
    handler (:meth:`repro.service.server.SchedulerService.schedule_record`),
    so local and remote answers cannot drift.
    """
    from .core.tree_io import to_dict

    request: dict = {
        "tree": to_dict(tree),
        "scheduler": args.scheduler,
        "processors": args.processors,
        "ao": args.ao,
        "eo": args.eo,
    }
    if args.memory is not None:
        request["memory"] = args.memory
    else:
        request["memory_factor"] = args.memory_factor
    if args.native is not None:
        request["native"] = args.native
    return request


def _print_schedule_record(record: dict) -> None:
    """The human-readable rendering of one schedule record."""
    memory = record["memory_limit"]
    print(f"scheduler          : {record['scheduler']}")
    print(f"tree size          : {record['tree_size']}")
    print(f"processors         : {record['num_processors']}")
    print(
        f"memory bound       : {memory:.6g} "
        f"({memory / record['minimum_memory']:.2f} x minimum)"
    )
    if record["completed"]:
        print(f"makespan           : {record['makespan']:.6g}")
        print(f"peak memory        : {record['peak_memory']:.6g}")
        print(f"memory utilisation : {record['peak_memory'] / memory:.1%}")
        print(f"scheduling time    : {record['scheduling_seconds'] * 1e3:.2f} ms")
    else:
        print(f"FAILED             : {record['failure_reason']}")


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.path.is_dir():
        if args.via is not None:
            raise SystemExit("--via routes single tree files; sweep datasets locally")
        return _cmd_schedule_dataset(args)
    tree: TaskTree = load_json(args.path)
    request = _schedule_request(args, tree)
    if args.via is not None:
        from .service import ServiceClient

        with ServiceClient(args.via) as service_client:
            record = service_client.schedule(**request)
    else:
        from .service import SchedulerService

        record = SchedulerService(native=args.native).schedule_record(request)
    if args.json:
        from .service.protocol import payload_text

        print(payload_text(record))
    else:
        _print_schedule_record(record)
    return 0 if record["completed"] else 1


def _parse_plan_rows(spec: str) -> list[int]:
    """``"0,3,5-9"`` -> ``[0, 3, 5, 6, 7, 8, 9]`` (ranges inclusive)."""
    rows: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            start, _, stop = part.partition("-")
            rows.extend(range(int(start), int(stop) + 1))
        else:
            rows.append(int(part))
    return rows


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import SchedulerDaemon, SchedulerService

    if (args.socket is None) == (args.port is None):
        raise SystemExit("serve needs exactly one of --socket PATH or --port N")
    service = SchedulerService(
        cache_dir=args.cache_dir,
        workload_cache_dir=args.workload_cache_dir,
        native=args.native,
    )
    for spec in args.load:
        kind, _, rest = spec.partition(":")
        scale, _, seed = rest.partition(":")
        name, _ = service.load_dataset(
            kind, scale or "tiny", int(seed) if seed else None
        )
        print(f"loaded {name}: {len(service.datasets[name].trees)} trees")
    daemon = SchedulerDaemon(
        service,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
    )
    daemon.start()
    print(f"memtree service listening on {daemon.address}", flush=True)
    if threading.current_thread() is threading.main_thread():
        # SIGTERM/SIGINT both mean "shut down cleanly, exit 0" for a daemon.
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: daemon.request_stop())
    daemon.serve_forever()
    print("memtree service shut down cleanly")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .service import RemoteError, ServiceClient
    from .service.protocol import ProtocolError, payload_text

    try:
        with ServiceClient(args.address) as service_client:
            if args.action == "ping":
                print(payload_text(service_client.ping()))
            elif args.action == "status":
                print(payload_text(service_client.status()))
            elif args.action == "shutdown":
                print(payload_text(service_client.shutdown_server()))
            elif args.action == "load":
                if args.kind is None:
                    raise SystemExit("client load needs --kind")
                print(
                    payload_text(
                        service_client.load(
                            args.kind, args.scale, seed=args.seed, name=args.name
                        )
                    )
                )
            elif args.action == "evict":
                if args.name is None:
                    raise SystemExit("client evict needs --name")
                print(payload_text(service_client.evict(args.name)))
            else:  # sweep
                if args.dataset is None:
                    raise SystemExit("client sweep needs --dataset")
                records, stats = service_client.sweep(
                    args.dataset,
                    schedulers=[s for s in args.schedulers.split(",") if s],
                    processors=[int(p) for p in args.processors.split(",") if p],
                    memory_factors=[
                        float(f) for f in args.memory_factors.split(",") if f
                    ],
                    rows=_parse_plan_rows(args.rows) if args.rows else None,
                    ao=args.ao,
                    eo=args.eo,
                )
                if args.json:
                    print(payload_text({"records": records, "stats": stats}))
                else:
                    for record in records:
                        status = (
                            "ok"
                            if record["completed"]
                            else f"FAILED ({record['failure_reason']})"
                        )
                        print(
                            f"tree {record['tree_index']:>4} "
                            f"{record['scheduler']:>16} p={record['num_processors']:<3} "
                            f"f={record['memory_factor']:<5g} "
                            f"makespan={record['makespan']:<12.6g} {status}"
                        )
                    print(payload_text(stats))
    except RemoteError as exc:
        print(f"daemon error: {exc}", file=sys.stderr)
        return 1
    except (ProtocolError, ConnectionError, OSError) as exc:
        print(f"cannot reach daemon at {args.address}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.report import run_lint

    return run_lint(args)


def _cmd_suite(args: argparse.Namespace) -> int:
    from .experiments.suite import run_from_args

    return run_from_args(args)


def _cmd_figure(args: argparse.Namespace) -> int:
    from .resilience.health import reset_run_health

    cache = ResultCache(args.cache_dir) if args.cache_dir is not None else None
    workload_cache = None
    if args.workload_cache_dir is not None and not args.no_workload_cache:
        workload_cache = WorkloadCache(args.workload_cache_dir)
    if args.dry_run:
        ctx = RunContext(
            scale=args.scale,
            jobs=args.jobs,
            backend=args.backend,
            native=args.native,
            fault_plan=args.faults,
            cache=cache if cache is not None else InMemoryRowCache(),
            workload_cache=workload_cache,
        )
        report = plan_report([FIGURE_SPECS[args.figure_id]], ctx)
        if args.json:
            from .service.protocol import payload_text

            print(payload_text(report))
        else:
            print(format_plan_report(report))
        return 0
    health = reset_run_health()
    result = run_figure(
        args.figure_id,
        scale=args.scale,
        jobs=args.jobs,
        backend=args.backend,
        native=args.native,
        fault_plan=args.faults,
        cache=cache,
        workload_cache=workload_cache,
    )
    print(result.as_text())
    if args.csv is not None:
        write_series_csv(result.series, args.csv, x_label=result.x_label)
        print(f"series written to {args.csv}")
    if workload_cache is not None:
        print(f"workload cache: {workload_cache.stats()}")
    if health.any_activity():
        print(f"run health: {health.summary()}")
    return 0 if result.all_checks_pass else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``memtree`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "schedule": _cmd_schedule,
        "lint": _cmd_lint,
        "figure": _cmd_figure,
        "suite": _cmd_suite,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # Pool/shm teardown already ran in the finally-blocks on the way up;
        # exit with the conventional SIGINT status, no traceback spew.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
