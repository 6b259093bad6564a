"""The unified ``python -m repro`` command line.

Subcommands::

    python -m repro --version             # print the package version
    python -m repro list                  # every experiment id + grid size
    python -m repro run FIG1 SEC4         # run experiments (cached)
    python -m repro sweep T1 --jobs 4     # prefix selection + grid overrides
    python -m repro sweep T1 --shard 1/4  # run one shard of a split sweep
    python -m repro report                # the full suite, census included
    python -m repro report --shard 1/4    # one shard of the full suite
    python -m repro shard merge report    # complete the sharded report
    python -m repro shard plan T1 -n 4    # preview the shard partition
    python -m repro shard run T1 --shard 2/4   # same engine as sweep --shard
    python -m repro shard merge T1        # merge manifests -> unified report
    python -m repro cache stats|clear     # inspect / empty .repro_cache
    python -m repro cache prune --max-size-mb 64 --max-age-days 30
    python -m repro cache merge --from DIR     # import another machine's cache
    python -m repro queue init --db sweep.db   # create an empty work queue
    python -m repro queue fill T1 --db sweep.db    # enqueue a sweep's units
    python -m repro queue status --db sweep.db     # rows per state, workers
    python -m repro queue requeue --db sweep.db    # re-pend stragglers
    python -m repro worker --db sweep.db  # claim + execute until drained
    python -m repro report --from-queue sweep.db   # collect -> unified report
    python -m repro serve --port 8350     # the equilibrium session server
                                          #   (docs/SERVICE.md)

``run`` and ``sweep`` share the engine: ids match exactly or by prefix,
unit tasks are served from the content-addressed cache (``--no-cache``
disables it, ``--clear-cache`` empties it first) and executed on a
worker pool (``--jobs`` workers; ``--backend {process,thread,serial}``
picks the pool — all backends emit byte-identical rows).  Every run
writes JSON + CSV + Markdown artifacts under ``results/``
(``--no-artifacts`` to skip), including per-unit wall-clock timings in
``meta.json``.  When a previous run's timings exist (``--timings PATH``,
or the run's own ``meta.json`` from last time), they drive adaptive
chunking — longest-first dispatch with a spread-scaled chunk size —
which changes scheduling only, never rows.

``--shard K/N`` / the ``shard`` subcommands split a sweep into N
deterministic shards for independent machines (docs/SHARDING.md):
``shard run`` writes a per-shard manifest under
``results/<name>/shards/``, and ``shard merge`` reduces the collected
manifests into the same unified report an unsharded run would write.
The special id ``report`` names the entire default suite, so ``report
--shard K/N`` + ``shard merge report`` reproduce the full ``report``
artifact byte-identically across machines.

The ``queue`` subcommands and ``worker`` replace fixed push shards with
an elastic pull queue (docs/QUEUE.md): ``queue fill`` inserts one row
per unit into a sqlite work table, any number of ``worker`` processes
claim rows transactionally (leases, heartbeats, bounded retries), and
``sweep``/``report --from-queue DB`` collect the result rows into the
same unified artifacts — byte-identical to a local or shard-merged run.
``shard merge`` stays as the offline fallback when no shared database
is reachable.

Exit codes: 0 all claims pass (shard runs: shard completed), 1 a cell
failed its claim, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..analysis import registry
from ..analysis.census import render_census_table
from ..analysis.table1 import render_markdown, render_series_block
from .artifacts import DEFAULT_RESULTS_DIRNAME, ArtifactStore
from .cache import ResultCache, default_cache_root
from .executor import BACKENDS, run_sweeps, timing_summary, unit_timings
from .queue import (
    DEFAULT_MAX_ATTEMPTS,
    QueueError,
    WorkQueue,
    WorkerInterrupted,
    collect_queue,
    run_worker,
)
from .shard import (
    CostModel,
    ShardMergeError,
    merge_shards,
    plan_shards,
    run_shard,
)
from .spec import Scalar


def _parse_scalar(text: str) -> Scalar:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def parse_set_option(option: str) -> Dict[str, List[Scalar]]:
    """Parse one ``--set dim=v1,v2,...`` (or ``dim=lo..hi``) override."""
    key, sep, raw = option.partition("=")
    key = key.strip()
    if not sep or not key or not raw.strip():
        raise argparse.ArgumentTypeError(
            f"bad --set {option!r}; expected dim=v1,v2,... or dim=lo..hi"
        )
    raw = raw.strip()
    if ".." in raw and "," not in raw:
        lo_text, _, hi_text = raw.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad --set range {raw!r}; expected integers like 0..7"
            ) from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty --set range {raw!r}")
        return {key: list(range(lo, hi + 1))}
    return {key: [_parse_scalar(part) for part in raw.split(",") if part != ""]}


def parse_shard_option(option: str) -> "tuple[int, int]":
    """Parse ``--shard K/N`` into the 1-based ``(K, N)`` pair."""
    k_text, sep, n_text = option.partition("/")
    try:
        if not sep:
            raise ValueError
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --shard {option!r}; expected K/N like 1/4"
        ) from None
    if n < 1 or not 1 <= k <= n:
        raise argparse.ArgumentTypeError(
            f"bad --shard {option!r}; K must satisfy 1 <= K <= N"
        )
    return k, n


def _add_pool_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes/threads (default 1 = serial)",
    )
    sub.add_argument(
        "--backend", choices=BACKENDS, default="process",
        help="worker pool: spawn processes, GIL-releasing threads, "
        "or a serial loop (default process)",
    )


def _add_cache_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache entirely",
    )
    sub.add_argument(
        "--clear-cache", action="store_true",
        help="empty the cache before running",
    )
    sub.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory (default .repro_cache or $REPRO_CACHE_DIR)",
    )


def _add_artifact_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--results-dir", type=Path, default=Path(DEFAULT_RESULTS_DIRNAME),
        help="artifact directory (default results/)",
    )
    sub.add_argument(
        "--no-artifacts", action="store_true",
        help="do not write JSON/CSV/Markdown artifacts",
    )


def _add_set_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--set", action="append", default=[], metavar="DIM=VALUES",
        dest="overrides", type=parse_set_option,
        help="override a grid dimension on matching scenarios, e.g. "
        "--set k=2,3,4 or --set seed=0..7 (repeatable)",
    )


def _add_timings_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--timings", type=Path, default=None, metavar="META_JSON",
        help="a previous run's meta.json; its unit timings drive shard "
        "balancing and adaptive chunking (default: uniform costs)",
    )


def build_parser() -> argparse.ArgumentParser:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures via the "
        "parallel experiment runtime.",
    )
    parser.add_argument(
        "-V", "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list experiment ids, grid sizes, and descriptions"
    )
    list_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also show each scenario's task and grid",
    )

    for name, help_text in (
        ("run", "run experiments by id or prefix"),
        ("sweep", "run experiments with optional grid overrides"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "ids", nargs="+", metavar="ID",
            help="experiment id or prefix (e.g. T1, FIG1, SEC4)",
        )
        _add_pool_options(sub)
        _add_cache_options(sub)
        _add_artifact_options(sub)
        _add_timings_option(sub)
        sub.add_argument(
            "--shard", type=parse_shard_option, default=None, metavar="K/N",
            help="run only shard K of a deterministic N-way split "
            "(writes a shard manifest instead of a report; see "
            "'shard merge')",
        )
        sub.add_argument(
            "--from-queue", dest="from_queue", type=Path, default=None,
            metavar="DB",
            help="collect finished rows from a pull-queue database "
            "instead of executing locally (see 'queue fill' / 'worker')",
        )
        sub.add_argument(
            "--series", action="store_true",
            help="print every cell's measured series",
        )
        if name == "sweep":
            _add_set_option(sub)

    report_parser = subparsers.add_parser(
        "report", help="run the full default suite and print the table"
    )
    _add_pool_options(report_parser)
    _add_cache_options(report_parser)
    _add_artifact_options(report_parser)
    _add_timings_option(report_parser)
    _add_set_option(report_parser)
    report_parser.add_argument(
        "--shard", type=parse_shard_option, default=None, metavar="K/N",
        help="run only shard K of a deterministic N-way split of the "
        "full suite (writes a manifest under results/report/shards/; "
        "'shard merge report' completes the report)",
    )
    report_parser.add_argument(
        "--from-queue", dest="from_queue", type=Path, default=None,
        metavar="DB",
        help="collect the full suite's finished rows from a pull-queue "
        "database instead of executing locally",
    )

    shard_parser = subparsers.add_parser(
        "shard", help="plan, run, and merge cross-machine sweep shards"
    )
    shard_sub = shard_parser.add_subparsers(dest="shard_command", required=True)

    plan_parser = shard_sub.add_parser(
        "plan", help="show the deterministic N-way partition of a sweep"
    )
    plan_parser.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment id or prefix (e.g. T1, FIG1, SEC4)",
    )
    plan_parser.add_argument(
        "-n", "--num-shards", type=int, required=True, metavar="N",
        help="number of shards to partition the sweep into",
    )
    _add_timings_option(plan_parser)
    _add_set_option(plan_parser)
    plan_parser.add_argument(
        "--json", action="store_true",
        help="print the full plan (addresses included) as JSON",
    )

    shard_run_parser = shard_sub.add_parser(
        "run", help="execute one shard and write its manifest"
    )
    shard_run_parser.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment id or prefix (e.g. T1, FIG1, SEC4)",
    )
    shard_run_parser.add_argument(
        "--shard", type=parse_shard_option, required=True, metavar="K/N",
        help="which shard to run (1-based), e.g. 2/4",
    )
    _add_pool_options(shard_run_parser)
    _add_cache_options(shard_run_parser)
    _add_artifact_options(shard_run_parser)
    _add_timings_option(shard_run_parser)
    _add_set_option(shard_run_parser)

    merge_parser = shard_sub.add_parser(
        "merge", help="merge collected shard manifests into the unified report"
    )
    merge_parser.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment id or prefix (e.g. T1, FIG1, SEC4)",
    )
    _add_artifact_options(merge_parser)
    _add_set_option(merge_parser)
    merge_parser.add_argument(
        "--series", action="store_true",
        help="print every cell's measured series",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, empty, prune, or merge the result cache"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "clear", "prune", "merge"),
        nargs="?", default="stats",
    )
    cache_parser.add_argument("--cache-dir", type=Path, default=None)
    cache_parser.add_argument(
        "--max-size-mb", type=float, default=None, metavar="N",
        help="prune: evict oldest entries until the cache is at most N MiB",
    )
    cache_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="prune: evict entries older than D days",
    )
    cache_parser.add_argument(
        "--from", dest="merge_source", type=Path, default=None, metavar="DIR",
        help="merge: cache directory to import entries from",
    )

    queue_parser = subparsers.add_parser(
        "queue",
        help="manage the pull-queue work table for elastic distributed "
        "sweeps (docs/QUEUE.md)",
    )
    queue_sub = queue_parser.add_subparsers(dest="queue_command", required=True)

    def _add_db_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db", type=Path, required=True, metavar="PATH",
            help="the sqlite queue database (a file on local or shared "
            "storage)",
        )

    queue_init_parser = queue_sub.add_parser(
        "init", help="create an empty work queue database"
    )
    _add_db_option(queue_init_parser)

    queue_fill_parser = queue_sub.add_parser(
        "fill", help="enqueue a sweep's unit tasks (idempotent by address)"
    )
    queue_fill_parser.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment id or prefix (e.g. T1, FIG1, SEC4, report)",
    )
    _add_db_option(queue_fill_parser)
    _add_set_option(queue_fill_parser)
    queue_fill_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help=f"retry budget per row before it is declared dead "
        f"(default {DEFAULT_MAX_ATTEMPTS})",
    )

    queue_status_parser = queue_sub.add_parser(
        "status", help="show rows per state, active workers, recent errors"
    )
    _add_db_option(queue_status_parser)
    queue_status_parser.add_argument(
        "--json", action="store_true", help="print the full snapshot as JSON"
    )

    queue_requeue_parser = queue_sub.add_parser(
        "requeue",
        help="re-pend expired leases and retryable failures "
        "(straggler recovery)",
    )
    _add_db_option(queue_requeue_parser)
    queue_requeue_parser.add_argument(
        "--dead", action="store_true",
        help="also resurrect dead rows with a fresh attempt budget",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="claim and execute queued unit tasks until the queue drains "
        "(docs/QUEUE.md)",
    )
    _add_db_option(worker_parser)
    _add_pool_options(worker_parser)
    _add_cache_options(worker_parser)
    worker_parser.add_argument(
        "--lease-seconds", type=float, default=60.0, metavar="S",
        help="claim lease duration; a crashed worker's rows re-queue "
        "after this long (default 60)",
    )
    worker_parser.add_argument(
        "--heartbeat-seconds", type=float, default=None, metavar="S",
        help="lease renewal period (default: lease/3)",
    )
    worker_parser.add_argument(
        "--poll-seconds", type=float, default=0.5, metavar="S",
        help="idle wait between claim attempts (default 0.5)",
    )
    worker_parser.add_argument(
        "--max-claim", type=int, default=16, metavar="N",
        help="claim up to N same-task rows at once so batch runners "
        "fuse (default 16)",
    )
    worker_parser.add_argument(
        "--owner", default=None, metavar="NAME",
        help="worker identity recorded on claimed rows "
        "(default host:pid:nonce)",
    )
    worker_parser.add_argument(
        "--keep-alive", action="store_true",
        help="poll for new work instead of exiting when the queue drains",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived equilibrium session server (docs/SERVICE.md)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 8350; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="LRU capacity: at most N lowered game sessions (default 64)",
    )
    serve_parser.add_argument(
        "--engine", choices=("auto", "reference"), default=None,
        help="pin every served session to one evaluation engine "
        "(default: the process default)",
    )
    serve_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log every request to stderr",
    )
    return parser


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    root = args.cache_dir if args.cache_dir is not None else default_cache_root()
    cache = ResultCache(root=root)
    if getattr(args, "clear_cache", False):
        removed = cache.clear()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}")
    if getattr(args, "no_cache", False):
        return None
    return cache


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.sweep_specs()
    width = max(len(sweep_id) for sweep_id in specs)
    print(f"{'experiment':<{width}}  units  description")
    for sweep_id, sweep in specs.items():
        print(f"{sweep_id:<{width}}  {sweep.size:>5}  {sweep.description}")
        if args.verbose:
            for scenario in sweep.scenarios:
                grid = ", ".join(
                    f"{key}={list(values)}" for key, values in scenario.grid
                )
                print(
                    f"{'':<{width}}     - {scenario.scenario_id}: "
                    f"{scenario.task.rsplit(':', 1)[-1]}"
                    + (f" [{grid}]" if grid else "")
                )
    return 0


def _apply_overrides(args: argparse.Namespace, sweeps):
    """Apply ``--set`` grid overrides, warning on unmatched dimensions."""
    overrides: Dict[str, List[Scalar]] = {}
    for entry in getattr(args, "overrides", []) or []:
        overrides.update(entry)
    if not overrides:
        return sweeps
    declared = {
        key
        for sweep in sweeps
        for scenario in sweep.scenarios
        for key, _ in scenario.grid
    }
    for key in sorted(set(overrides) - declared):
        print(
            f"warning: --set {key}=... matches no grid dimension of the "
            f"selected experiments (dimensions: {sorted(declared)})",
            file=sys.stderr,
        )
    return [sweep.with_grid(**overrides) for sweep in sweeps]


def _artifact_name(ids: Sequence[str]) -> str:
    return "-".join(ids) if len(ids) <= 3 else f"{ids[0]}-etc"


def _cost_model_from_args(
    args: argparse.Namespace, artifact_name: Optional[str] = None
) -> Optional[CostModel]:
    """``--timings PATH`` wins; otherwise reuse the run's own last
    ``meta.json`` when present (scheduling-only, so always safe).

    Shard planning passes ``artifact_name=None`` to disable the
    implicit fallback: a plan must depend only on inputs every machine
    shares, and a machine-local previous run is not one of them.
    """
    path = getattr(args, "timings", None)
    if path is None and artifact_name is not None and not getattr(
        args, "no_artifacts", False
    ):
        candidate = Path(args.results_dir) / artifact_name / "meta.json"
        if candidate.is_file():
            path = candidate
    if path is None:
        return None
    try:
        model = CostModel.from_meta_json(path)
    except (OSError, ValueError) as error:
        print(f"warning: ignoring timings at {path}: {error}", file=sys.stderr)
        return None
    if len(model) == 0:
        return None
    print(f"adaptive chunking: {len(model)} measured unit timing(s) from {path}")
    return model


def _report_cells(
    args: argparse.Namespace,
    sweep_runs,
    stats,
    artifact_name: str,
    show_series: bool,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Print the table, write unified artifacts, return the exit code."""
    cells = [cell for run in sweep_runs for cell in run.cells]

    print(render_markdown(cells))
    print()
    census_table = render_census_table(cells)
    if census_table:
        print("Census distributions:")
        print(census_table)
        print()
    if show_series:
        print(render_series_block(cells))
        print()
    print(stats.describe())

    if not args.no_artifacts:
        store = ArtifactStore(root=args.results_dir)
        artifacts = store.write(
            artifact_name,
            cells,
            extra_markdown=(
                f"## Census distributions\n\n{census_table}"
                if census_table
                else ""
            ),
            meta={
                "sweeps": [run.sweep.sweep_id for run in sweep_runs],
                "spec_hashes": {
                    run.sweep.sweep_id: run.sweep.spec_hash()
                    for run in sweep_runs
                },
                "stats": {
                    "total_units": stats.total_units,
                    "unique_units": stats.unique_units,
                    "executed": stats.executed,
                    "cache_hits": stats.cache_hits,
                    "jobs": stats.jobs,
                    "backend": stats.backend,
                    "wall_seconds": round(stats.wall_seconds, 3),
                    "executed_seconds": round(stats.executed_seconds, 3),
                },
                "unit_timings": unit_timings(sweep_runs),
                "timing_summary": timing_summary(sweep_runs),
                **(extra_meta or {}),
            },
        )
        print(f"artifacts: {artifacts.directory}")

    failed = [cell.experiment_id for cell in cells if not cell.passed]
    if failed:
        print(f"\nFAILED claims: {failed}", file=sys.stderr)
        return 1
    print(f"\nall {len(cells)} cells PASS")
    return 0


def _run_and_report(
    args: argparse.Namespace,
    sweeps,
    artifact_name: str,
    show_series: bool,
) -> int:
    sweeps = _apply_overrides(args, sweeps)
    cache = _cache_from_args(args)
    cost_model = _cost_model_from_args(args, artifact_name)
    sweep_runs, stats = run_sweeps(
        sweeps,
        jobs=args.jobs,
        cache=cache,
        backend=args.backend,
        cost_model=cost_model,
    )
    return _report_cells(args, sweep_runs, stats, artifact_name, show_series)


def _resolve_ids(args: argparse.Namespace):
    try:
        return registry.resolve_sweeps(args.ids)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "shard", None) is not None:
        return _cmd_shard_run(args)
    sweeps = _resolve_ids(args)
    if sweeps is None:
        return 2
    if getattr(args, "from_queue", None) is not None:
        return _cmd_from_queue(
            args, sweeps, _artifact_name(args.ids), args.series
        )
    return _run_and_report(args, sweeps, _artifact_name(args.ids), args.series)


def _cmd_report(args: argparse.Namespace) -> int:
    if getattr(args, "shard", None) is not None:
        # One shard of the full suite: same engine as `sweep --shard`,
        # under the `report` work-unit identity, so collected manifests
        # merge into the exact unsharded report artifact.
        args.ids = ["report"]
        return _cmd_shard_run(args)
    sweeps = list(registry.sweep_specs().values())
    if getattr(args, "from_queue", None) is not None:
        return _cmd_from_queue(args, sweeps, "report", show_series=True)
    return _run_and_report(args, sweeps, "report", show_series=True)


def _cmd_from_queue(
    args: argparse.Namespace,
    sweeps,
    artifact_name: str,
    show_series: bool,
) -> int:
    """Collect a sweep's rows from a pull-queue database.

    The collected values also land in the local result cache (under
    their ordinary engine-salted keys), so a later non-queue run of the
    same ids recomputes nothing.
    """
    sweeps = _apply_overrides(args, sweeps)
    queue = WorkQueue(args.from_queue)
    cache = _cache_from_args(args)
    try:
        sweep_runs, stats, collect_meta = collect_queue(
            sweeps, queue, cache=cache
        )
    except QueueError as error:
        print(f"queue collect failed: {error}", file=sys.stderr)
        return 2
    print(
        f"collected {collect_meta['result_rows']} result row(s) from "
        f"{queue.path} computed under engine {collect_meta['engine']!r}"
    )
    return _report_cells(
        args,
        sweep_runs,
        stats,
        artifact_name,
        show_series,
        extra_meta={"queue_collect": collect_meta},
    )


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    sweeps = _resolve_ids(args)
    if sweeps is None:
        return 2
    sweeps = _apply_overrides(args, sweeps)
    if args.num_shards < 1:
        print("shard plan needs --num-shards >= 1", file=sys.stderr)
        return 2
    cost_model = _cost_model_from_args(args, artifact_name=None)
    plan = plan_shards(sweeps, args.num_shards, cost_model=cost_model)
    if args.json:
        print(json.dumps(plan.to_json(), indent=2, sort_keys=True))
    else:
        print(plan.describe())
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    sweeps = _resolve_ids(args)
    if sweeps is None:
        return 2
    sweeps = _apply_overrides(args, sweeps)
    k, n = args.shard
    cache = _cache_from_args(args)
    cost_model = _cost_model_from_args(args, artifact_name=None)
    shard_run = run_shard(
        sweeps,
        k - 1,
        n,
        jobs=args.jobs,
        cache=cache,
        backend=args.backend,
        cost_model=cost_model,
    )
    plan = shard_run.plan
    print(
        f"shard {k}/{n} of plan {plan.plan_hash()[:12]}: "
        f"{len(plan.shards[k - 1])} of {plan.total_units} unit task(s)"
    )
    print(shard_run.stats.describe())
    if not args.no_artifacts:
        store = ArtifactStore(root=args.results_dir)
        path = store.write_shard_manifest(
            _artifact_name(args.ids), shard_run.manifest()
        )
        print(f"shard manifest: {path}")
    return 0


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    sweeps = _resolve_ids(args)
    if sweeps is None:
        return 2
    sweeps = _apply_overrides(args, sweeps)
    name = _artifact_name(args.ids)
    store = ArtifactStore(root=args.results_dir)
    try:
        manifests = store.load_shard_manifests(name)
    except ValueError as error:
        print(f"shard merge failed: {error}", file=sys.stderr)
        return 2
    if not manifests:
        print(
            f"no shard manifests under {store.shard_dir(name)}; "
            f"run 'sweep {' '.join(args.ids)} --shard K/N' first",
            file=sys.stderr,
        )
        return 2
    try:
        sweep_runs, stats, merge_meta = merge_shards(sweeps, manifests)
    except (ShardMergeError, ValueError) as error:
        print(f"shard merge failed: {error}", file=sys.stderr)
        return 2
    if merge_meta["ignored_manifests"]:
        print(
            f"warning: ignored {merge_meta['ignored_manifests']} stale "
            f"manifest(s) from an earlier split (different spec/overrides/"
            f"version)",
            file=sys.stderr,
        )
    print(
        f"merged {merge_meta['manifests']} shard manifest(s) "
        f"({', '.join(merge_meta['shards'])}) computed under "
        f"engine {merge_meta['engine']!r}"
    )
    return _report_cells(
        args,
        sweep_runs,
        stats,
        name,
        args.series,
        extra_meta={"shard_merge": merge_meta},
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    root = args.cache_dir if args.cache_dir is not None else default_cache_root()
    cache = ResultCache(root=root)
    if args.action != "prune" and (
        args.max_size_mb is not None or args.max_age_days is not None
    ):
        print(
            f"--max-size-mb/--max-age-days only apply to 'cache prune', "
            f"not 'cache {args.action}'",
            file=sys.stderr,
        )
        return 2
    if args.action != "merge" and args.merge_source is not None:
        print(
            f"--from only applies to 'cache merge', not 'cache {args.action}'",
            file=sys.stderr,
        )
        return 2
    if args.action == "merge":
        if args.merge_source is None:
            print("cache merge needs --from DIR", file=sys.stderr)
            return 2
        if not Path(args.merge_source).is_dir():
            print(
                f"cache merge: {args.merge_source} is not a directory",
                file=sys.stderr,
            )
            return 2
        imported = cache.merge_from(args.merge_source)
        print(
            f"imported {imported} entr{'y' if imported == 1 else 'ies'} "
            f"from {args.merge_source} into {cache.root}"
        )
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    if args.action == "prune":
        if args.max_size_mb is None and args.max_age_days is None:
            print(
                "cache prune needs --max-size-mb and/or --max-age-days",
                file=sys.stderr,
            )
            return 2
        max_bytes = (
            int(args.max_size_mb * 1024 * 1024)
            if args.max_size_mb is not None
            else None
        )
        max_age = (
            args.max_age_days * 86_400.0
            if args.max_age_days is not None
            else None
        )
        result = cache.prune(max_bytes=max_bytes, max_age_seconds=max_age)
        print(f"cache: {cache.root}")
        print(result.describe())
        return 0
    count = cache.entry_count()
    size = cache.total_bytes()
    print(f"cache: {cache.root}")
    print(f"entries: {count}")
    print(f"bytes: {size}")
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    queue = WorkQueue(args.db)
    try:
        if args.queue_command == "init":
            queue.initialize()
            counts = queue.counts()
            print(f"queue {queue.path}: {sum(counts.values())} row(s)")
            return 0
        if args.queue_command == "fill":
            sweeps = _resolve_ids(args)
            if sweeps is None:
                return 2
            sweeps = _apply_overrides(args, sweeps)
            max_attempts = (
                args.max_attempts
                if args.max_attempts is not None
                else DEFAULT_MAX_ATTEMPTS
            )
            inserted, existing = queue.fill(sweeps, max_attempts=max_attempts)
            counts = queue.counts()
            print(
                f"queue {queue.path}: inserted {inserted} unit task(s) "
                f"({existing} already present); "
                f"{counts['pending']} pending / {counts['done']} done "
                f"of {sum(counts.values())} total"
            )
            return 0
        if args.queue_command == "requeue":
            queue.check_version()
            moved = queue.requeue(include_dead=args.dead)
            print(
                f"queue {queue.path}: re-queued {moved['requeued']} row(s), "
                f"declared {moved['dead']} dead, resurrected "
                f"{moved['resurrected']}"
            )
            return 0
        # status
        snapshot = queue.status()
        if snapshot["version"] is None:
            print(f"{queue.path} is not an initialized queue", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        print(f"queue: {snapshot['path']}")
        states = snapshot["states"]
        print(
            f"rows: {snapshot['total']} "
            f"(pending {states['pending']}, claimed {states['claimed']}, "
            f"done {states['done']}, failed {states['failed']}, "
            f"dead {states['dead']}); {snapshot['results']} result row(s)"
        )
        for worker in snapshot["workers"]:
            print(
                f"  worker {worker['owner']}: {worker['claimed']} claimed, "
                f"lease until {worker['lease_deadline']}"
            )
        for entry in snapshot["recent_errors"]:
            print(f"  error {entry['address'][:12]}: {entry['error']}")
        return 0
    except QueueError as error:
        print(f"queue {args.queue_command} failed: {error}", file=sys.stderr)
        return 2


def _cmd_worker(args: argparse.Namespace) -> int:
    """Claim-and-execute until the queue drains; exit 0 on SIGTERM.

    The signal handler sets the stop event (honored at the next loop
    boundary) *and* raises :class:`WorkerInterrupted` in the main thread
    so a worker blocked inside a long unit task stops immediately;
    either way ``run_worker`` releases still-leased rows back to
    ``pending`` on the way out — a terminated worker never loses a unit.
    """
    import signal
    import threading

    queue = WorkQueue(args.db)
    cache = _cache_from_args(args)
    stop = threading.Event()

    def request_stop(*_: object) -> None:
        first = not stop.is_set()
        stop.set()
        if first:
            raise WorkerInterrupted()

    previous = {
        signum: signal.signal(signum, request_stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        stats = run_worker(
            queue,
            cache=cache,
            owner=args.owner,
            backend=args.backend,
            jobs=args.jobs,
            lease_seconds=args.lease_seconds,
            heartbeat_seconds=args.heartbeat_seconds,
            poll_seconds=args.poll_seconds,
            max_claim=args.max_claim,
            keep_alive=args.keep_alive,
            stop_event=stop,
        )
    except WorkerInterrupted:
        # The signal landed outside run_worker's own loop (it has no
        # claim to release there); still a clean shutdown.
        print("worker stopped", flush=True)
        return 0
    except QueueError as error:
        print(f"worker failed: {error}", file=sys.stderr)
        return 2
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    verb = "stopped" if stop.is_set() else "drained"
    print(f"worker {verb}: {stats.describe()}", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve until SIGINT/SIGTERM, then drain and exit 0.

    ``serve_forever`` runs on a worker thread while the main thread waits
    on a signal-set event — calling ``shutdown()`` from the thread that
    is serving would deadlock.
    """
    import signal
    import threading

    from ..service import DEFAULT_CAPACITY, DEFAULT_PORT, ServiceServer

    port = args.port if args.port is not None else DEFAULT_PORT
    capacity = args.capacity if args.capacity is not None else DEFAULT_CAPACITY
    if capacity < 1:
        print("serve needs --capacity >= 1", file=sys.stderr)
        return 2
    try:
        server = ServiceServer(
            (args.host, port),
            capacity=capacity,
            session_config={"engine": args.engine},
            verbose=args.verbose,
        )
    except OSError as error:
        print(f"cannot bind {args.host}:{port}: {error}", file=sys.stderr)
        return 1

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    worker = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    worker.start()
    print(f"serving on {server.url} (capacity {capacity})", flush=True)
    try:
        stop.wait()
    finally:
        server.shutdown()
        worker.join()
        server.server_close()
    print("shut down cleanly", flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exit_:
        # argparse exits 0 for --help/--version and 2 for usage errors;
        # normalize to a returned int so embedding callers (tests, other
        # CLIs) never have to catch SystemExit.
        code = exit_.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command in ("run", "sweep"):
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "shard":
            if args.shard_command == "plan":
                return _cmd_shard_plan(args)
            if args.shard_command == "run":
                return _cmd_shard_run(args)
            return _cmd_shard_merge(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "queue":
            return _cmd_queue(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any CLI.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
