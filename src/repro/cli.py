"""Command-line interface.

Eight verbs, all printing plain text:

* ``repro list`` — available algorithms, figures, tables, and scales;
* ``repro run`` — run one algorithm on a generated workload;
* ``repro serve`` — run one algorithm over a pull-based *source*
  (generator or JSONL replay), incrementally and optionally unbounded:
  rolling summary lines on stderr, graceful Ctrl-C shutdown, and
  ``--emit jsonl`` streaming each join output to stdout as produced;
* ``repro compare`` — run several algorithms on the same workload;
* ``repro sweep`` — run several algorithms across seeds and print
  mean/std/min/max aggregates per algorithm;
* ``repro figure`` / ``repro table`` — regenerate one of the paper's
  figures/tables (or an ablation) at a chosen scale;
* ``repro trace record|timeline|inspect|attribute`` — capture a
  tuple-lifecycle trace, export a parallel run's merged span timeline
  as Chrome trace-event JSON, summarise a trace, or replay runs
  against the exact partner sets and print the per-policy lost-output
  (regret) table;
* ``repro dash`` — animate a traced run as a live text dashboard;
  ``repro dash --fleet`` renders a telemetry-armed parallel run as one
  row per shard (heartbeat age, retries, lost shards).

``run`` and ``compare`` are thin layers over :mod:`repro.api`; with
``--metrics json|csv`` they also emit the observability snapshot (see
EXPERIMENTS.md for the schema), either to stdout or to ``--metrics-out``.

Examples
--------
::

    repro run --algorithm PROB --length 2000 --window 100 --memory 50
    repro run --algorithm PROB --metrics json --metrics-out prob.json
    repro serve --source zipf --algorithm PROB --duration 100000
    repro serve --source drifting-zipf --estimator ewma --duration 50000
    repro serve --source replay --replay streams.jsonl --emit jsonl
    repro run --algorithm EXACT --shards 4 --workers 4 \
        --max-retries 2 --checkpoint-every 64
    repro compare --algorithms RAND,PROB,OPT --skew 1.5
    repro compare --algorithms RAND,PROB,LIFE,OPT --workers 4
    repro sweep --algorithms RAND,PROB --seeds 0,1,2,3 --workers 4
    repro sweep --algorithms RAND,PROB --seeds 0,1 --shards 2 --max-retries 1
    repro figure figure3 --scale ci
    repro table ablation_drift --scale ci
    repro trace record --algorithm PROB --out prob.trace.jsonl
    repro trace timeline --shards 4 --workers 4 --out timeline.json
    repro trace attribute --algorithms PROB,RAND --scale ci
    repro dash --algorithm PROB --once
    repro dash --fleet --shards 4 --workers 4 --once
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .api import RunSpec, build_pair, compare as compare_specs, run
from .experiments import (
    ABLATION_GENERATORS,
    ALL_ALGORITHMS,
    FIGURE_GENERATORS,
    SCALES,
    TABLE_GENERATORS,
    format_figure,
    format_table,
)
from .obs import metrics_to_csv, metrics_to_csv_multi, metrics_to_json
from .streams import exact_join_size


def _spec_from_args(args: argparse.Namespace, algorithm: str) -> RunSpec:
    """The :class:`~repro.api.RunSpec` a ``run``/``compare`` asks for."""
    return RunSpec(
        algorithm=algorithm,
        window=args.window,
        memory=args.memory,
        warmup=args.warmup,
        seed=getattr(args, "seed", 0),
        workload=args.workload,
        length=args.length,
        domain=args.domain,
        skew=args.skew,
        skew_s=args.skew_s,
        correlation=args.correlation,
        batch_size=getattr(args, "batch_size", None),
        metrics=getattr(args, "metrics", None) is not None,
        shards=getattr(args, "shards", 1),
        shard_weighted=getattr(args, "shard_weighted", False),
        max_retries=getattr(args, "max_retries", 0),
        timeout_s=getattr(args, "timeout_s", None),
        checkpoint_every=getattr(args, "checkpoint_every", None),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        degrade=getattr(args, "degrade", False),
        telemetry=getattr(args, "telemetry", False),
        telemetry_dir=getattr(args, "telemetry_dir", None),
        heartbeat_every=getattr(args, "heartbeat_every", 16),
    )


def _emit_metrics(
    args: argparse.Namespace, snapshots: dict, summaries: Optional[dict] = None
) -> None:
    """Render collected snapshots as the requested format.

    ``snapshots`` maps algorithm label to snapshot dict; a single run
    emits the bare snapshot, a comparison an object keyed by label.
    JSON exports are versioned: each snapshot gains a ``schema_version``
    key and — when ``summaries`` provides the run's
    :class:`~repro.core.results.RunSummary` — a ``run`` document
    (:meth:`~repro.core.results.RunSummary.to_dict`).  The extra keys
    are ignored by ``load_metrics_json``, so the snapshot round-trip
    is unchanged.
    """
    if args.metrics == "json":
        from .core.results import SCHEMA_VERSION

        snapshots = {
            label: {
                **snapshot,
                "schema_version": SCHEMA_VERSION,
                **(
                    {"run": summaries[label].to_dict()}
                    if summaries and summaries.get(label) is not None
                    else {}
                ),
            }
            for label, snapshot in snapshots.items()
        }
    payload = next(iter(snapshots.values())) if len(snapshots) == 1 else snapshots
    if args.metrics == "csv":
        if len(snapshots) == 1:
            text = metrics_to_csv(payload)
        else:
            # One merged CSV with a leading ``policy`` column — not
            # concatenated per-policy blocks, which lose the labels.
            text = metrics_to_csv_multi(snapshots)
    else:
        text = metrics_to_json(payload) + "\n"
    if args.metrics_out:
        from pathlib import Path

        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"metrics  : written to {path}")
    else:
        sys.stdout.write(text)


def _add_workload_arguments(
    parser: argparse.ArgumentParser, *, seed: bool = True, metrics: bool = True
) -> None:
    parser.add_argument("--length", type=int, default=2000, help="tuples per stream")
    parser.add_argument("--window", type=int, default=100, help="window size w")
    parser.add_argument("--memory", type=int, default=50, help="memory budget M")
    parser.add_argument(
        "--workload",
        choices=("zipf", "uniform", "weather"),
        default="zipf",
    )
    parser.add_argument("--domain", type=int, default=50, help="join-value domain size")
    parser.add_argument("--skew", type=float, default=1.0, help="Zipf parameter of R")
    parser.add_argument(
        "--skew-s", type=float, default=None, dest="skew_s",
        help="Zipf parameter of S (defaults to --skew)",
    )
    parser.add_argument(
        "--correlation",
        choices=("uncorrelated", "correlated", "anticorrelated"),
        default="uncorrelated",
    )
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="output-counting start (default: 2 * window)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, dest="batch_size",
        help="columnar micro-batch chunk size for the fast engine "
             "(default 1024; EXACT takes the count-only lane and "
             "RAND/PROB/LIFE with static tables the vectorized policy "
             "lanes by default; configurations needing tuple "
             "granularity run per tuple, results identical)",
    )
    if metrics:
        parser.add_argument(
            "--metrics", choices=("json", "csv"), default=None,
            help="collect and emit an observability snapshot",
        )
        parser.add_argument(
            "--metrics-out", default=None, dest="metrics_out",
            help="write the metrics report to this file instead of stdout",
        )


def _shards_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition the key domain into N independent sub-joins "
             "(EXACT: identical result; policies: approximation variant)",
    )
    parser.add_argument(
        "--shard-weighted", action="store_true", dest="shard_weighted",
        help="split the memory budget by per-shard arrival mass "
             "instead of evenly",
    )


def _workers_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help=help_text + " (default: REPRO_WORKERS or serial)",
    )


def _fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    """The sharded-run fault-tolerance knobs (see :class:`RunSpec`).

    Combination rules live in one place — ``RunSpec.__post_init__`` —
    so every verb rejects invalid flag mixes identically.
    """
    group = parser.add_argument_group("fault tolerance (sharded runs)")
    group.add_argument(
        "--max-retries", type=int, default=0, dest="max_retries",
        help="re-run a failed/timed-out shard up to N times",
    )
    group.add_argument(
        "--timeout-s", type=float, default=None, dest="timeout_s",
        help="per-attempt shard timeout in seconds (pooled runs)",
    )
    group.add_argument(
        "--checkpoint-every", type=int, default=None, dest="checkpoint_every",
        help="checkpoint each shard every N ticks so retries resume "
             "instead of replaying from tick 0",
    )
    group.add_argument(
        "--checkpoint-dir", default=None, dest="checkpoint_dir",
        help="directory for shard checkpoints "
             "(default: a run-private temporary directory)",
    )
    group.add_argument(
        "--degrade", action="store_true",
        help="on retry exhaustion, merge the surviving shards and "
             "report the lost shard in the drop ledger instead of failing",
    )
    group.add_argument(
        "--telemetry", action="store_true",
        help="record runtime spans and per-shard worker heartbeats; "
             "the merged timeline lands on the result",
    )
    group.add_argument(
        "--telemetry-dir", default=None, dest="telemetry_dir",
        help="keep the worker heartbeat spools in this directory "
             "(default: a run-private temporary directory)",
    )
    group.add_argument(
        "--heartbeat-every", type=int, default=16, dest="heartbeat_every",
        help="ticks between worker heartbeats (default: 16)",
    )


def _scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES) + ["full"],
        default=None,
        help="experiment scale (default: REPRO_SCALE or 'default')",
    )


def _resolve_scale(name: Optional[str]):
    if name is None:
        from .experiments import current_scale

        return current_scale()
    return SCALES["paper" if name == "full" else name]


def _cmd_list(_args: argparse.Namespace) -> int:
    print("algorithms :", ", ".join(ALL_ALGORITHMS))
    print("figures    :", ", ".join(sorted(FIGURE_GENERATORS)))
    print("tables     :", ", ".join(sorted(TABLE_GENERATORS)))
    print("ablations  :", ", ".join(sorted(ABLATION_GENERATORS)))
    print("scales     :", ", ".join(sorted(SCALES)), "(or 'full' = paper)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args, args.algorithm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pair = build_pair(spec)
    result = run(spec, pair=pair, workers=args.workers)
    warmup = spec.effective_warmup
    exact = exact_join_size(pair, args.window, count_from=warmup)
    print(f"workload : {pair.name}")
    print(f"window   : {args.window}   memory: {args.memory}   warmup: {warmup}")
    print(f"{args.algorithm}: {result.output_count} output tuples "
          f"({100 * result.output_count / max(exact, 1):.1f}% of exact {exact})")
    lost = getattr(result, "lost_shards", ())
    if lost:
        print(f"degraded : lost shard(s) {', '.join(map(str, lost))}"
              + (f"; {result.lost_output} outputs forgone"
                 if result.lost_output is not None else ""))
    if args.metrics is not None:
        snapshot = getattr(result, "metrics", None)
        summary = getattr(result, "summary", None)
        _emit_metrics(
            args,
            {args.algorithm: snapshot or {}},
            {args.algorithm: summary() if callable(summary) else None},
        )
    return 0


def _build_source(args: argparse.Namespace):
    """The :class:`~repro.streams.sources.Source` a ``serve`` asks for."""
    from .streams.sources import (
        DriftingZipfSource,
        PoissonSource,
        ReplaySource,
        ZipfSource,
    )

    if args.source == "replay":
        if not args.replay:
            raise ValueError("--source replay needs --replay PATH")
        return ReplaySource(args.replay)
    if args.source == "drifting-zipf":
        return DriftingZipfSource(
            args.domain,
            args.skew,
            phase_length=args.phase_length,
            seed=args.seed,
            length=args.length,
        )
    if args.source == "poisson":
        return PoissonSource(
            args.domain,
            args.skew,
            args.rate,
            skew_s=args.skew_s,
            correlation=args.correlation,
            seed=args.seed,
            length=args.length,
        )
    return ZipfSource(
        args.domain,
        args.skew,
        skew_s=args.skew_s,
        correlation=args.correlation,
        seed=args.seed,
        length=args.length,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a source through the incremental engine path.

    Join results never materialize: ``--emit jsonl`` streams each output
    pair to stdout the tick it is produced, rolling summaries go to
    stderr every ``--summary-every`` ticks, and SIGINT (Ctrl-C) sets a
    cooperative stop flag — the engine finishes the current tick,
    flushes, and reports like any bounded run.
    """
    import json
    import signal

    try:
        source = _build_source(args)
        spec = RunSpec(
            algorithm=args.algorithm,
            window=args.window,
            memory=args.memory,
            warmup=args.warmup,
            seed=args.seed,
            engine=args.engine,
            source=source,
            duration=args.duration,
            estimator=args.estimator,
            estimator_alpha=args.estimator_alpha,
            batch_size=args.batch_size,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.duration is None and source.length is None and not sys.stderr.isatty():
        # Unbounded runs are interactive by design; still allow them in
        # pipelines — the stop flag is the only exit, so say so once.
        print("serving unbounded source; stop with SIGINT", file=sys.stderr)

    emit = None
    if args.emit == "jsonl":
        out = sys.stdout

        def emit(result):
            out.write(json.dumps({
                "r": result.r_arrival, "s": result.s_arrival, "key": result.key,
            }) + "\n")

    ticks_seen = {"n": 0}

    def on_summary(summary):
        ticks_seen["n"] += args.summary_every
        drops = summary.drops
        print(
            f"[{source.name or args.source} t={ticks_seen['n']}] "
            f"{summary.policy_name}: output={summary.output_count} "
            f"shed={drops.shed} expired={drops.expired}",
            file=sys.stderr,
        )

    stopping = {"flag": False}

    def _handle_sigint(signum, frame):
        if stopping["flag"]:  # second Ctrl-C: give up immediately
            raise KeyboardInterrupt
        stopping["flag"] = True
        print("stopping after current tick ...", file=sys.stderr)

    previous = signal.signal(signal.SIGINT, _handle_sigint)
    try:
        result = run(
            spec,
            emit=emit,
            on_summary=on_summary,
            on_summary_every=args.summary_every,
            stop=lambda: stopping["flag"],
        )
    except ValueError as exc:  # e.g. estimator='oracle' over a replay source
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The downstream --emit consumer closed its end (`... | head`):
        # normal termination for a streaming run.  Point stdout at
        # devnull so the interpreter's shutdown flush doesn't print an
        # "Exception ignored" complaint, and exit like SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        signal.signal(signal.SIGINT, previous)
    drops = result.drop_breakdown()
    print(f"source   : {source.name or args.source}", file=sys.stderr)
    print(
        f"window   : {args.window}   memory: {args.memory}   "
        f"warmup: {spec.effective_warmup}",
        file=sys.stderr,
    )
    print(
        f"{args.algorithm}: {result.output_count} output tuples over "
        f"{result.length} ticks (shed={drops.shed}, expired={drops.expired})"
        + ("  [stopped]" if stopping["flag"] else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [name.strip().upper() for name in args.algorithms.split(",") if name.strip()]
    unknown = [name for name in names if name not in ALL_ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(ALL_ALGORITHMS)}", file=sys.stderr)
        return 2
    try:
        template = _spec_from_args(args, names[0])
        specs = [
            replace(template, algorithm=name, variable=None) for name in names
        ]
    except ValueError as exc:  # e.g. --shards with OPT in the list
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pair = build_pair(template)
    results = compare_specs(specs, pair=pair, workers=args.workers)
    warmup = template.effective_warmup
    exact = exact_join_size(pair, args.window, count_from=warmup)
    print(f"workload : {pair.name}   w={args.window}  M={args.memory}")
    print(f"{'algorithm':<10} {'output':>10} {'% of exact':>11}")
    print("-" * 33)
    for name in names:
        count = results[name].output_count
        print(f"{name:<10} {count:>10} {100 * count / max(exact, 1):>10.1f}%")
    print(f"{'EXACT':<10} {exact:>10} {100.0:>10.1f}%")
    if args.metrics is not None:
        summaries = {}
        for name, result in results.items():
            summary = getattr(result, "summary", None)
            summaries[name] = summary() if callable(summary) else None
        _emit_metrics(
            args,
            {
                name: getattr(result, "metrics", None) or {}
                for name, result in results.items()
            },
            summaries,
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweep import sweep_seeds, sweep_specs

    names = [name.strip().upper() for name in args.algorithms.split(",") if name.strip()]
    unknown = [name for name in names if name not in ALL_ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(ALL_ALGORITHMS)}", file=sys.stderr)
        return 2
    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds must name at least one seed", file=sys.stderr)
        return 2

    try:
        base = _spec_from_args(args, names[0])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if base.shards > 1 or base.max_retries or base.timeout_s is not None \
            or base.checkpoint_every is not None or base.degrade:
        # Sharded / fault-tolerant sweeps go through the unified run()
        # path; the plain suite fast path cannot express those knobs.
        aggregates = sweep_specs(names, base, seeds=seeds, workers=args.workers)
    else:
        def factory(seed: int):
            return build_pair(replace(base, seed=seed))

        aggregates = sweep_seeds(
            names,
            factory,
            args.window,
            args.memory,
            seeds=seeds,
            warmup=args.warmup,
            workers=args.workers,
        )
    print(f"workload : {args.workload}(length={args.length}, domain={args.domain}, "
          f"skew={args.skew})   w={args.window}  M={args.memory}  "
          f"seeds={','.join(map(str, seeds))}")
    print(f"{'algorithm':<10} {'mean':>12} {'std':>10} {'min':>10} {'max':>10}")
    print("-" * 56)
    for name in names:
        agg = aggregates[name]
        print(f"{name:<10} {agg.mean:>12.1f} {agg.std:>10.1f} "
              f"{agg.minimum:>10} {agg.maximum:>10}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in FIGURE_GENERATORS:
        print(f"unknown figure {args.name!r}; choose from "
              f"{', '.join(sorted(FIGURE_GENERATORS))}", file=sys.stderr)
        return 2
    scale = _resolve_scale(args.scale)
    figure = FIGURE_GENERATORS[args.name](scale, seed=args.seed)
    print(format_figure(figure))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    generators = {**TABLE_GENERATORS, **ABLATION_GENERATORS}
    if args.name not in generators:
        print(f"unknown table {args.name!r}; choose from "
              f"{', '.join(sorted(generators))}", file=sys.stderr)
        return 2
    table = generators[args.name](_resolve_scale(args.scale), seed=args.seed)
    print(format_table(table))
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .obs import save_trace, trace_summary

    spec = replace(_spec_from_args(args, args.algorithm), trace=True)
    pair = build_pair(spec)
    result = run(spec, pair=pair)
    events = result.trace or []
    summary = trace_summary(events)
    print(f"workload : {pair.name}   w={args.window}  M={args.memory}")
    print(f"{args.algorithm}: {result.output_count} output tuples, "
          f"{len(events)} trace events")
    for kind, count in sorted(summary.get("kinds", {}).items()):
        print(f"  {kind:<12} {count}")
    if args.out:
        path = save_trace(events, args.out)
        print(f"trace    : written to {path}")
    return 0


def _cmd_trace_timeline(args: argparse.Namespace) -> int:
    """Run a sharded spec with telemetry; export the merged timeline."""
    import json

    from .obs import save_spans, span_summary, stage_stats, to_chrome_trace

    try:
        spec = replace(
            _spec_from_args(args, args.algorithm),
            telemetry=True,
            heartbeat_every=args.heartbeat_every,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec.shards < 2:
        print("error: trace timeline needs --shards >= 2 "
              "(the telemetry plane instruments parallel runs)",
              file=sys.stderr)
        return 2
    pair = build_pair(spec)
    result = run(spec, pair=pair, workers=args.workers)
    timeline = result.timeline or []
    summary = span_summary(timeline)
    print(f"workload : {pair.name}   w={args.window}  M={args.memory}  "
          f"shards={spec.shards}")
    print(f"timeline : {summary['events']} span events, "
          f"{len(summary['cells'])} cells, "
          f"{summary['retries']} retries, "
          f"wall {summary['wall_seconds']:.3f}s")
    for kind, count in sorted(summary.get("kinds", {}).items()):
        print(f"  {kind:<18} {count}")
    stats = stage_stats(timeline)
    print("stage latencies (seconds):")
    print(f"  {'stage':<16} {'count':>6} {'mean':>10} {'p50':>10} "
          f"{'p90':>10} {'p99':>10} {'max':>10}")
    for stage, stat in stats.items():
        if not stat.get("count"):
            print(f"  {stage:<16} {0:>6}")
            continue
        print(f"  {stage:<16} {stat['count']:>6} {stat['mean']:>10.6f} "
              f"{stat['p50']:>10.6f} {stat['p90']:>10.6f} "
              f"{stat['p99']:>10.6f} {stat['max']:>10.6f}")
    if args.spans_out:
        path = save_spans(timeline, args.spans_out)
        print(f"spans    : written to {path}")
    if args.out:
        from pathlib import Path

        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(to_chrome_trace(timeline)) + "\n")
        print(f"trace    : written to {path} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    from .obs import load_trace, trace_summary

    try:
        events = load_trace(args.path)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.path!r}: {error}", file=sys.stderr)
        return 2
    summary = trace_summary(events)
    print(f"trace    : {args.path}   {len(events)} events")
    span = summary.get("tick_span")
    if span:
        print(f"ticks    : {span[0]}..{span[1]}")
    print("kinds    :", ", ".join(
        f"{kind}={count}" for kind, count in sorted(summary.get("kinds", {}).items())
    ) or "(none)")
    reasons = summary.get("reasons", {})
    if reasons:
        print("reasons  :", ", ".join(
            f"{reason}={count}" for reason, count in sorted(reasons.items())
        ))
    top = summary.get("top_shed_keys", [])
    if top:
        print("top shed :", ", ".join(f"{key}×{count}" for key, count in top))
    for event in events[: args.events]:
        print(f"  {event.tick:>6} {event.stream} {event.kind:<12} "
              f"key={event.key} arrival={event.arrival}"
              + (f" reason={event.reason}" if event.reason else ""))
    return 0


def _cmd_trace_attribute(args: argparse.Namespace) -> int:
    from .experiments.config import even_memory
    from .obs import format_regret_table, regret_by_policy

    names = [name.strip().upper() for name in args.algorithms.split(",") if name.strip()]
    unknown = [
        name for name in names
        if name not in ALL_ALGORITHMS or name in ("OPT", "OPTV")
    ]
    if unknown:
        print(f"cannot attribute: {', '.join(unknown)} "
              "(engine algorithms only — OPT has no tuple lifecycle)",
              file=sys.stderr)
        return 2
    scale = _resolve_scale(args.scale)
    length = args.length if args.length is not None else scale.stream_length
    window = args.window if args.window is not None else scale.window
    memory = args.memory if args.memory is not None else even_memory(window, 0.5)
    reports = regret_by_policy(
        names,
        window=window,
        memory=memory,
        length=length,
        domain=args.domain,
        skew=args.skew,
        seed=args.seed,
        warmup=args.warmup,
    )
    print(f"workload : zipf(length={length}, domain={args.domain}, "
          f"skew={args.skew})   w={window}  M={memory}")
    print(format_regret_table(reports))
    if args.top:
        for name, report in reports.items():
            regrets = report.top_regrets(args.top)
            if not regrets:
                continue
            print(f"\n{name}: top {len(regrets)} costliest decisions")
            for entry in regrets:
                priority = (
                    f" prio={entry.priority:.3g}" if entry.priority is not None else ""
                )
                print(f"  t={entry.tick:>6} {entry.stream} key={entry.key} "
                      f"{entry.kind}/{entry.reason}{priority} "
                      f"lost={entry.lost_counted}")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from .obs import load_trace, play

    if args.fleet:
        return _cmd_dash_fleet(args)
    if args.from_trace:
        try:
            events = load_trace(args.from_trace)
        except (OSError, ValueError) as error:
            print(f"cannot read trace {args.from_trace!r}: {error}", file=sys.stderr)
            return 2
        title = f"repro dash — {args.from_trace}"
    else:
        spec = replace(_spec_from_args(args, args.algorithm), trace=True)
        pair = build_pair(spec)
        result = run(spec, pair=pair)
        events = result.trace or []
        title = f"repro dash — {args.algorithm} on {pair.name}"
    width = args.bucket if args.bucket is not None else max(args.window // 2, 1)
    frames = play(
        events, width=width, fps=args.fps, title=title,
        once=args.once, color=False if args.no_color else None,
    )
    return 0 if frames else 1


def _cmd_dash_fleet(args: argparse.Namespace) -> int:
    """Fleet mode: one row per shard of a telemetry-armed parallel run."""
    from .obs import load_spans, play_fleet

    if args.from_trace:
        # In fleet mode the file is a span timeline (``trace timeline
        # --spans-out``), not a tuple-lifecycle trace.
        try:
            events = load_spans(args.from_trace)
        except (OSError, ValueError) as error:
            print(f"cannot read spans {args.from_trace!r}: {error}",
                  file=sys.stderr)
            return 2
        title = f"repro dash --fleet — {args.from_trace}"
    else:
        try:
            spec = replace(_spec_from_args(args, args.algorithm), telemetry=True)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if spec.shards < 2:
            print("error: dash --fleet needs --shards >= 2 "
                  "(or --from-trace with a saved span timeline)",
                  file=sys.stderr)
            return 2
        pair = build_pair(spec)
        result = run(spec, pair=pair, workers=args.workers)
        events = result.timeline or []
        title = f"repro dash --fleet — {args.algorithm} x{spec.shards}"
    frames = play_fleet(
        events, fps=args.fps, title=title,
        once=args.once, color=False if args.no_color else None,
    )
    return 0 if frames else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate Join Processing Over Data Streams (SIGMOD 2003) — reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list algorithms, figures, tables, scales")

    run_parser = commands.add_parser("run", help="run one algorithm on a workload")
    run_parser.add_argument(
        "--algorithm", default="PROB", type=str.upper,
        help=f"one of {', '.join(ALL_ALGORITHMS)}",
    )
    _add_workload_arguments(run_parser)
    _shards_arguments(run_parser)
    _fault_tolerance_arguments(run_parser)
    _workers_argument(
        run_parser,
        "worker processes; an unsharded run executes serially, a "
        "--shards run fans its shards over the workers",
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run one algorithm incrementally over a pull-based source "
             "(generator or JSONL replay), optionally unbounded",
    )
    serve_parser.add_argument(
        "--algorithm", default="PROB", type=str.upper,
        help=f"one of {', '.join(ALL_ALGORITHMS)} (no OPT/OPTV)",
    )
    serve_parser.add_argument(
        "--source",
        choices=("zipf", "drifting-zipf", "poisson", "replay"),
        default="zipf",
        help="arrival source (generators are unbounded unless --length)",
    )
    serve_parser.add_argument(
        "--replay", default=None,
        help="JSONL recording to replay (with --source replay; "
             "CSV recordings are adapted automatically)",
    )
    serve_parser.add_argument("--window", type=int, default=100, help="window size w")
    serve_parser.add_argument("--memory", type=int, default=50, help="memory budget M")
    serve_parser.add_argument("--domain", type=int, default=50)
    serve_parser.add_argument("--skew", type=float, default=1.0)
    serve_parser.add_argument(
        "--skew-s", type=float, default=None, dest="skew_s",
        help="Zipf parameter of S (defaults to --skew)",
    )
    serve_parser.add_argument(
        "--correlation",
        choices=("uncorrelated", "correlated", "anticorrelated"),
        default="uncorrelated",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=1.0,
        help="mean arrivals per side per tick (--source poisson)",
    )
    serve_parser.add_argument(
        "--phase-length", type=int, default=10_000, dest="phase_length",
        help="ticks per drift phase (--source drifting-zipf)",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--length", type=int, default=None,
        help="bound the *source* at N ticks (default: unbounded generator)",
    )
    serve_parser.add_argument(
        "--duration", type=int, default=None,
        help="bound the *run* at N ticks (else runs to source end / SIGINT)",
    )
    serve_parser.add_argument(
        "--warmup", type=int, default=None,
        help="output-counting start (default: 2 * window)",
    )
    serve_parser.add_argument(
        "--engine", choices=("fast", "async"), default="fast",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=None, dest="batch_size",
        help="chunk size of the columnar micro-batches a unit-rate "
             "source is cut into (default 1024; EXACT and static "
             "RAND/PROB/LIFE take the lanes by default; memory stays "
             "bounded, results identical)",
    )
    serve_parser.add_argument(
        "--estimator",
        choices=("oracle", "ewma", "countmin", "spacesaving"),
        default="oracle",
        help="statistics module for PROB/LIFE (oracle = static tables; "
             "the rest update online from the live arrivals)",
    )
    serve_parser.add_argument(
        "--estimator-alpha", type=float, default=None, dest="estimator_alpha",
        help="EWMA smoothing factor (default: 2 / (window + 1))",
    )
    serve_parser.add_argument(
        "--emit", choices=("jsonl",), default=None,
        help="stream each join output to stdout as produced",
    )
    serve_parser.add_argument(
        "--summary-every", type=int, default=5000, dest="summary_every",
        help="ticks between rolling summary lines on stderr",
    )

    compare_parser = commands.add_parser("compare", help="run several algorithms")
    compare_parser.add_argument(
        "--algorithms", default="RAND,PROB,OPT",
        help="comma-separated algorithm names",
    )
    _add_workload_arguments(compare_parser)
    _shards_arguments(compare_parser)
    _fault_tolerance_arguments(compare_parser)
    _workers_argument(compare_parser, "worker processes to fan the algorithms over")

    sweep_parser = commands.add_parser(
        "sweep", help="run several algorithms across seeds; print aggregates"
    )
    sweep_parser.add_argument(
        "--algorithms", default="RAND,PROB,OPT",
        help="comma-separated algorithm names",
    )
    sweep_parser.add_argument(
        "--seeds", default="0,1,2,3,4",
        help="comma-separated seeds; one suite runs per seed",
    )
    _add_workload_arguments(sweep_parser, seed=False, metrics=False)
    _shards_arguments(sweep_parser)
    _fault_tolerance_arguments(sweep_parser)
    _workers_argument(sweep_parser, "worker processes to fan the seeds over")

    figure_parser = commands.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("name", help="e.g. figure3 .. figure11")
    figure_parser.add_argument("--seed", type=int, default=0)
    _scale_argument(figure_parser)

    table_parser = commands.add_parser("table", help="regenerate a table / ablation")
    table_parser.add_argument("name", help="e.g. static_join, ablation_drift")
    table_parser.add_argument("--seed", type=int, default=0)
    _scale_argument(table_parser)

    trace_parser = commands.add_parser(
        "trace", help="record, inspect, or attribute a tuple-lifecycle trace"
    )
    trace_commands = trace_parser.add_subparsers(dest="trace_command", required=True)

    record_parser = trace_commands.add_parser(
        "record", help="run one algorithm with tracing and save the trace"
    )
    record_parser.add_argument(
        "--algorithm", default="PROB", type=str.upper,
        help=f"one of {', '.join(ALL_ALGORITHMS)}",
    )
    record_parser.add_argument(
        "--out", default=None, help="write the trace to this JSONL file"
    )
    _add_workload_arguments(record_parser)

    timeline_parser = trace_commands.add_parser(
        "timeline",
        help="run a sharded spec with telemetry; export the merged "
             "span timeline as Chrome trace-event JSON",
    )
    timeline_parser.add_argument(
        "--algorithm", default="EXACT", type=str.upper,
        help=f"one of {', '.join(ALL_ALGORITHMS)}",
    )
    timeline_parser.add_argument(
        "--out", default=None,
        help="write Chrome trace-event JSON here "
             "(chrome://tracing / Perfetto)",
    )
    timeline_parser.add_argument(
        "--spans-out", default=None, dest="spans_out",
        help="also save the raw span timeline as JSONL "
             "(replayable with dash --fleet --from-trace)",
    )
    _add_workload_arguments(timeline_parser, metrics=False)
    _shards_arguments(timeline_parser)
    _fault_tolerance_arguments(timeline_parser)
    _workers_argument(timeline_parser, "worker processes to fan the shards over")

    inspect_parser = trace_commands.add_parser(
        "inspect", help="summarise a saved trace file"
    )
    inspect_parser.add_argument("path", help="trace file written by `trace record`")
    inspect_parser.add_argument(
        "--events", type=int, default=0,
        help="also print the first N raw events",
    )

    attribute_parser = trace_commands.add_parser(
        "attribute",
        help="replay traced runs against exact partner sets; print regret table",
    )
    attribute_parser.add_argument(
        "--algorithms", default="PROB,RAND",
        help="comma-separated engine algorithms (no OPT/OPTV)",
    )
    attribute_parser.add_argument(
        "--length", type=int, default=None,
        help="tuples per stream (default: the scale's stream length)",
    )
    attribute_parser.add_argument(
        "--window", type=int, default=None,
        help="window size w (default: the scale's window)",
    )
    attribute_parser.add_argument(
        "--memory", type=int, default=None,
        help="memory budget M (default: half the window, kept even)",
    )
    attribute_parser.add_argument("--domain", type=int, default=50)
    attribute_parser.add_argument("--skew", type=float, default=1.0)
    attribute_parser.add_argument("--seed", type=int, default=0)
    attribute_parser.add_argument("--warmup", type=int, default=None)
    attribute_parser.add_argument(
        "--top", type=int, default=0,
        help="also print each policy's N costliest shedding decisions",
    )
    _scale_argument(attribute_parser)

    dash_parser = commands.add_parser(
        "dash", help="animate a traced run as a live text dashboard"
    )
    dash_parser.add_argument(
        "--algorithm", default="PROB", type=str.upper,
        help=f"one of {', '.join(ALL_ALGORITHMS)}",
    )
    dash_parser.add_argument(
        "--from-trace", default=None, dest="from_trace",
        help="replay a saved trace file instead of running an algorithm",
    )
    dash_parser.add_argument(
        "--bucket", type=int, default=None,
        help="ticks per dashboard window (default: window / 2)",
    )
    dash_parser.add_argument("--fps", type=float, default=8.0)
    dash_parser.add_argument(
        "--once", action="store_true",
        help="print only the final frame (no animation)",
    )
    dash_parser.add_argument(
        "--no-color", action="store_true", dest="no_color",
        help="disable ANSI colour/clear codes",
    )
    dash_parser.add_argument(
        "--fleet", action="store_true",
        help="fleet mode: one row per shard of a telemetry-armed "
             "parallel run (heartbeat age, retries, lost shards)",
    )
    _add_workload_arguments(dash_parser)
    _shards_arguments(dash_parser)
    _fault_tolerance_arguments(dash_parser)
    _workers_argument(dash_parser, "worker processes to fan the shards over")

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "table": _cmd_table,
    "dash": _cmd_dash,
}

_TRACE_HANDLERS = {
    "record": _cmd_trace_record,
    "timeline": _cmd_trace_timeline,
    "inspect": _cmd_trace_inspect,
    "attribute": _cmd_trace_attribute,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _TRACE_HANDLERS[args.trace_command](args)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
