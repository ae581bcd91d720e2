"""Command-line interface: ``python -m repro.cli <command>``.

The subcommands cover the common workflows without writing any code:

* ``generate``   — build a synthetic world and print its statistics;
* ``link``       — fit HYDRA on a world and print the resolved linkage with
  held-out precision/recall;
* ``compare``    — run the method suite on one world and print the
  comparison table (the Fig 9-style protocol);
* ``fit``        — fit HYDRA and persist the fitted linker to an on-disk
  artifact (:mod:`repro.persist`), printing per-stage timings;
* ``score``      — load an artifact and answer linkage queries through the
  :class:`~repro.serving.LinkageService` (platform-pair top-k or
  single-account resolution) — no refit;
* ``serve``      — expose an artifact over HTTP through the asyncio
  gateway (:mod:`repro.gateway`): micro-batch request coalescing,
  admission control, graceful shutdown on SIGINT/SIGTERM; ``--wal DIR``
  adds write-ahead durability for every online mutation;
  ``--shard-plan DIR`` serves a shard plan through the scatter-gather
  router (:mod:`repro.shard`) instead of a single-process service;
  ``--replica-of WALDIR`` serves the artifact as a read-only follower
  tailing a primary's WAL, and ``--read-replicas host:port,...`` makes
  a primary spread reads across follower gateways (:mod:`repro.replica`);
* ``replica``    — serve a read-only follower replica that bootstraps
  from the primary's artifact and tails its WAL directory, with an
  optional ``--state`` directory for cursor + checkpoint resume;
* ``shard``      — partition a fitted artifact for distributed serving:
  ``shard plan`` splits it into K per-shard artifacts plus a routing
  plan, ``shard rebalance`` re-plans with an explicit load-balanced
  assignment, ``shard info`` prints a plan's topology;
* ``recover``    — rebuild the exact pre-crash serving state from a base
  artifact plus its write-ahead log (:mod:`repro.wal`), optionally
  saving it as a fresh artifact;
* ``wal info``   — inspect a write-ahead log directory: per-segment
  stats, record/abort counts, epoch range, and (with ``--cursor``) a
  follower cursor's position within the log;
* ``swap``       — ask a running gateway (served with ``--wal``) to
  blue/green cut over to a refit artifact with zero downtime;
* ``loadgen``    — drive a running gateway with an open- or closed-loop
  mixed workload and report requests/sec, latency percentiles,
  per-operation failure/retry counts, and read staleness (observed
  epoch vs last acked write); ``--min-epoch`` turns on read-your-writes
  floors and ``--read-replicas`` exercises client-side GET failover.

Fitting and single-artifact serving run in one process; ``serve
--shard-plan`` is the multi-process deployment.

``loadgen``, ``recover``, ``wal info`` and ``shard info`` accept
``--json``: instead of the human table they print one JSON document, so
automation never parses the text tables.  The repository's performance
benchmark is ``python3 bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.hydra import HydraLinker
from repro.datagen.generator import (
    WorldConfig,
    chinese_platform_specs,
    english_platform_specs,
    generate_world,
)
from repro.eval.experiments import (
    chinese_chain_pairs,
    default_method_factories,
)
from repro.eval.harness import ExperimentHarness, make_label_split
from repro.eval.metrics import precision_recall_f1
from repro.eval.report import format_table, method_results_table

__all__ = ["build_parser", "main"]

_DATASETS = {
    "english": english_platform_specs,
    "chinese": chinese_platform_specs,
}


def _make_world(args) -> "WorldConfig":
    config = WorldConfig(
        num_persons=args.persons,
        platforms=_DATASETS[args.dataset](),
        seed=args.seed,
    )
    return generate_world(config)


def _platform_pairs(args):
    if args.dataset == "chinese":
        return chinese_chain_pairs()
    return None


def cmd_generate(args) -> int:
    """Print world statistics (accounts, events, edges, linkable pairs)."""
    world = _make_world(args)
    rows = []
    for name in world.platform_names():
        platform = world.platforms[name]
        rows.append(
            [name, len(platform), len(platform.events),
             platform.graph.num_edges()]
        )
    print(format_table(["platform", "accounts", "events", "edges"], rows))
    names = world.platform_names()
    print(f"\nground-truth links per platform pair: {args.persons}")
    print(f"platform pairs: {len(names) * (len(names) - 1) // 2}")
    return 0


def cmd_link(args) -> int:
    """Fit HYDRA and print the linkage for the first platform pair."""
    linker, split, pairs = _fit_linker(args)
    pa, pb = pairs[0]
    result = linker.linkage(pa, pb)
    metrics = precision_recall_f1(
        result.linked, split.heldout_true[(pa, pb)],
        exclude=split.all_true_labeled,
    )
    print(f"{pa} <-> {pb}: {len(result.linked)} links")
    print(
        f"held-out precision={metrics.precision:.3f} "
        f"recall={metrics.recall:.3f} f1={metrics.f1:.3f}"
    )
    if args.show:
        for (ref_a, ref_b), score in list(
            zip(result.linked, result.linked_scores)
        )[: args.show]:
            print(f"  {ref_a[1]} <-> {ref_b[1]}  score={score:.2f}")
    return 0


def _fit_linker(args):
    """Shared world/split/fit path for link and fit."""
    world = _make_world(args)
    pairs = _platform_pairs(args) or [
        tuple(world.platform_names()[:2])  # type: ignore[list-item]
    ]
    split = make_label_split(
        world, pairs, label_fraction=args.label_fraction, seed=args.seed
    )
    linker = HydraLinker(
        missing_strategy=args.missing, seed=args.seed,
        num_topics=10, max_lda_docs=2500,
    )
    linker.fit(world, split.labeled_positive, split.labeled_negative, pairs)
    return linker, split, pairs


def cmd_fit(args) -> int:
    """Fit HYDRA and save the fitted linker as an on-disk artifact."""
    linker, _, _ = _fit_linker(args)
    path = linker.save(args.out)
    rows = [
        [stage, seconds]
        for stage, seconds in linker.stage_timings_.items()
    ]
    print(format_table(["stage", "seconds"], rows))
    print(f"\nartifact: {path}")
    print(f"candidates: {len(linker.global_pairs_)} "
          f"(labeled {linker.num_labeled_})")
    return 0


def cmd_score(args) -> int:
    """Serve queries from an artifact: platform-pair top-k or one account."""
    from repro.serving import LinkageService

    with LinkageService.from_artifact(args.artifact) as service:
        return _print_score_query(service, args)


def _print_score_query(service, args) -> int:
    linker = service.linker
    print(
        f"artifact {args.artifact} ({service.num_candidates()} candidates, "
        f"kernel={linker.moo_config.kernel}, missing={linker.missing_strategy})"
    )
    exact = not args.approx
    if args.account is not None:
        platform, account_id = args.account
        links = service.link_account(
            platform, account_id, top=args.top,
            exact=exact, budget=args.budget,
        )
        header = f"{platform}/{account_id}"
    else:
        pair = service.platform_pairs()[0] if args.pair is None else tuple(args.pair)
        links = service.top_k(
            pair[0], pair[1], k=args.top, exact=exact, budget=args.budget
        )
        header = f"{pair[0]} <-> {pair[1]}"
    mode = "approximate cutoff, exact scores" if args.approx else "exact"
    print(f"\ntop {len(links)} links for {header} ({mode}):")
    rows = [
        [link.pair[0][1], link.pair[1][1], link.score,
         ",".join(sorted(link.evidence)) or "-", link.behavior_distance]
        for link in links
    ]
    print(format_table(["left", "right", "score", "evidence", "behavior_dist"],
                       rows))
    return 0


def _emit_results(
    args, *, name: str, headers: list[str], rows: list[list],
    metrics: dict, workload: dict | None = None, extra: dict | None = None,
) -> None:
    """Print either the human table or one JSON document.

    The JSON shape is ``{"name", "workload", "headers", "rows", "metrics"}``
    — the table plus its headline numbers — so scripted runs never scrape
    the aligned text table.  ``extra`` merges additional top-level keys
    into the document (e.g. loadgen's per-op outcome counts).
    """
    if getattr(args, "json", False):
        document = {
            "name": name,
            "workload": workload or {},
            "headers": headers,
            "rows": rows,
            "metrics": metrics,
        }
        document.update(extra or {})
        print(json.dumps(document, indent=2))
    else:
        print(format_table(headers, rows))


def _gateway_config(args, read_replicas: tuple = ()):
    from repro.gateway import GatewayConfig

    return GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch_pairs=args.max_batch_pairs,
        max_batch_requests=args.max_batch_requests,
        max_wait_ms=args.batch_wait_ms,
        max_pending=args.max_pending,
        default_deadline_ms=args.deadline_ms,
        executor_threads=args.threads,
        read_replicas=read_replicas,
        replica_poll_ms=getattr(args, "poll_ms", 25.0),
    )


def _serve_gateway(service, config, source: str, detail: str) -> int:
    """Run one gateway until SIGINT/SIGTERM (shared by serve/replica)."""
    import asyncio
    import signal

    from repro.gateway import LinkageGateway

    async def _run() -> int:
        gateway = LinkageGateway(service, config)
        await gateway.start()
        print(
            f"serving {source} on http://{config.host}:{gateway.port}"
            f" ({service.num_candidates()} candidates, "
            f"max_pending={config.max_pending}{detail})",
            flush=True,  # subprocess drivers parse the bound port from this
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        await stop.wait()
        print("draining ...")
        await gateway.stop()
        return 0

    with service:
        return asyncio.run(_run())


def _parse_replica_list(spec: str | None) -> tuple:
    if not spec:
        return ()
    return tuple(part.strip() for part in spec.split(",") if part.strip())


def cmd_serve(args) -> int:
    """Expose a fitted artifact over HTTP through the asyncio gateway."""
    from repro.serving import LinkageService
    from repro.wal import arm_from_env, recover

    arm_from_env()  # chaos harnesses arm crash sites via REPRO_FAULTS
    if args.shard_plan is not None:
        if args.wal is not None:
            raise SystemExit(
                "error: --wal applies to single-process serving; a sharded "
                "deployment recovers through shard restarts instead"
            )
        if args.replica_of is not None:
            raise SystemExit(
                "error: --replica-of needs --artifact (the replay base), "
                "not --shard-plan"
            )
        from repro.shard import ShardedLinkageService

        service = ShardedLinkageService(args.shard_plan)
        source = args.shard_plan
        detail = f", shards={service.topology.num_shards}"
    elif args.replica_of is not None:
        if args.wal is not None:
            raise SystemExit(
                "error: a follower tails the primary's --replica-of log; "
                "it cannot write its own --wal"
            )
        from repro.replica import FollowerService

        service = FollowerService(
            args.artifact,
            args.replica_of,
            state_dir=args.replica_state,
            checkpoint_every=args.checkpoint_every,
        )
        source = args.artifact
        detail = (
            f", replica-of={args.replica_of} epoch={service.registry_epoch}"
            f"{' resumed' if service.status(poll=False)['resumed'] else ''}"
        )
    elif args.wal is not None:
        # a restart on a non-empty log replays it: acknowledged writes
        # survive the crash, and the log reopens for append where it ended
        # (an empty or missing directory starts at the artifact's epoch)
        service = recover(
            args.artifact, args.wal, reopen=True, fsync=args.fsync,
        ).service
        source = args.artifact
        detail = (
            f", wal={args.wal} fsync={args.fsync}"
            f" epoch={service.registry_epoch}"
        )
    else:
        service = LinkageService.from_artifact(args.artifact)
        source = args.artifact
        detail = ""
    read_replicas = _parse_replica_list(args.read_replicas)
    if read_replicas:
        detail += f", read_replicas={len(read_replicas)}"
    return _serve_gateway(
        service, _gateway_config(args, read_replicas), source, detail
    )


def cmd_replica(args) -> int:
    """Serve a read-only follower that tails a primary's WAL."""
    from repro.replica import FollowerService
    from repro.wal import arm_from_env

    arm_from_env()
    service = FollowerService(
        args.artifact,
        args.wal,
        state_dir=args.state,
        checkpoint_every=args.checkpoint_every,
    )
    status = service.status(poll=False)
    detail = (
        f", replica-of={args.wal} epoch={service.registry_epoch}"
        f"{' resumed' if status['resumed'] else ''}"
    )
    return _serve_gateway(service, _gateway_config(args), args.artifact,
                          detail)


def _parse_mix(spec: str):
    """``"score=0.8,top_k=0.1,link=0.1"`` -> a validated WorkloadMix."""
    from repro.gateway import WorkloadMix

    known = {"score", "top_k", "link"}
    weights = {}
    for part in spec.split(","):
        kind, equals, weight = part.partition("=")
        kind = kind.strip()
        if not equals or kind not in known:
            raise SystemExit(
                f"error: bad --mix entry {part.strip()!r}; expected "
                f"comma-separated name=weight with names in "
                f"{sorted(known)}"
            )
        try:
            weights[kind] = float(weight)
        except ValueError:
            raise SystemExit(
                f"error: --mix weight for {kind!r} must be a number, "
                f"got {weight!r}"
            ) from None
        if weights[kind] < 0:
            raise SystemExit(
                f"error: --mix weight for {kind!r} must be >= 0, "
                f"got {weights[kind]:g}"
            )
    if sum(weights.values()) <= 0:
        raise SystemExit("error: --mix weights must sum to more than 0")
    return WorkloadMix(
        score_pairs=weights.get("score", 0.0),
        top_k=weights.get("top_k", 0.0),
        link_account=weights.get("link", 0.0),
    )


def cmd_loadgen(args) -> int:
    """Drive a running gateway with a mixed workload; report percentiles."""
    from repro.gateway import (
        GatewayClient,
        loadgen_table,
        plan_workload,
        run_load,
    )

    mix = _parse_mix(args.mix)
    with GatewayClient(args.host, args.port) as client:
        catalog = client.candidates(limit=args.catalog_limit)
    ops = plan_workload(
        catalog,
        mix=mix,
        num_requests=args.requests,
        pairs_per_request=args.pairs_per_request,
        seed=args.seed,
    )
    report = run_load(
        args.host,
        args.port,
        ops,
        mode=args.mode,
        concurrency=args.concurrency,
        rate=args.rate,
        deadline_ms=args.deadline_ms,
        min_epoch=args.min_epoch,
        read_endpoints=_parse_replica_list(args.read_replicas),
    )
    summary = report.latency.summary()
    _emit_results(
        args,
        name="loadgen",
        headers=["mode", "requests", "ok", "failed", "retried", "seconds",
                 "requests_per_sec", "p50_ms", "p99_ms", "max_stale"],
        rows=loadgen_table([report], [args.mode], staleness=True),
        metrics={"requests_per_sec": report.requests_per_sec,
                 "p99_ms": summary["p99_ms"]},
        workload={"mix": args.mix, "concurrency": args.concurrency,
                  "rate": args.rate,
                  "pairs_per_request": args.pairs_per_request,
                  "min_epoch": args.min_epoch},
        extra={"outcomes": {"failed": report.failed,
                            "retried": report.retried,
                            "op_counts": report.op_counts},
               "staleness": {"stale_reads": report.stale_reads,
                             "staleness_max": report.staleness_max,
                             "staleness_mean": report.staleness_mean,
                             "min_epoch_violations":
                                 report.min_epoch_violations}},
    )
    if not args.json and report.op_counts:
        for kind, outcome in sorted(report.op_counts.items()):
            print(
                f"  {kind}: ok={outcome['succeeded']} "
                f"rejected={outcome['rejected']} errors={outcome['errors']} "
                f"retried={outcome['retried']}"
            )
    if not args.json:
        print(
            f"  staleness: stale_reads={report.stale_reads} "
            f"max={report.staleness_max} mean={report.staleness_mean:.3f} "
            f"min_epoch_violations={report.min_epoch_violations}"
        )
    if report.min_epoch_violations:
        return 1
    return 0 if report.errors == 0 else 1


def cmd_recover(args) -> int:
    """Rebuild serving state from a base artifact plus its write-ahead log."""
    from repro.persist import save_linker
    from repro.wal import recover

    result = recover(args.artifact, args.wal, reopen=False)
    saved = None
    if args.out is not None:
        saved = str(save_linker(result.service.linker, args.out))
    if args.json:
        print(json.dumps({
            "name": "recover",
            "artifact": str(args.artifact),
            "wal": str(args.wal),
            "base_epoch": result.base_epoch,
            "recovered_epoch": result.recovered_epoch,
            "records_replayed": result.records_replayed,
            "truncated_tail": result.truncated_tail,
            "saved": saved,
        }, indent=2))
    else:
        tail = " (torn tail dropped)" if result.truncated_tail else ""
        print(
            f"recovered epoch {result.recovered_epoch} from "
            f"{args.artifact} (epoch {result.base_epoch}) + "
            f"{result.records_replayed} WAL records{tail}"
        )
        if saved is not None:
            print(f"saved recovered artifact to {saved}")
    return 0


def cmd_wal_info(args) -> int:
    """Inspect a write-ahead log directory without replaying it."""
    from repro.wal import load_cursor, read_wal, segment_stats

    segments = segment_stats(args.wal)
    recovered = read_wal(args.wal)
    effective = recovered.effective_records()
    aborts = sum(1 for r in recovered.records if r.op == "abort")
    cancelled = len(recovered.records) - aborts - len(effective)
    first_epoch = recovered.records[0].epoch if recovered.records else 0
    cursor = None
    if args.cursor is not None:
        loaded = load_cursor(args.cursor)
        cursor = loaded.as_dict() if loaded is not None else None
    if args.json:
        print(json.dumps({
            "name": "wal_info",
            "wal": str(args.wal),
            "segments": [
                {
                    "index": info.index,
                    "path": str(info.path),
                    "records": info.records,
                    "valid_bytes": info.valid_bytes,
                    "size_bytes": info.size_bytes,
                    "first_epoch": info.first_epoch,
                    "last_epoch": info.last_epoch,
                    "clean": info.clean,
                }
                for info in segments
            ],
            "records": len(recovered.records),
            "effective_records": len(effective),
            "aborts": aborts,
            "cancelled_records": cancelled,
            "first_epoch": first_epoch,
            "last_epoch": recovered.last_epoch,
            "truncated_tail": recovered.truncated,
            "cursor": cursor,
        }, indent=2))
        return 0
    rows = [
        [info.index, info.records, info.valid_bytes, info.size_bytes,
         info.first_epoch, info.last_epoch, "yes" if info.clean else "TORN"]
        for info in segments
    ]
    print(format_table(
        ["segment", "records", "valid_bytes", "size_bytes", "first_epoch",
         "last_epoch", "clean"],
        rows,
    ))
    tail = " (torn tail pending truncation)" if recovered.truncated else ""
    print(
        f"\n{len(recovered.records)} records in {len(segments)} segments, "
        f"epochs {first_epoch}..{recovered.last_epoch}{tail}"
    )
    print(
        f"effective {len(effective)} = {len(recovered.records)} logged "
        f"- {aborts} aborts - {cancelled} cancelled"
    )
    if args.cursor is not None:
        if cursor is None:
            print(f"cursor {args.cursor}: not written yet")
        else:
            behind = sum(
                info.records for info in segments
                if info.index > cursor["segment"]
            )
            print(
                f"cursor {args.cursor}: segment {cursor['segment']} "
                f"offset {cursor['offset']} "
                f"(<= {behind} records in later segments)"
            )
    return 0


def cmd_swap(args) -> int:
    """Ask a running gateway to blue/green swap to a refit artifact."""
    from repro.gateway import GatewayClient

    with GatewayClient(
        args.host, args.port, retry_backpressure=True
    ) as client:
        result = client.swap(args.artifact, since_epoch=args.since_epoch)
    print(
        f"swapped to {result['artifact']} at epoch {result['epoch']} "
        f"(was {result['previous_epoch']}, replayed "
        f"{result['records_replayed']} WAL records)"
    )
    return 0


def _shard_topology_rows(topology) -> list[list]:
    return [
        [
            info.index,
            str(info.path),
            info.owned_accounts,
            info.served_accounts,
            info.resident_accounts,
            info.owned_pairs,
        ]
        for info in topology.shards
    ]


_SHARD_TABLE_HEADERS = [
    "shard", "path", "owned", "served", "resident", "owned_pairs",
]


def cmd_shard_plan(args) -> int:
    """Partition a fitted artifact into K shard artifacts plus a plan."""
    from repro.shard import plan_shards

    topology = plan_shards(
        args.artifact, args.out, args.shards, seed=args.seed
    )
    print(format_table(_SHARD_TABLE_HEADERS, _shard_topology_rows(topology)))
    print(
        f"\nplan: {topology.path} ({topology.num_shards} shards, "
        f"{sum(len(v) for v in topology.entries.values())} routed pairs, "
        f"assignment={topology.assignment!r})"
    )
    return 0


def cmd_shard_rebalance(args) -> int:
    """Re-plan with an explicit assignment that levels per-shard load."""
    from repro.shard import rebalance_plan

    topology = rebalance_plan(args.plan, args.out, num_shards=args.shards)
    print(format_table(_SHARD_TABLE_HEADERS, _shard_topology_rows(topology)))
    print(
        f"\nrebalanced plan: {topology.path} "
        f"({topology.num_shards} shards, assignment={topology.assignment!r})"
    )
    return 0


def cmd_shard_info(args) -> int:
    """Print (or emit as JSON) the topology of an existing shard plan."""
    from repro.shard import load_shard_plan

    topology = load_shard_plan(args.plan)
    if args.json:
        print(json.dumps({
            "name": "shard_info",
            "plan": str(topology.path),
            "num_shards": topology.num_shards,
            "source_artifact": topology.source_artifact,
            "base_epoch": topology.base_epoch,
            "assignment": topology.assignment.to_json(),
            "routed_pairs": sum(
                len(v) for v in topology.entries.values()
            ),
            "shards": [
                {
                    "index": info.index,
                    "path": str(info.path),
                    "owned_accounts": info.owned_accounts,
                    "served_accounts": info.served_accounts,
                    "resident_accounts": info.resident_accounts,
                    "owned_pairs": info.owned_pairs,
                }
                for info in topology.shards
            ],
        }, indent=2))
    else:
        print(
            f"plan {topology.path}: {topology.num_shards} shards from "
            f"{topology.source_artifact} (base epoch {topology.base_epoch})"
        )
        print(f"assignment: {topology.assignment!r}\n")
        print(format_table(
            _SHARD_TABLE_HEADERS, _shard_topology_rows(topology)
        ))
    return 0


def cmd_compare(args) -> int:
    """Run several methods on one world and print the comparison table."""
    world = _make_world(args)
    harness = ExperimentHarness(
        world,
        platform_pairs=_platform_pairs(args),
        label_fraction=args.label_fraction,
        seed=args.seed,
    )
    include = tuple(args.methods.split(","))
    factories = default_method_factories(seed=args.seed, include=include)
    results = harness.run_suite(factories)
    print(method_results_table(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HYDRA social identity linkage (SIGMOD 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--persons", type=int, default=40,
                       help="population size (default 40)")
        p.add_argument("--seed", type=int, default=0, help="world seed")
        p.add_argument("--dataset", choices=sorted(_DATASETS), default="english",
                       help="platform preset (default english)")

    def fit_opts(p):
        p.add_argument("--label-fraction", type=float, default=1.0 / 6.0,
                       dest="label_fraction")
        p.add_argument("--missing", choices=("core", "zero"), default="core",
                       help="missing-data strategy (HYDRA-M / HYDRA-Z)")

    p_gen = sub.add_parser("generate", help="generate a world, print stats")
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_link = sub.add_parser("link", help="fit HYDRA and print the linkage")
    common(p_link)
    fit_opts(p_link)
    p_link.add_argument("--show", type=int, default=5,
                        help="print the strongest N links")
    p_link.set_defaults(func=cmd_link)

    p_cmp = sub.add_parser("compare", help="run the method comparison suite")
    common(p_cmp)
    p_cmp.add_argument("--label-fraction", type=float, default=1.0 / 6.0,
                       dest="label_fraction")
    p_cmp.add_argument(
        "--methods",
        default="HYDRA-M,SVM-B,MOBIUS,Alias-Disamb,SMaSh",
        help="comma-separated method list",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_fit = sub.add_parser(
        "fit", help="fit HYDRA and save a servable artifact"
    )
    common(p_fit)
    fit_opts(p_fit)
    p_fit.add_argument("--out", required=True,
                       help="artifact directory to write")
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser(
        "score", help="serve linkage queries from a saved artifact"
    )
    p_score.add_argument("--artifact", required=True,
                         help="artifact directory from `fit`")
    query = p_score.add_mutually_exclusive_group()
    query.add_argument("--pair", nargs=2, metavar=("PLATFORM_A", "PLATFORM_B"),
                       help="platform pair to rank (default: first fitted)")
    query.add_argument("--account", nargs=2, metavar=("PLATFORM", "ACCOUNT_ID"),
                       help="resolve one account instead of a platform pair")
    p_score.add_argument("--top", type=int, default=5,
                         help="number of links to print")
    p_score.add_argument("--approx", action="store_true",
                         help="use the approximate fast path (index-pruned "
                              "+ landmark scorer); the ranking cutoff is "
                              "approximate, returned scores stay exact")
    p_score.add_argument("--budget", type=int, default=None,
                         help="approximate prefilter budget (pairs scored "
                              "per query; default from ApproxConfig)")
    p_score.set_defaults(func=cmd_score)

    def json_opt(p):
        p.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON document "
                            "instead of the text output")

    def gateway_opts(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8099,
                       help="listen port (0 picks a free one)")
        p.add_argument("--batch-wait-ms", type=float, default=2.0,
                       dest="batch_wait_ms",
                       help="micro-batch coalescing window (default 2ms)")
        p.add_argument("--max-batch-pairs", type=int, default=512,
                       dest="max_batch_pairs",
                       help="flush a batch at this many pending pairs")
        p.add_argument("--max-batch-requests", type=int, default=64,
                       dest="max_batch_requests",
                       help="flush a batch at this many pending requests")
        p.add_argument("--max-pending", type=int, default=128,
                       dest="max_pending",
                       help="admitted in-flight request ceiling "
                            "(excess gets 429 + Retry-After)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       dest="deadline_ms",
                       help="default per-request deadline (503 when "
                            "exceeded while queued)")
        p.add_argument("--threads", type=int, default=2,
                       help="scoring executor threads (default 2)")

    p_serve = sub.add_parser(
        "serve", help="expose an artifact over HTTP (asyncio gateway)"
    )
    serve_source = p_serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--artifact",
                              help="artifact directory from `fit`")
    serve_source.add_argument("--shard-plan", dest="shard_plan", default=None,
                              help="shard plan directory from `shard plan`: "
                                   "serve it through the scatter-gather "
                                   "router (one worker process per shard)")
    gateway_opts(p_serve)
    p_serve.add_argument("--wal", default=None,
                         help="write-ahead log directory: every ingest/"
                              "remove is logged before applying (enabling "
                              "`repro recover` and POST /swap), and a "
                              "restart on the same directory replays it")
    p_serve.add_argument("--fsync", choices=("always", "batch", "never"),
                         default="batch",
                         help="WAL fsync policy (default batch; 'always' "
                              "survives power loss, 'batch' survives "
                              "process crashes)")
    p_serve.add_argument("--replica-of", dest="replica_of", default=None,
                         help="serve --artifact as a read-only follower "
                              "tailing this primary WAL directory "
                              "(see also `repro replica`)")
    p_serve.add_argument("--replica-state", dest="replica_state",
                         default=None,
                         help="follower state directory (cursor + "
                              "checkpoint) for restart resume")
    p_serve.add_argument("--checkpoint-every", type=int, default=None,
                         dest="checkpoint_every",
                         help="follower: checkpoint after this many "
                              "applied records (needs --replica-state)")
    p_serve.add_argument("--poll-ms", type=float, default=25.0,
                         dest="poll_ms",
                         help="follower WAL poll interval (default 25ms)")
    p_serve.add_argument("--read-replicas", dest="read_replicas",
                         default=None,
                         help="comma-separated follower gateways "
                              "(host:port,...) to spread reads across")
    p_serve.set_defaults(func=cmd_serve)

    p_replica = sub.add_parser(
        "replica",
        help="serve a read-only follower that tails a primary's WAL",
    )
    p_replica.add_argument("--artifact", required=True,
                           help="the primary's artifact (replay base)")
    p_replica.add_argument("--wal", required=True,
                           help="the primary's WAL directory to tail")
    p_replica.add_argument("--state", default=None,
                           help="follower state directory (cursor + "
                                "checkpoint) for restart resume")
    p_replica.add_argument("--checkpoint-every", type=int, default=None,
                           dest="checkpoint_every",
                           help="checkpoint after this many applied "
                                "records (needs --state)")
    p_replica.add_argument("--poll-ms", type=float, default=25.0,
                           dest="poll_ms",
                           help="WAL poll interval (default 25ms)")
    gateway_opts(p_replica)
    p_replica.set_defaults(func=cmd_replica)

    p_shard = sub.add_parser(
        "shard",
        help="partition a fitted artifact for distributed serving",
    )
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)

    p_splan = shard_sub.add_parser(
        "plan", help="split an artifact into K shard artifacts + a plan"
    )
    p_splan.add_argument("--artifact", required=True,
                         help="fitted artifact directory from `fit`")
    p_splan.add_argument("--out", required=True,
                         help="plan directory to write")
    p_splan.add_argument("--shards", type=int, required=True,
                         help="number of shards (K)")
    p_splan.add_argument("--seed", type=int, default=0,
                         help="hash-assignment seed (default 0)")
    p_splan.set_defaults(func=cmd_shard_plan)

    p_srebal = shard_sub.add_parser(
        "rebalance",
        help="re-plan with an explicit assignment that levels shard load",
    )
    p_srebal.add_argument("--plan", required=True,
                          help="existing plan directory to rebalance")
    p_srebal.add_argument("--out", required=True,
                          help="directory for the rebalanced plan")
    p_srebal.add_argument("--shards", type=int, default=None,
                          help="new shard count (default: keep the plan's)")
    p_srebal.set_defaults(func=cmd_shard_rebalance)

    p_sinfo = shard_sub.add_parser(
        "info", help="print the topology of an existing shard plan"
    )
    p_sinfo.add_argument("--plan", required=True,
                         help="plan directory from `shard plan`")
    json_opt(p_sinfo)
    p_sinfo.set_defaults(func=cmd_shard_info)

    p_recover = sub.add_parser(
        "recover",
        help="rebuild serving state from an artifact + write-ahead log",
    )
    p_recover.add_argument("--artifact", required=True,
                           help="base artifact directory (repro fit)")
    p_recover.add_argument("--wal", required=True,
                           help="write-ahead log directory to replay")
    p_recover.add_argument("--out", default=None,
                           help="save the recovered state as a new artifact")
    json_opt(p_recover)
    p_recover.set_defaults(func=cmd_recover)

    p_wal = sub.add_parser(
        "wal", help="inspect write-ahead log directories"
    )
    wal_sub = p_wal.add_subparsers(dest="wal_command", required=True)
    p_winfo = wal_sub.add_parser(
        "info",
        help="per-segment stats, record counts, and epoch range of a WAL",
    )
    p_winfo.add_argument("--wal", required=True,
                         help="write-ahead log directory to inspect")
    p_winfo.add_argument("--cursor", default=None,
                         help="also report a follower cursor file's "
                              "position within this log")
    json_opt(p_winfo)
    p_winfo.set_defaults(func=cmd_wal_info)

    p_swap = sub.add_parser(
        "swap",
        help="blue/green swap a running gateway onto a refit artifact",
    )
    p_swap.add_argument("--host", default="127.0.0.1")
    p_swap.add_argument("--port", type=int, default=8099)
    p_swap.add_argument("--artifact", required=True,
                        help="refit artifact to cut over to")
    p_swap.add_argument("--since-epoch", type=int, default=None,
                        dest="since_epoch",
                        help="live epoch already contained in the refit "
                             "snapshot (default: the artifact's own epoch)")
    p_swap.set_defaults(func=cmd_swap)

    p_load = sub.add_parser(
        "loadgen", help="drive a running gateway with a mixed workload"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=8099)
    p_load.add_argument("--requests", type=int, default=200)
    p_load.add_argument("--concurrency", type=int, default=8)
    p_load.add_argument("--mode", choices=("closed", "open"),
                        default="closed")
    p_load.add_argument("--rate", type=float, default=None,
                        help="open-loop arrival rate (requests/sec)")
    p_load.add_argument("--mix", default="score=0.8,top_k=0.1,link=0.1",
                        help="comma-separated op weights "
                             "(score/top_k/link)")
    p_load.add_argument("--pairs-per-request", type=int, default=4,
                        dest="pairs_per_request")
    p_load.add_argument("--catalog-limit", type=int, default=200,
                        dest="catalog_limit",
                        help="candidate pairs to sample as workload seed")
    p_load.add_argument("--deadline-ms", type=float, default=None,
                        dest="deadline_ms")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--min-epoch", action="store_true",
                        dest="min_epoch",
                        help="read-your-writes mode: floor every read at "
                             "the worker's last acked write epoch "
                             "(X-Min-Epoch)")
    p_load.add_argument("--read-replicas", dest="read_replicas",
                        default=None,
                        help="comma-separated follower gateways "
                             "(host:port,...) for client-side GET "
                             "failover")
    json_opt(p_load)
    p_load.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
