"""Per-layer metrics of the traced run.

Nothing under ``src/`` carries spans yet, so every number here is taken
from outside: a span round each fit stage and each public call a stage
makes (`traced_stages`), a replay of a sub-layer's public function on the same
inputs where no call boundary is reachable (LDA, tokenizer, blocking index,
WAL append), in-process calls on the artifact the server serves, the
driver's own clocks, and the public ``GET /stats`` document.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core.candidates import CandidateGenerator
from repro.core.stages import LinkageStage
from repro.serving import LinkageService
from repro.text.tokenizer import Tokenizer
from repro.text.variational import VariationalLDA
from repro.wal import (
    WalRecord,
    WriteAheadLog,
    apply_payload,
    payload_from_json,
    read_wal,
)

from bench import driver
from bench.spans import Tracer

__all__ = ["traced_stages", "fit_layers", "serve_layers", "wal_layers"]

STAGES = ("candidates", "labels", "featurize", "consistency", "optimize")
REPLAYED_CYCLES = 2


class TracedStage(LinkageStage):
    """A fit stage with a span round ``run``; keeps the context it saw."""

    def __init__(self, inner: LinkageStage, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.context = None

    def run(self, context) -> None:
        self.context = context
        with self.tracer.span(f"stage.{self.name}"):
            self.inner.run(context)


@contextmanager
def traced_stages(linker, tracer: Tracer):
    """Put spans at the stage boundaries of the ``linker.fit`` in the body.

    ``fit`` asks ``self.build_stages()`` for its stages, so shadowing that
    public hook on the instance puts a span round every ``stage.run``
    without touching the fit itself; the pipeline's ``fit`` is shadowed the
    same way.  (``matrix`` cannot be: the Eqn-18 filler keeps the bound
    method it finds, and the artifact would try to pickle the wrapper.)
    Yields the traced stages — none when the tracer is off.
    """
    seen: list[TracedStage] = []
    if not tracer.enabled:
        yield seen
        return
    build, pipeline = linker.build_stages, linker.pipeline

    def build_traced():
        seen.extend(TracedStage(stage, tracer) for stage in build())
        return seen

    linker.build_stages = build_traced
    pipeline.fit = tracer.wrap(pipeline.fit, "features.pipeline_fit")
    try:
        yield seen
    finally:
        del linker.build_stages, pipeline.fit


def _median_ms(spans) -> float:
    return statistics.median(span.seconds for span in spans) * 1e3


def fit_layers(tracer: Tracer, linker, context, inputs) -> dict:
    """Stage spans of the last traced fit plus the sub-layer replays."""
    out: dict[str, float] = {}
    stage = {name: tracer.last(f"stage.{name}").seconds for name in STAGES}
    base, (pa, pb) = inputs.base, inputs.pair
    pairs = context.global_pairs

    # index + candidates: a fresh generator, so signatures are not memoized
    generator = CandidateGenerator()
    with tracer.span("index.signatures") as signatures:
        for platform in (pa, pb):
            generator.platform_signatures(base, platform)
    with tracer.span("index.build") as build:
        generator.build_pair_index(base, pa, pb)
    out["index.signatures_s"] = signatures.seconds
    out["index.build_s"] = build.seconds
    candidates = context.candidates[(pa, pb)].pairs
    found = {(a[1], b[1]) for a, b in candidates}
    truth = base.true_pairs(pa, pb)
    out["candidates.generate_s"] = stage["candidates"]
    out["candidates.pairs"] = len(candidates)
    out["candidates.true_pair_recall"] = (
        sum(pair in found for pair in truth) / len(truth)
    )

    # text: the corpus re-tokenized and re-encoded with the fitted vocabulary
    pipeline = linker.pipeline
    tokenizer = Tokenizer()
    texts = [
        base.platforms[name].events.texts_of(account_id)
        for name in base.platform_names()
        for account_id in base.platforms[name].account_ids()
    ]
    with tracer.span("text.tokenize") as tokenize:
        tokens = [doc for text in texts for doc in tokenizer.tokenize_many(text)]
    docs = [pipeline.vocabulary.encode(doc, skip_unknown=True) for doc in tokens]
    vocab = max(len(pipeline.vocabulary), 1)
    train = docs
    if len(docs) > pipeline.max_lda_docs:
        pick = np.random.default_rng(0).choice(
            len(docs), size=pipeline.max_lda_docs, replace=False
        )
        train = [docs[i] for i in pick]
    lda = VariationalLDA(num_topics=pipeline.num_topics, vocab_size=vocab, seed=0)
    with tracer.span("text.lda_fit") as lda_fit:
        lda.fit(train)
    with tracer.span("text.lda_transform") as lda_transform:
        lda.transform(docs)
    out["text.tokenize_s"] = tokenize.seconds
    out["text.tokens"] = sum(len(doc) for doc in tokens)
    out["text.lda_fit_s"] = lda_fit.seconds
    out["text.lda_transform_s"] = lda_transform.seconds
    out["text.lda_train_docs"] = len(train)
    out["text.vocab_size"] = vocab
    out["text.doc_term_density"] = (
        sum(len(np.unique(doc)) for doc in docs) / (max(len(docs), 1) * vocab)
    )

    # features: the span of FeaturizeStage's pipeline.fit, a replay of its
    # pipeline.matrix call, and what is left of the stage (Eqn-18 fill)
    pipeline_fit = tracer.last("features.pipeline_fit").seconds
    with tracer.span("features.matrix") as matrix:
        x_raw = pipeline.matrix(pairs)
    out["features.fit_s"] = pipeline_fit
    out["features.fit_other_s"] = pipeline_fit - (
        tokenize.seconds + lda_fit.seconds + lda_transform.seconds
    )
    out["features.matrix_s"] = matrix.seconds
    out["features.matrix_pairs_per_s"] = len(pairs) / matrix.seconds
    out["features.fill_s"] = stage["featurize"] - pipeline_fit - matrix.seconds
    out["features.missing_share"] = float(np.isnan(x_raw).mean())
    out["features.dim"] = pipeline.dim

    out["consistency.build_s"] = stage["consistency"]
    out["consistency.nonzero_share"] = statistics.fmean(
        block.nonzero_fraction() for block in context.blocks
    )

    model = context.model
    out["moo.fit_s"] = stage["optimize"]
    out["moo.rows"] = len(pairs)
    out["moo.qp_iterations"] = model.qp_result_.iterations
    out["moo.support_share"] = float((model.beta_ > 1e-8).mean())
    with tracer.span("moo.decision") as decision:
        model.decision_function(context.x_all)
    out["moo.decision_pairs_per_s"] = len(pairs) / decision.seconds

    fit_s, staged = tracer.last("fit").seconds, sum(stage.values())
    out["stages.other_s"] = fit_s - staged
    out["stages.coverage"] = staged / fit_s
    return out


def serve_layers(tracer: Tracer, artifact, inputs, score_samples, churn,
                 pinned, stats: dict, e2e: dict) -> dict:
    """In-process splits of what the gateway served, plus its own counters."""
    out: dict[str, float] = {}

    # a second, untouched copy of the artifact: cold caches, no WAL
    service = LinkageService.from_artifact(artifact)
    try:
        everything = service.candidate_pairs(inputs.pair)
        with tracer.span("serving.cold_score") as cold:
            service.score_pairs(everything)
        with tracer.span("serving.warm_score") as warm:
            service.score_pairs(everything)
        out["serving.cold_score_s"] = cold.seconds
        out["serving.score_pairs_per_s"] = len(everything) / warm.seconds

        # the driver's own request sequence, one request at a time
        linker = service.linker
        requests, featurizes, decisions = [], [], []
        for pairs, _ in (p for conn in pinned for p in conn):
            refs = [(tuple(a), tuple(b)) for a, b in pairs]
            with tracer.span("serving.request") as request:
                service.score_pairs(refs)
            with tracer.span("features.request_featurize") as featurize:
                x = linker.featurize_pairs(refs)
            with tracer.span("moo.request_decision") as decision:
                linker.score_features(x)
            requests.append(request)
            featurizes.append(featurize)
            decisions.append(decision)
        out["serving.request_ms"] = _median_ms(requests)
        out["features.request_featurize_ms"] = _median_ms(featurizes)
        out["moo.request_decision_ms"] = _median_ms(decisions)
        out["serving.request_other_ms"] = (
            out["serving.request_ms"] - out["features.request_featurize_ms"]
            - out["moo.request_decision_ms"]
        )

        # the churn cycle without HTTP and without a log; a few accounts
        # are enough, every one of them pays a full rebuild twice
        resident = everything[0][0]
        cycle: dict[str, list] = {"add_account": [], "relink": [],
                                  "remove_account": [], "after_remove_link": []}
        for ref, raw in list(zip(inputs.held, inputs.payloads))[:REPLAYED_CYCLES]:
            apply_payload(service.world, payload_from_json(raw))
            for step, call in (
                ("add_account", lambda: service.add_accounts([ref], score=False)),
                ("relink", lambda: service.link_account(*ref)),
                ("remove_account", lambda: service.remove_account(ref)),
                ("after_remove_link", lambda: service.link_account(*resident)),
            ):
                with tracer.span(f"serving.{step}") as span:
                    call()
                cycle[step].append(span)
        for step, spans in cycle.items():
            out[f"serving.{step}_ms"] = _median_ms(spans)
    finally:
        service.close()

    counters = stats.get("service", {})
    for cache in ("score", "summary"):
        hits = counters.get(f"{cache}_cache_hits", 0)
        total = hits + counters.get(f"{cache}_cache_misses", 0)
        out[f"serving.{cache}_cache_hit_share"] = hits / total if total else 0.0

    gateway = stats.get("gateway", {})
    batcher, admission = gateway.get("batcher", {}), gateway.get("admission", {})
    out["gateway.overhead_ms"] = e2e["p50_ms"] - out["serving.request_ms"]
    out["gateway.batch_wait_ms"] = batcher.get("mean_batch_wait_ms", 0.0)
    out["gateway.requests_per_batch"] = batcher.get("mean_requests_per_batch", 0.0)
    out["gateway.peak_pending"] = admission.get("peak_pending", 0)
    out["gateway.rejected"] = sum(
        endpoint.get("rejected_busy", 0) + endpoint.get("rejected_deadline", 0)
        for endpoint in admission.get("endpoints", {}).values()
    )
    ok = [s for s in score_samples if s.ok]
    latencies = [s.latency_ms for s in ok]
    out["gateway.response_bytes"] = statistics.median(s.response_bytes for s in ok)
    ingests = [s for s in churn if s.kind == "ingest" and s.ok]
    out["gateway.after_remove_link_ms"] = statistics.median(
        s.latency_ms for s in churn if s.kind == "after_remove_link" and s.ok
    )
    out["gateway.ingest_overhead_ms"] = (
        e2e["ingest_p50_ms"] - out["serving.add_account_ms"]
    )
    out["gateway.ingest_request_bytes"] = statistics.median(
        s.request_bytes for s in ingests
    )

    out["driver.samples"] = len(ok)
    out["driver.p95_ms"] = driver.percentile(latencies, 95)
    out["driver.p99_ms"] = driver.percentile(latencies, 99)
    out["driver.client_ms"] = statistics.median(s.client_ms for s in ok)
    return out


def wal_layers(tracer: Tracer, inputs, wal, work, churn, recover_s: float,
               load_s: float, save_s: float, env: dict) -> dict:
    """Append cost under each fsync policy, log size, read and replay cost."""
    out: dict[str, float] = {}
    records = [
        WalRecord(op="ingest", epoch=number + 1, refs=(ref,),
                  payloads=(payload_from_json(raw),), ts=time.time())
        for number, (ref, raw) in enumerate(zip(inputs.held, inputs.payloads))
    ]
    for policy in ("batch", "always"):
        appends = []
        with WriteAheadLog(work / f"wal-{policy}", fsync=policy) as log:
            for record in records:
                with tracer.span(f"wal.append_{policy}") as append:
                    log.append(record)
                appends.append(append)
        out[f"wal.append_{policy}_ms"] = _median_ms(appends)

    with tracer.span("wal.read") as read:
        recovered = read_wal(wal)
    log_bytes = sum(f.stat().st_size for f in wal.iterdir() if f.is_file())
    written = sum(s.request_bytes for s in churn if s.kind in ("ingest", "remove"))
    out["wal.read_s"] = read.seconds
    out["wal.records"] = len(recovered.records)
    out["wal.bytes_per_record"] = log_bytes / len(recovered.records)
    out["wal.write_amplification"] = log_bytes / written

    # what `repro recover` pays before it replays its first record
    with tracer.span("bench.import_cli") as imported:
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       env=env, check=True)
    out["wal.replay_ms_per_record"] = (
        (recover_s - imported.seconds - load_s - save_s) * 1e3
        / len(recovered.records)
    )
    return out
