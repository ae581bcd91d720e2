"""On-disk artifact format for fitted linkers.

An artifact is a directory with exactly two files:

``manifest.json``
    Format tag + version, the linker's hyper-parameter config, the candidate
    index (every candidate set with its rule evidence and pre-matches), the
    global row layout, per-block metadata, scalar model state, and feature
    names — everything human-inspectable.

``arrays.npz``
    The numeric state: the dual model's training matrix / expansion
    coefficients, each consistency block's sparse arrays
    (``block_<i>_{indices,indptr,cols,values,affinity,degree}``, the layout of
    :class:`~repro.core.consistency.ConsistencyBlock`), and one opaque
    ``state`` blob (a pickled ``{world, pipeline, filler}`` dict stored as
    a ``uint8`` array) carrying the fitted feature-pipeline caches
    and the social world they refer to.  The blob is pickled as a single
    object graph so the pipeline, the missing-value filler, and the world
    keep their shared references on reload.  The pipeline's packed account
    store (the batch featurization engine's array state, see
    :mod:`repro.features.batch`) rides inside the blob, and the manifest's
    ``packed_store`` section records its shape facts; :func:`load_linker`
    verifies the store arrived (rebuilding it for pre-batch-engine blobs) so
    a loaded service scores without re-packing.

Versioning is strict: :func:`load_linker` refuses artifacts whose ``format``
or ``version`` it does not understand, so stale artifacts fail loudly
instead of mis-scoring.  Version 1 artifacts, which stored each block as dense
``block_<i>_m`` / ``block_<i>_d`` matrices, are still read and converted on
load; only version 2 is written.  The ``state`` blob additionally records the
``repro`` release that wrote it; a release mismatch on load raises a
:class:`UserWarning` because pickled object layouts track the library code,
not the artifact format number.

.. warning::
   The ``state`` blob is a pickle: only load artifacts you (or your
   pipeline) wrote.  Unpickling an untrusted artifact can execute
   arbitrary code.
"""

from __future__ import annotations

import json
import pickle
import warnings
from pathlib import Path

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.consistency import ConsistencyBlock
from repro.core.hydra import HydraLinker
from repro.core.moo import MooConfig, MultiObjectiveModel
from repro.core.qp import QPResult

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "HEAD_FORMAT",
    "HEAD_VERSION",
    "ArtifactError",
    "artifact_exists",
    "artifact_summary",
    "load_linker",
    "load_scoring_head",
    "save_linker",
    "save_scoring_head",
]

ARTIFACT_FORMAT = "hydra-linker"
ARTIFACT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_BLOCK_ARRAYS = ("indices", "indptr", "cols", "values", "affinity", "degree")

#: A scoring head is the decision function alone — kernel config + dual
#: expansion arrays + bias + feature names — with no pickled world/pipeline
#: state.  The sharded router loads one to score feature rows the shards
#: featurized, so the gateway process never unpickles a state blob.
HEAD_FORMAT = "hydra-scoring-head"
HEAD_VERSION = 1

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"
_HEAD_MANIFEST = "head.json"
_HEAD_ARRAYS = "head_arrays.npz"


class ArtifactError(RuntimeError):
    """Raised for unreadable, incomplete, or incompatible artifacts."""


def artifact_exists(path) -> bool:
    """True when ``path`` holds a complete artifact (both files present).

    A cheap existence probe — no version validation, no loading.  Parallel
    serving uses it to decide whether worker processes can initialize from
    disk or must receive the fitted objects directly.
    """
    path = Path(path)
    return (path / _MANIFEST).is_file() and (path / _ARRAYS).is_file()


# ----------------------------------------------------------------------
# json helpers: pairs are ((platform, id), (platform, id)) tuples
# ----------------------------------------------------------------------
def _pair_to_json(pair) -> list:
    return [list(pair[0]), list(pair[1])]


def _pair_from_json(data) -> tuple:
    return (tuple(data[0]), tuple(data[1]))


def _candidates_to_json(candidates: dict) -> list[dict]:
    out = []
    for key in sorted(candidates):
        cand = candidates[key]
        out.append(
            {
                "platform_a": cand.platform_a,
                "platform_b": cand.platform_b,
                "pairs": [_pair_to_json(p) for p in cand.pairs],
                "evidence": [sorted(rules) for rules in cand.evidence],
                "prematched": list(cand.prematched),
            }
        )
    return out


def _candidates_from_json(data: list[dict]) -> dict:
    out = {}
    for entry in data:
        cand = CandidateSet(
            platform_a=entry["platform_a"],
            platform_b=entry["platform_b"],
            pairs=[_pair_from_json(p) for p in entry["pairs"]],
            evidence=[frozenset(rules) for rules in entry["evidence"]],
            prematched=list(entry["prematched"]),
        )
        out[(cand.platform_a, cand.platform_b)] = cand
    return out


def _packed_store_summary(pipeline) -> dict | None:
    """Manifest facts about the pipeline's packed account store."""
    packed = getattr(pipeline, "_packed", None)
    if packed is None:
        return None
    return {
        "num_accounts": packed.num_accounts,
        "topic_scales": list(packed.topic_scales),
        "sensor_kinds": list(packed.sensor_kinds),
        "sensor_scales": list(packed.sensor_scales),
        "style_ks": list(packed.style_ks),
    }


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_linker(
    linker: HydraLinker, path, *, extra_manifest: dict | None = None
) -> Path:
    """Write a fitted linker to the artifact directory ``path``.

    The directory is created if needed; existing artifact files are
    overwritten.  Returns the artifact path.

    ``extra_manifest`` merges additional top-level sections into the
    manifest (e.g. the shard planner's ``shard`` section recording the
    shard's index and served account set); keys must not collide with the
    standard sections.
    """
    if linker.model_ is None or linker._filler is None or linker._world is None:
        raise ArtifactError("linker is not fitted; fit() before save()")
    model = linker.model_
    if model.x_train_ is None or model.alpha_ is None:
        raise ArtifactError("fitted model is missing its dual expansion state")

    from repro import __version__  # lazy: repro.__init__ re-exports this module

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    builder = linker.consistency_builder
    qp = model.qp_result_
    manifest = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "repro_version": __version__,
        "config": {
            "moo": {
                "gamma_l": model.config.gamma_l,
                "gamma_m": model.config.gamma_m,
                "p": model.config.p,
                "kernel": model.config.kernel,
                "kernel_params": dict(model.config.kernel_params),
                "max_smo_iterations": model.config.max_smo_iterations,
                "smo_tol": model.config.smo_tol,
                "reweight_iterations": model.config.reweight_iterations,
                "jitter": model.config.jitter,
            },
            "consistency": {
                "sigma1": builder.sigma1,
                "sigma1_scale": builder.sigma1_scale,
                "sigma2": builder.sigma2,
                "max_hops": builder.max_hops,
            },
            "missing_strategy": linker.missing_strategy,
            "threshold": linker.threshold,
            "use_prematched": linker.use_prematched,
            "seed": linker.seed,
        },
        "platform_pairs": [list(p) for p in linker.platform_pairs_],
        "num_labeled": linker.num_labeled_,
        "global_pairs": [_pair_to_json(p) for p in linker.global_pairs_],
        "candidates": _candidates_to_json(linker.candidates_),
        "blocks": [
            {
                "platform_a": block.platform_a,
                "platform_b": block.platform_b,
                "weight": block.weight,
            }
            for block in linker.blocks_
        ],
        "model": {
            "bias": model.bias_,
            "objective_values": list(model.objective_values_),
            "qp": (
                {
                    "objective": qp.objective,
                    "iterations": qp.iterations,
                    "support_fraction": qp.support_fraction,
                }
                if qp is not None
                else None
            ),
        },
        "feature_names": list(linker.pipeline.feature_names),
        "packed_store": _packed_store_summary(linker.pipeline),
        "stage_timings": dict(linker.stage_timings_),
        # online-ingestion provenance: a non-zero epoch marks a linker whose
        # serving registry (accounts, candidate sets) was mutated after fit
        "ingest": {
            "epoch": getattr(linker, "ingest_epoch_", 0),
        },
    }
    # fit-time Nyström landmark selection (repro.approx) rides in the
    # artifact so a reload serves the approximate path without reselecting
    fast_scorer = getattr(linker, "fast_scorer_", None)
    if fast_scorer is not None:
        manifest["approx"] = fast_scorer.manifest_entry()
    if extra_manifest:
        collisions = set(extra_manifest) & set(manifest)
        if collisions:
            raise ArtifactError(
                f"extra_manifest collides with standard sections: "
                f"{sorted(collisions)}"
            )
        manifest.update(extra_manifest)
    (path / _MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True))

    arrays: dict[str, np.ndarray] = {
        "model_x_train": model.x_train_,
        "model_alpha": model.alpha_,
        "model_beta": model.beta_ if model.beta_ is not None else np.zeros(0),
    }
    for i, block in enumerate(linker.blocks_):
        for name in _BLOCK_ARRAYS:
            arrays[f"block_{i}_{name}"] = getattr(block, name)
    state_blob = pickle.dumps(
        {
            "world": linker._world,
            "pipeline": linker.pipeline,
            "filler": linker._filler,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    arrays["state"] = np.frombuffer(state_blob, dtype=np.uint8)
    if fast_scorer is not None:
        arrays.update(fast_scorer.arrays())
    np.savez_compressed(path / _ARRAYS, **arrays)
    return path


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> dict:
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise ArtifactError(f"no artifact manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt artifact manifest at {manifest_path}: {exc}")
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"unknown artifact format {manifest.get('format')!r} "
            f"(expected {ARTIFACT_FORMAT!r})"
        )
    if manifest.get("version") not in _READABLE_VERSIONS:
        raise ArtifactError(
            f"unsupported artifact version {manifest.get('version')!r} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    return manifest


def _load_block(arrays, i: int, meta: dict, version: int) -> ConsistencyBlock:
    """Block ``i`` of an open ``arrays.npz``; version 1 stored it dense."""
    if version == 1:
        return ConsistencyBlock.from_dense(
            meta["platform_a"],
            meta["platform_b"],
            arrays[f"block_{i}_indices"],
            arrays[f"block_{i}_m"],
            arrays[f"block_{i}_d"],
            weight=meta["weight"],
        )
    return ConsistencyBlock(
        platform_a=meta["platform_a"],
        platform_b=meta["platform_b"],
        weight=meta["weight"],
        **{name: arrays[f"block_{i}_{name}"] for name in _BLOCK_ARRAYS},
    )


def load_linker(path, *, linker_cls: type[HydraLinker] = HydraLinker) -> HydraLinker:
    """Reconstruct a fitted :class:`HydraLinker` from an artifact directory.

    The loaded linker serves :meth:`~repro.core.hydra.HydraLinker.score_pairs`
    and :meth:`~repro.core.hydra.HydraLinker.linkage` with decision values
    bit-identical to the linker that was saved — no refitting happens.
    ``linker_cls`` lets :class:`HydraLinker` subclasses (custom stages or
    query behavior) reload as themselves; it must accept the base
    constructor keywords.
    """
    from repro import __version__

    path = Path(path)
    manifest = _read_manifest(path)
    saved_version = manifest.get("repro_version")
    if saved_version != __version__:
        # the format number guards the manifest/array layout; the pickled
        # state blob tracks library code, so a release skew deserves a
        # loud warning even when the artifact version still matches
        warnings.warn(
            f"artifact at {path} was written by repro {saved_version}; "
            f"this is repro {__version__} — pickled pipeline state may be "
            "incompatible; refit and re-save if scoring misbehaves",
            UserWarning,
            stacklevel=2,
        )
    arrays_path = path / _ARRAYS
    if not arrays_path.is_file():
        raise ArtifactError(f"artifact arrays missing at {arrays_path}")

    with np.load(arrays_path) as arrays:
        state = pickle.loads(arrays["state"].tobytes())
        model_x_train = arrays["model_x_train"]
        model_alpha = arrays["model_alpha"]
        model_beta = arrays["model_beta"]
        blocks = [
            _load_block(arrays, i, meta, manifest["version"])
            for i, meta in enumerate(manifest["blocks"])
        ]
        fast_scorer = None
        if "approx" in manifest and "approx_landmarks" in arrays:
            from repro.approx import FastScorer

            fast_scorer = FastScorer.from_persisted(manifest["approx"], arrays)

    config = manifest["config"]
    linker = linker_cls(
        missing_strategy=config["missing_strategy"],
        threshold=config["threshold"],
        use_prematched=config["use_prematched"],
        sigma1=config["consistency"]["sigma1"],
        sigma1_scale=config["consistency"]["sigma1_scale"],
        sigma2=config["consistency"]["sigma2"],
        max_hops=config["consistency"]["max_hops"],
        seed=config["seed"],
    )
    linker.moo_config = MooConfig(**config["moo"])
    linker.pipeline = state["pipeline"]
    linker._world = state["world"]
    linker._filler = state["filler"]

    model = MultiObjectiveModel(linker.moo_config)
    model.x_train_ = model_x_train
    model.alpha_ = model_alpha
    model.beta_ = model_beta if model_beta.size else None
    model.bias_ = float(manifest["model"]["bias"])
    model.objective_values_ = list(manifest["model"]["objective_values"])
    qp = manifest["model"]["qp"]
    if qp is not None:
        model.qp_result_ = QPResult(
            beta=model_beta,
            objective=float(qp["objective"]),
            iterations=int(qp["iterations"]),
            support_fraction=float(qp["support_fraction"]),
        )
    linker.model_ = model

    # the packed account store travels inside the state blob; artifacts from
    # pre-batch-engine pipelines (or blobs that dropped it) are re-packed
    # here, once, so serving never packs lazily — then cross-checked against
    # the manifest facts recorded at save time
    linker.pipeline.ensure_packed()
    expected = manifest.get("packed_store")
    if expected is not None:
        packed = linker.pipeline.packed_store
        if packed.num_accounts != expected["num_accounts"]:
            raise ArtifactError(
                f"packed store at {path} holds {packed.num_accounts} accounts; "
                f"manifest recorded {expected['num_accounts']}"
            )

    linker.platform_pairs_ = [tuple(p) for p in manifest["platform_pairs"]]
    linker.num_labeled_ = int(manifest["num_labeled"])
    linker.global_pairs_ = [_pair_from_json(p) for p in manifest["global_pairs"]]
    linker.candidates_ = _candidates_from_json(manifest["candidates"])
    linker.blocks_ = blocks
    linker.stage_timings_ = dict(manifest.get("stage_timings", {}))
    linker.ingest_epoch_ = int(manifest.get("ingest", {}).get("epoch", 0))
    # pre-approx artifacts leave this None; ensure_fast_scorer() rebuilds
    # the identical scorer (deterministic selection) on first approximate use
    linker.fast_scorer_ = fast_scorer
    return linker


def artifact_summary(path) -> dict:
    """Cheap artifact inspection: manifest facts without loading arrays."""
    path = Path(path)
    manifest = _read_manifest(path)
    summary = {
        "path": str(path),
        "format": manifest["format"],
        "version": manifest["version"],
        "repro_version": manifest.get("repro_version"),
        "platform_pairs": [tuple(p) for p in manifest["platform_pairs"]],
        "num_candidates": len(manifest["global_pairs"]),
        "num_labeled": manifest["num_labeled"],
        "missing_strategy": manifest["config"]["missing_strategy"],
        "kernel": manifest["config"]["moo"]["kernel"],
        "feature_dim": len(manifest["feature_names"]),
        "ingest_epoch": manifest.get("ingest", {}).get("epoch", 0),
    }
    if "shard" in manifest:
        summary["shard"] = manifest["shard"]
    return summary


# ----------------------------------------------------------------------
# scoring head: the decision function without the world
# ----------------------------------------------------------------------
def save_scoring_head(linker: HydraLinker, path) -> Path:
    """Write ``linker``'s decision function alone to directory ``path``.

    The head carries the kernel/MOO config, the dual expansion arrays, the
    bias, the decision threshold, and the feature-name schema — everything
    needed to turn featurized rows into scores, and nothing else.  Unlike a
    full artifact there is no pickled state blob, so loading a head is
    cheap and safe (pure JSON + arrays).
    """
    if linker.model_ is None:
        raise ArtifactError("linker is not fitted; fit() before save")
    model = linker.model_
    if model.x_train_ is None or model.alpha_ is None:
        raise ArtifactError("fitted model is missing its dual expansion state")

    from repro import __version__

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": HEAD_FORMAT,
        "version": HEAD_VERSION,
        "repro_version": __version__,
        "moo": {
            "gamma_l": model.config.gamma_l,
            "gamma_m": model.config.gamma_m,
            "p": model.config.p,
            "kernel": model.config.kernel,
            "kernel_params": dict(model.config.kernel_params),
            "max_smo_iterations": model.config.max_smo_iterations,
            "smo_tol": model.config.smo_tol,
            "reweight_iterations": model.config.reweight_iterations,
            "jitter": model.config.jitter,
        },
        "bias": model.bias_,
        "threshold": linker.threshold,
        "feature_names": list(linker.pipeline.feature_names),
    }
    head_arrays = {
        "x_train": model.x_train_,
        "alpha": model.alpha_,
        "beta": model.beta_ if model.beta_ is not None else np.zeros(0),
    }
    # the head carries the fit-time landmark selection too, so a sharded
    # router's approximate ranking uses the very same compressed kernel as
    # the single-process service
    fast_scorer = getattr(linker, "fast_scorer_", None)
    if fast_scorer is not None:
        manifest["approx"] = fast_scorer.manifest_entry()
        head_arrays.update(fast_scorer.arrays())
    (path / _HEAD_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )
    np.savez_compressed(path / _HEAD_ARRAYS, **head_arrays)
    return path


def load_scoring_head(path) -> dict:
    """Load a scoring head saved by :func:`save_scoring_head`.

    Returns ``{"model": MultiObjectiveModel, "feature_names": [...],
    "threshold": float, "fast_scorer": FastScorer | None}`` (the fast
    scorer is the fit-time Nyström landmark state when the head carries
    one); ``model.decision_function(x)`` reproduces the
    source linker's ``score_features`` bit for bit on identical feature
    rows, however they are chunked (the decision function is row-stable).
    """
    path = Path(path)
    manifest_path = path / _HEAD_MANIFEST
    if not manifest_path.is_file():
        raise ArtifactError(f"no scoring head at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt scoring head at {manifest_path}: {exc}")
    if manifest.get("format") != HEAD_FORMAT:
        raise ArtifactError(
            f"unknown head format {manifest.get('format')!r} "
            f"(expected {HEAD_FORMAT!r})"
        )
    if manifest.get("version") != HEAD_VERSION:
        raise ArtifactError(
            f"unsupported head version {manifest.get('version')!r} "
            f"(this build reads version {HEAD_VERSION})"
        )
    arrays_path = path / _HEAD_ARRAYS
    if not arrays_path.is_file():
        raise ArtifactError(f"scoring head arrays missing at {arrays_path}")
    with np.load(arrays_path) as arrays:
        x_train = arrays["x_train"]
        alpha = arrays["alpha"]
        beta = arrays["beta"]
        fast_scorer = None
        if "approx" in manifest and "approx_landmarks" in arrays:
            from repro.approx import FastScorer

            fast_scorer = FastScorer.from_persisted(manifest["approx"], arrays)
    model = MultiObjectiveModel(MooConfig(**manifest["moo"]))
    model.x_train_ = x_train
    model.alpha_ = alpha
    model.beta_ = beta if beta.size else None
    model.bias_ = float(manifest["bias"])
    return {
        "model": model,
        "feature_names": list(manifest["feature_names"]),
        "threshold": float(manifest["threshold"]),
        "fast_scorer": fast_scorer,
    }
