"""repro — a full reproduction of HYDRA (SIGMOD 2014).

HYDRA: Large-scale Social Identity Linkage via Heterogeneous Behavior
Modeling (Liu, Wang, Zhu, Zhang, Krishnan).

Quickstart::

    from repro import HydraLinker, WorldConfig, generate_world

    world = generate_world(WorldConfig(num_persons=60, seed=0))
    true_pairs = world.true_pairs("facebook", "twitter")
    labeled = [(("facebook", a), ("twitter", b)) for a, b in true_pairs[:10]]
    negatives = [(labeled[i][0], labeled[(i + 1) % 10][1]) for i in range(10)]

    linker = HydraLinker().fit(world, labeled, negatives)
    result = linker.linkage("facebook", "twitter")

Subpackages
-----------
``repro.text``       — tokenizer, vocabulary, LDA (Gibbs + variational),
                       sentiment, style extraction.
``repro.socialnet``  — platforms/accounts/profiles, interaction graph,
                       communities, columnar event store.
``repro.datagen``    — the synthetic multi-platform world generator.
``repro.features``   — the Section 5 heterogeneous behavior model.
``repro.core``       — candidates, structure consistency, the multi-objective
                       learner, the staged HYDRA estimator.
``repro.baselines``  — MOBIUS, Alias-Disamb, SMaSh, SVM-B.
``repro.eval``       — metrics, harness, per-figure experiment configs.
``repro.persist``    — versioned on-disk artifacts for fitted linkers.
``repro.serving``    — the batch-scoring query service over artifacts.
``repro.gateway``    — the asyncio HTTP front-end: request coalescing,
                       admission control, client, and load harness.
"""

from repro.core.hydra import HydraLinker, LinkageResult
from repro.datagen.generator import (
    PlatformSpec,
    WorldConfig,
    chinese_platform_specs,
    english_platform_specs,
    generate_world,
)
from repro.eval.harness import ExperimentHarness
from repro.eval.metrics import precision_recall_f1
from repro.features.pipeline import FeaturePipeline
from repro.socialnet.platform import SocialWorld

__version__ = "1.1.0"

from repro.persist import load_linker, save_linker  # noqa: E402  (needs __version__)
from repro.serving import LinkageService  # noqa: E402

__all__ = [
    "HydraLinker",
    "LinkageService",
    "load_linker",
    "save_linker",
    "LinkageResult",
    "PlatformSpec",
    "WorldConfig",
    "chinese_platform_specs",
    "english_platform_specs",
    "generate_world",
    "ExperimentHarness",
    "precision_recall_f1",
    "FeaturePipeline",
    "SocialWorld",
    "__version__",
]
