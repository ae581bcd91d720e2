"""Section 7.5: sparsity statistics of the fitted model.

Paper: "the structure consistency matrix M ... typically contains less than
1 % non-zero elements"; "at least 90 % of the dimensions in beta are zeros on
a million-scale data".  At laptop scale the exact percentages shift with the
candidate density, but M must be sparse and beta must have shrinking support.
"""


from repro.core import HydraLinker
from repro.eval.experiments import FAST_FEATURE_SETTINGS, english_world
from repro.eval.harness import ExperimentHarness


def _run():
    world = english_world(40, seed=170)
    harness = ExperimentHarness(world, seed=170)
    linker = HydraLinker(seed=170, max_hops=1, **FAST_FEATURE_SETTINGS)
    linker.fit(
        world,
        harness.split.labeled_positive,
        harness.split.labeled_negative,
        harness.platform_pairs,
        candidates=harness.candidates,
    )
    return linker.sparsity_report()


def test_sparsity_statistics(once, write_table):
    report = once(_run)
    write_table(
        "sparsity_stats",
        "Section 7.5 — sparsity of the fitted HYDRA model (max_hops = 1)",
        ["statistic", "value"],
        [[k, v] for k, v in report.items()],
    )
    assert report["consistency_nonzero_fraction"] < 0.05, (
        "M must be sparse (paper: < 1 % at production scale)"
    )
    assert report["beta_support_fraction"] <= 1.0
    assert report["num_candidates"] > report["num_labeled"]
