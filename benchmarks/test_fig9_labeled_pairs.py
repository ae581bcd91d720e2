"""Figure 9: performance vs number of labeled users (Chinese & English).

Paper protocol: fix the labeled:unlabeled ratio at 1:5 and scale the number
of users carrying labels from 1M to 5M; all five methods improve, HYDRA the
fastest, and English (2 platforms) outperforms Chinese (5 platforms).

We scale population size with the same 1:6 label fraction.  Expected shape:
HYDRA-M dominates every baseline at every size; the English data set scores
at least as high as the Chinese one for HYDRA.
"""


from repro.eval.experiments import (
    HARD_WORLD_OVERRIDES,
    chinese_chain_pairs,
    chinese_world,
    default_method_factories,
    english_world,
    run_method_comparison,
)

METHODS = ("HYDRA-M", "SVM-B", "MOBIUS", "Alias-Disamb", "SMaSh")
EN_SIZES = (24, 40, 56)
ZH_SIZES = (14, 22, 30)


def _run_dataset(dataset: str, sizes):
    rows = []
    for size in sizes:
        if dataset == "english":
            world = english_world(size, seed=90 + size, **HARD_WORLD_OVERRIDES)
            platform_pairs = None
        else:
            world = chinese_world(size, seed=90 + size, **HARD_WORLD_OVERRIDES)
            platform_pairs = chinese_chain_pairs()
        results = run_method_comparison(
            world,
            platform_pairs=platform_pairs,
            seed=90 + size,
            methods=default_method_factories(seed=90 + size, include=METHODS),
        )
        for result in results:
            rows.append(
                [dataset, size, result.method,
                 result.metrics.precision, result.metrics.recall]
            )
    return rows


def test_fig9_english(once, write_table):
    rows = once(_run_dataset, "english", EN_SIZES)
    write_table(
        "fig9_english",
        "Fig 9(c,d) — precision/recall vs #labeled users (English)",
        ["dataset", "users", "method", "precision", "recall"],
        rows,
    )
    _assert_hydra_wins(rows)


def test_fig9_chinese(once, write_table):
    rows = once(_run_dataset, "chinese", ZH_SIZES)
    write_table(
        "fig9_chinese",
        "Fig 9(a,b) — precision/recall vs #labeled users (Chinese)",
        ["dataset", "users", "method", "precision", "recall"],
        rows,
    )
    _assert_hydra_wins(rows)


def _assert_hydra_wins(rows):
    """HYDRA-M must beat every baseline on F1 at the largest size."""
    largest = max(r[1] for r in rows)
    at_largest = {r[2]: (r[3], r[4]) for r in rows if r[1] == largest}

    def f1(pr):
        p, r = pr
        return 2 * p * r / (p + r) if p + r else 0.0

    hydra = f1(at_largest["HYDRA-M"])
    for method, pr in at_largest.items():
        if method != "HYDRA-M":
            assert hydra >= f1(pr) - 1e-9, f"HYDRA-M lost to {method}"
