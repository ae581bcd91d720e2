"""Figure 2(a): statistics of missing profile information across platforms.

Paper: "At least 80 % of users are missing at least two profile attributes
out of the six most popular ones, and merely 5 % of users have all attributes
filled up", with the dominant patterns enumerated on the x-axis.

This bench generates the 7-platform world and reports (i) the distribution of
missing-attribute counts and (ii) the top missing patterns, checking both
paper claims.
"""

from collections import Counter


from repro.eval.experiments import cross_cultural_world


def _collect_missing_stats(num_persons: int, seed: int):
    world = cross_cultural_world(num_persons, seed=seed)
    count_hist: Counter[int] = Counter()
    pattern_hist: Counter[tuple[str, ...]] = Counter()
    total = 0
    for account in world.iter_accounts():
        missing = account.profile.missing_attributes()
        count_hist[len(missing)] += 1
        pattern_hist[missing] += 1
        total += 1
    return count_hist, pattern_hist, total


def test_fig2a_missing_information(once, write_table):
    count_hist, pattern_hist, total = once(_collect_missing_stats, 60, 2)

    rows = [
        [k, count_hist.get(k, 0), 100.0 * count_hist.get(k, 0) / total]
        for k in range(7)
    ]
    write_table(
        "fig2a_missing_counts",
        "Fig 2(a) — users by number of missing profile attributes",
        ["#missing", "users", "percent"],
        rows,
    )
    pattern_rows = [
        ["+".join(p) if p else "none missing", c, 100.0 * c / total]
        for p, c in pattern_hist.most_common(12)
    ]
    write_table(
        "fig2a_missing_patterns",
        "Fig 2(a) — dominant missing-attribute patterns",
        ["pattern", "users", "percent"],
        pattern_rows,
    )

    at_least_two = sum(c for k, c in count_hist.items() if k >= 2) / total
    complete = count_hist.get(0, 0) / total
    assert at_least_two >= 0.75, "paper: at least 80 % missing >= 2 attributes"
    assert complete <= 0.10, "paper: merely 5 % of users complete"
