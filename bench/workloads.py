"""Fixed case lists of the two benchmark workloads.

Pure data: importing this module does not import heckelift, so the parent
process can read case counts and reasons without loading the library.
A case is a tuple; its key names it in the reference digests.

Every list is sized so that running each case once from cold memos takes
1-5 s on a 2-core machine, which leaves room to repeat every case ten or
more times within one run: on a shared host the fastest of repetitions
spread over the run is the steadiest figure.  The sweep-sized lists they
are cut from take 18-45 s per pass.

A workload's golden probes run at the end of its sweep pass only, after
every figure of the pass is taken, so they move no metric: each is checked
key by key against its file in tests/golden.
"""

from __future__ import annotations

from math import gcd

GRID_MAX_PD = 9
GRID_MAX_M = 5
GOLDEN_PROBES = ((2, 3, 4), (2, 3, 6))
LMOV_DEGREE = 3
LMOV_FRAMINGS = tuple(range(-3, 4))


def _grid(orders, max_pd, max_m):
    return sorted(
        (d, m, p)
        for p in orders
        for d in (1, 2, 3)
        for m in range(1, max_m + 1)
        if gcd(d, m) == 1 and p * d <= max_pd
    )


def _partitions(n, largest=None):
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [
        (part,) + rest
        for part in range(min(n, largest), 0, -1)
        for rest in _partitions(n - part, part)
    ]


WORKLOADS = {
    "prime_grid": {
        "why": "the default sweep grid cut to m <= 5 and p*d <= 9, with limit checks: "
        "29 PASS cases on the bracket route, to_z2 and exact_div; "
        "T(2,3) p=4, 6 checked against tests/golden",
        "cases": _grid((2, 3, 5), GRID_MAX_PD, GRID_MAX_M),
        "golden": list(GOLDEN_PROBES),
    },
    "lmov_deg3": {
        "why": "lmov_verdict for every mu with |mu| <= 3 on U_-3..U_3: "
        "42 verdicts dominated by RingFraction add/mul and resolve",
        "cases": [
            (t, mu)
            for t in LMOV_FRAMINGS
            for w in range(1, LMOV_DEGREE + 1)
            for mu in _partitions(w)
        ],
    },
}


def case_key(workload: str, case: tuple) -> str:
    """Stable human-readable name of one case."""
    if workload == "prime_grid":
        d, m, p = case
        return f"T({d},{m}) p={p}"
    t, mu = case
    return f"U_{t} mu={'+'.join(map(str, mu))} deg={LMOV_DEGREE}"


def order_group(workload: str, case: tuple) -> tuple:
    """Cases of one group run back to back, in list order, from cold memos.

    lmov_verdict memoizes a knot's amplitudes, so the first case of a knot
    pays for the rest, as it does when a user checks one knot; running each
    verdict from cold memos instead would recompute the knot's amplitudes
    six times.  Keeping whole knots together also keeps the set of cases
    that pay fixed, so the per-case percentiles do not move with the order
    the seed draws.
    """
    if workload == "lmov_deg3":
        return case[:1]
    return case


def tail_percentile(n_cases: int) -> int:
    """Highest whole percentile with at least ten of n_cases beyond it."""
    if n_cases <= 10:
        raise ValueError(f"{n_cases} cases leave no percentile with ten beyond it")
    return (100 * (n_cases - 10)) // n_cases
