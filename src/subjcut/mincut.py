"""Exact binary labeling of items via a source/sink minimum cut.

Items are partitioned into a source class (class 1) and a sink class by
minimizing: class-2 scores over items placed in class 1, plus class-1 scores
over items placed in class 2, plus association scores over split pairs. The
graph realizes these as capacities, rounded to integers at the fixed ``SCALE``
so the cut is exact, by ``integer_instance`` alone, for the cut and the
oracles alike; ``_checked_band`` refuses for both. Each item gets one terminal
arc, weighing the difference of its rounded scores: that lowers every
labeling's cost by the same constant, so the minimum cuts are the paper's
(Kolmogorov & Zabih, PAMI 2004). Many instances are solved at once, a batch at
a time: their graphs share only the source and the sink, so each instance's
cut is unaffected by the others. Every cut computed here is the canonical one:
the intersection of all minimum labelings' source sides.

``cut_band`` is the one cut. It takes the instances' scores as one array
with each instance's item count, and their pairs as a band, weights by item
and distance, as the program's proximity edges come; any instance of n items
is a band of reach n - 1. A narrow band is cut by each item's min-marginal
from a forward and a backward min-sum pass, a wider one by one max-flow
computation. The oracles check both, on one instance in the same form:
``labeling_costs`` prices every labeling exactly in int64, and
``brute_force_min`` returns the intersection of the minimum ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from . import features
from .classifiers import IndividualScores

SCALE = 10**6
# scipy's max-flow keeps capacities as int32, and a residual capacity can
# reach an arc's capacity plus its reverse arc's; that sum must fit
CAPACITY_BOUND = 2**31 - 1
# ``_min_marginals`` keeps 2**reach labelings per item, so its time and memory
# double with each step of reach; on review-length batches it is about twice
# as fast as a max-flow computation at a reach of 6, and no faster at 7
BANDED_REACH_LIMIT = 6


def integer_instance(scores: IndividualScores, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """An instance's class-1 scores, class-2 scores and pair capacities as int64 at
    ``SCALE``, rounded half to even, which keeps them unbiased. A NaN is refused, as is a
    size above ``CAPACITY_BOUND``, or above half of it for a pair, whose arc runs both ways."""
    rounded = []
    for values, limit, what in (
        (scores.class1, CAPACITY_BOUND, "class-1 score"),
        (scores.class2, CAPACITY_BOUND, "class-2 score"),
        (np.asarray(weights, dtype=np.float64), CAPACITY_BOUND // 2, "association weight"),
    ):
        scaled = np.rint(values * SCALE)
        if scaled.size and not -limit <= scaled.min() <= scaled.max() <= limit:
            worst = values.flat[np.abs(scaled).argmax()]  # the first NaN, if any
            raise ValueError(
                f"{what} {worst} at scale {SCALE} exceeds the solver's"
                " bound: an arc's capacities in both directions must sum to at most 2**31 - 1"
            )
        rounded.append(scaled.astype(np.int64))
    return tuple(rounded)


def band_pairs(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs and values of a band, whose ``weights[d - 1, i]`` weighs the
    pair (i, i + d): in (i, d) order, zero weights omitted."""
    keep = weights.T != 0.0
    first, distance = np.nonzero(keep)
    return np.stack([first, first + distance + 1], axis=1), weights.T[keep]


def instance_counts(counts: Sequence[int]) -> np.ndarray:
    """``counts`` as int64, refused with a ``ValueError`` unless integers >= 0."""
    counts = np.asarray(counts)
    if counts.size and (counts.dtype.kind not in "iu" or counts.min() < 0):
        raise ValueError(f"instance counts must be integers >= 0, got {counts.tolist()}")
    return counts.astype(np.int64)


def _checked_band(
    scores: IndividualScores, counts: Sequence[int], weights: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``cut_band``'s counts, each item's instance and position in it, and its
    float64 band, once its refusals pass; the oracles refuse through it too."""
    counts = instance_counts(counts)
    n, docs = len(scores), len(counts)
    if counts.sum() != n:
        raise ValueError(f"instance counts sum to {counts.sum()}, not to the {n} items")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != n:
        raise ValueError(f"{n} items but a band of shape {weights.shape}")
    instance = np.repeat(np.arange(docs), counts)
    position = np.arange(n) - (np.cumsum(counts) - counts)[instance]
    distance = np.arange(1, len(weights) + 1)[:, None]
    leaves = (distance >= (counts[instance] - position)) & (weights != 0)
    for bad, problem in (
        (leaves & (distance + np.arange(n) >= n), f"runs past the last item, {n - 1}"),
        (leaves, "spans two instances"),
        (~(np.isfinite(weights) & (weights >= 0)), "must weigh a finite value >= 0"),
    ):
        if bad.any():
            d, i = np.unravel_index(bad.argmax(), bad.shape)
            raise ValueError(
                f"association pair ({i}, {i + d + 1}) of weight {weights[d, i]} {problem}"
            )
    return counts, instance, position, weights


def cut_band(scores: IndividualScores, counts: Sequence[int], weights: np.ndarray) -> np.ndarray:
    """The canonical minimum cut of every instance: one flag per item, true
    for the source side (class 1).

    The items of ``scores`` are numbered in one sequence, instance after
    instance, ``counts[k]`` of them for instance k; counts that are not
    integers >= 0 or do not sum to the items are refused. ``weights`` is
    their (reach, items) band: ``weights[d - 1, i]`` weighs the pair
    (i, i + d), finite and >= 0, and 0 where i + d lies beyond i's
    instance. Any instance of n items is a band of reach n - 1. Real-valued
    scores and weights are rounded by ``integer_instance`` so the cut is
    exact; a capacity beyond the solver's int32 bound is refused.

    A band without a pair arc, such as a strength-0 one, needs no graph: the
    source side is the items whose rounded class-1 score is the larger. Else
    a band of reach at most ``BANDED_REACH_LIMIT`` is cut by its items'
    min-marginals (``_min_marginals``), a wider one by one max-flow
    computation (``_source_side``); both give the canonical cut, and run on
    ``features.batches`` of ``CUT_BATCH_SENTENCES`` items, which bounds their memory.
    """
    counts, instance, position, weights = _checked_band(scores, counts, weights)
    reach, longest = len(weights), int(counts.max(initial=0))
    banded = reach <= BANDED_REACH_LIMIT
    if banded and longest * (reach + 1) * CAPACITY_BOUND >= 2**63:
        raise ValueError(f"an instance of {longest} items at reach {reach} could overflow int64")
    class1, class2, caps = integer_instance(scores, weights)
    margin = class1 - class2
    if not caps.any():
        return margin > 0
    keep, first = np.zeros(len(margin), dtype=bool), np.cumsum([0, *counts])
    for batch in features.batches(counts, features.CUT_BATCH_SENTENCES):
        a, b = batch.start, batch.stop
        rows, band = slice(first[a], first[b]), caps[:, first[a] : first[b]]
        keep[rows] = (
            _min_marginals(counts[a:b], instance[rows] - a, position[rows], margin[rows], band)
            if banded else _source_side(margin[rows], *band_pairs(band))
        )
    return keep


def _source_side(margin: np.ndarray, pairs: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The canonical cut by one max-flow computation, given each item's
    rounded class-1 minus class-2 score and the pair arcs' capacities.

    An item's terminal arc leaves the source if its margin is positive, else
    it enters the sink, with the margin's size as capacity; a tie gives no
    arc. The source side is the set of items reachable from the source in
    the final residual graph, i.e. the unique minimum cut with smallest
    source side, which makes results deterministic when several minimum
    cuts exist.
    """
    n = len(margin)
    source, sink = n, n + 1
    items = np.arange(n)
    u, v = pairs.T
    rows = np.concatenate([np.where(margin > 0, source, items), u, v])
    cols = np.concatenate([np.where(margin > 0, items, sink), v, u])
    caps = np.concatenate([np.abs(margin), caps, caps])
    arcs = caps > 0
    graph = csr_matrix(
        (caps[arcs].astype(np.int32), (rows[arcs], cols[arcs])), shape=(n + 2, n + 2)
    )
    flow = maximum_flow(graph, source, sink).flow

    residual = graph.astype(np.int64) - flow.astype(np.int64)
    residual.data[residual.data < 0] = 0
    residual.eliminate_zeros()
    side = np.zeros(n + 2, dtype=bool)
    side[breadth_first_order(residual, source, return_predecessors=False)] = True
    return side[:n]


def _min_marginals(
    counts: np.ndarray,
    instance: np.ndarray,
    position: np.ndarray,
    margin: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """The canonical cut of a narrow band without a max-flow, given each
    instance's item count, each item's instance and position in it, its
    rounded class-1 minus class-2 score, and the band's capacities.

    A labeling costs what its cut does in ``_source_side``'s graph. A forward
    and a backward min-sum pass over item positions, all instances at once,
    keep per instance the least cost of each labeling of the last ``reach``
    items: the 2**reach states, whose bit k - 1 holds the label of the item
    k back from the next one (1 on the source side). Their sum at an item is
    the least cost of the labelings through each state, so an item is on the
    source side exactly when every labeling with it on the sink side costs
    more than the minimum: the intersection of all minimum labelings' source
    sides, which is the side the residual search of ``_source_side`` gives.
    """
    reach, n = caps.shape
    longest, docs = int(counts.max(initial=0)), len(counts)
    # one column per item, position by position; at each position the
    # instances that reach it come first, longest first
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(docs, dtype=np.int64)
    rank[order] = np.arange(docs)
    active = docs - np.cumsum(np.bincount(counts, minlength=longest))[:longest]
    first = np.concatenate([[0], np.cumsum(active)])
    column = first[position] + rank[instance]
    # entering[k - 1, c]: the capacity joining item c to the item k back
    entering = np.zeros((reach, n), dtype=np.int64)
    for k in range(1, reach + 1):
        entering[k - 1, column[k:]] = caps[k - 1, :-k]  # 0 across instances
    gain = np.zeros(n, dtype=np.int64)
    gain[column] = margin
    # sink[s, c]: what item c costs on the sink side after state s; on the
    # source side it costs ``either[c] - sink[s, c]``
    states, half = 1 << reach, 1 << reach - 1
    sink = np.empty((states, n), dtype=np.int64)
    np.maximum(gain, 0, out=sink[0])
    for k in range(reach):
        np.add(sink[:1 << k], entering[k], out=sink[1 << k:2 << k])
    either = entering.sum(axis=0) + np.abs(gain)

    # a state's new label enters at bit 0 and its oldest (bit reach - 1) leaves:
    # viewed as (oldest, rest), the next state is (rest, new label)
    forward = np.empty((states, n), dtype=np.int64)
    best = np.zeros((states, docs), dtype=np.int64)
    for j in range(longest):
        here, m = slice(first[j], first[j + 1]), active[j]
        to_sink = (best[:, :m] + sink[:, here]).reshape(2, half, m)
        to_source = (best[:, :m] - sink[:, here]).reshape(2, half, m)
        best = forward[:, here]
        np.minimum(to_sink[0], to_sink[1], out=best[0::2])
        np.minimum(to_source[0], to_source[1], out=best[1::2])
        best[1::2] += either[here]
    # held_out[s, c]: the least cost of the labelings through state s with
    # item c on the sink side (s even), counting the items after c
    held_out = np.empty((half, n), dtype=np.int64)
    after = np.zeros((states, docs), dtype=np.int64)  # 0 beyond an instance's end
    for j in range(longest - 1, -1, -1):
        here, m = slice(first[j], first[j + 1]), active[j]
        held_out[:, here] = after[0::2, :m]
        step = sink[:, here].reshape(2, half, m)
        after[:, :m] = np.minimum(
            step + after[0::2, :m], after[1::2, :m] + either[here] - step
        ).reshape(states, m)
    held_out += forward[0::2]
    optimum = np.zeros(docs, dtype=np.int64)
    ends = counts > 0
    optimum[ends] = forward[:, first[counts[ends] - 1] + rank[ends]].min(axis=0)
    return held_out.min(axis=0)[column] > optimum[instance]


BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class CutResult:
    """``brute_force_min``'s side and its integer cost at ``SCALE``: a class
    because ``bench/tests/test_bench_oracle.py`` reads these two fields."""

    source_side: tuple[int, ...]
    cost: int


def labeling_costs(scores: IndividualScores, band: np.ndarray) -> np.ndarray:
    """The int64 cost at ``SCALE`` of every labeling of one instance of up to
    ``BRUTE_FORCE_LIMIT`` items, refused and rounded as by ``cut_band``, at the
    bit mask of its source side: class 2 for each source-side item, class 1
    for each sink-side item, and each split pair's capacity."""
    n = len(scores)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refused: n={n} exceeds {BRUTE_FORCE_LIMIT}")
    class1, class2, caps = integer_instance(scores, _checked_band(scores, [n], band)[3])
    costs = np.zeros(1, dtype=np.int64)
    for i in range(n):
        # the labelings so far with item i on the sink side, then on the source
        # side (bit i); ``joined`` weighs i's pairs to source-side items
        masks, joined, total = np.arange(len(costs)), np.zeros_like(costs), 0
        for d in range(1, min(len(caps), i) + 1):
            joined += caps[d - 1, i - d] * ((masks >> (i - d)) & 1)
            total += caps[d - 1, i - d]
        costs = np.concatenate([costs + class1[i] + joined, costs + class2[i] + total - joined])
    return costs


def brute_force_min(scores: IndividualScores, band: np.ndarray) -> CutResult:
    """The canonical cut of ``labeling_costs``' instance: the bitwise AND of
    all minimum labelings' masks, itself a minimum, as they form a lattice."""
    costs = labeling_costs(scores, band)
    side = int(np.bitwise_and.reduce(np.flatnonzero(costs == costs.min())))
    return CutResult(tuple(i for i in range(len(scores)) if side >> i & 1), int(costs[side]))


@dataclass(frozen=True)
class AssociationScores:
    """One instance's pair weights by (i, k), i < k: ``scale_instance``'s
    input, kept because ``bench/tests/test_bench_oracle.py`` builds it."""

    pairs: Mapping[tuple[int, int], float]


def scale_instance(
    ind: IndividualScores, assoc: AssociationScores
) -> tuple[IndividualScores, np.ndarray]:
    """``ind`` and its pairs as the band of reach n - 1 that ``brute_force_min``
    takes, refusing a pair that is not 0 <= i < k < n; kept, as
    ``AssociationScores`` is, for ``bench/tests/test_bench_oracle.py``."""
    n = len(ind)
    band = np.zeros((max(n - 1, 0), n))
    for (i, k), value in assoc.pairs.items():
        if not 0 <= i < k < n:
            raise ValueError(f"association pair ({i}, {k}) is not 0 <= i < k < {n}")
        band[k - i - 1, i] = value
    return ind, band
