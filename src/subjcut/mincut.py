"""Exact binary labeling of items via a source/sink minimum cut.

Items are partitioned into a source class (class 1) and a sink class by
minimizing: class-2 scores over items placed in class 1, plus class-1 scores
over items placed in class 2, plus association scores over split pairs. The
graph realizes these as capacities, rounded to integers at the fixed ``SCALE``
so the cut is exact, by ``integer_instance`` alone: the oracles'
``scale_instance`` rounds, and refuses, as ``cut_band`` does. Each item gets
one terminal arc, weighing the difference of its rounded scores: that lowers
every labeling's cost by the same constant, so the minimum cuts are the
paper's (Kolmogorov & Zabih, PAMI 2004). Many instances are solved at once:
their graphs share only the source and the sink, so each instance's cut is
unaffected by the others. Every cut computed here is the canonical one: the
intersection of all minimum labelings' source sides.

``cut_band`` is the one cut. It takes the instances' scores as one array
with each instance's item count, and their pairs as a band, weights by item
and distance, as the program's proximity edges come; any instance of n items
is a band of reach n - 1. A narrow band is cut by each item's min-marginal
from a forward and a backward min-sum pass, a wider one by one max-flow
computation. The oracles check both: ``brute_force_min`` takes the minimum
of ``labeling_costs``, every labeling's cost at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .classifiers import IndividualScores

SCALE = 10**6
# scipy's max-flow keeps capacities as int32, and a residual capacity can
# reach an arc's capacity plus its reverse arc's; that sum must fit
CAPACITY_BOUND = 2**31 - 1
# ``_min_marginals`` keeps 2**reach labelings per item, so its time and memory
# double with each step of reach; on review-length batches it is about twice
# as fast as a max-flow computation at a reach of 6, and no faster at 7
BANDED_REACH_LIMIT = 6


@dataclass(frozen=True)
class AssociationScores:
    """One instance's symmetric pairwise scores, stored once per unordered pair
    (i < k), as the oracles take them."""

    pairs: Mapping[tuple[int, int], float]

    @classmethod
    def from_band(cls, weights: np.ndarray) -> AssociationScores:
        """The pairs of one instance's band, as ``band_pairs`` lists them."""
        pairs, values = band_pairs(weights)
        return cls(pairs=dict(zip(map(tuple, pairs.tolist()), values.tolist())))


def partition_cost(
    ind: IndividualScores, assoc: AssociationScores, source_side: Iterable[int]
) -> float:
    """Cost of assigning ``source_side`` to class 1 and the rest to class 2."""
    n = len(ind)
    side = np.fromiter(source_side, dtype=np.int64)
    outside = side[(side < 0) | (side >= n)]
    if outside.size:
        raise ValueError(f"source side item {outside[0]} lies outside [0, {n})")
    flags = np.zeros((n, 1), dtype=bool)
    flags[side] = True
    return float(_costs(ind, assoc, flags)[0])


def _costs(ind: IndividualScores, assoc: AssociationScores, sides: np.ndarray) -> np.ndarray:
    """The cost of each labeling, a column of the (items, labelings) flags
    ``sides``, true on its source side: the item terms in index order, then
    the split pairs' in ``assoc.pairs`` order, one float addition each."""
    costs = np.zeros(sides.shape[1])
    for i, on_source in enumerate(sides):
        costs += np.where(on_source, ind.class2[i], ind.class1[i])
    for (i, k), value in assoc.pairs.items():
        if not (0 <= i < k < len(ind) and math.isfinite(value)):
            raise ValueError(
                f"association pair ({i}, {k}) of weight {value} must join items"
                f" 0 <= i < k < {len(ind)} and be finite"
            )
        np.add(costs, value, out=costs, where=sides[i] != sides[k])
    return costs


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


@dataclass(frozen=True)
class CutResult:
    """A minimum partition: class-1 items and its cost over the raw scores."""

    source_side: tuple[int, ...]
    cost: float


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
    computation (``_source_side``); both give the canonical cut.
    """
    counts = instance_counts(counts)
    n, longest, docs = len(scores), int(counts.max(initial=0)), len(counts)
    if counts.sum() != n:
        raise ValueError(f"instance counts sum to {counts.sum()}, not to the {n} items")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != n:
        raise ValueError(f"{n} items but a band of shape {weights.shape}")
    reach = len(weights)
    instance = np.repeat(np.arange(docs), counts)
    position = np.arange(n) - (np.cumsum(counts) - counts)[instance]
    distance = np.arange(1, reach + 1)[:, None]
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
    banded = reach <= BANDED_REACH_LIMIT
    if banded and longest * (reach + 1) * CAPACITY_BOUND >= 2**63:
        raise ValueError(f"an instance of {longest} items at reach {reach} could overflow int64")
    class1, class2, caps = integer_instance(scores, weights)
    margin = class1 - class2
    if not caps.any():
        return margin > 0
    if banded:
        return _min_marginals(counts, instance, position, margin, caps)
    return _source_side(margin, *band_pairs(caps))


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


def scale_instance(
    ind: IndividualScores, assoc: AssociationScores
) -> tuple[IndividualScores, AssociationScores]:
    """The integer copy (``integer_instance``) of an instance that ``cut_band`` cuts, pairs
    of capacity 0 dropped: brute-forcing it gives costs exactly comparable to a cut's side."""
    weights = np.fromiter(assoc.pairs.values(), dtype=np.float64, count=len(assoc.pairs))
    class1, class2, caps = integer_instance(ind, weights)
    pairs = {key: float(cap) for key, cap in zip(assoc.pairs, caps.tolist()) if cap}
    return IndividualScores(class1=class1, class2=class2), AssociationScores(pairs=pairs)


BRUTE_FORCE_LIMIT = 20
ENUMERATION_CHUNK = 1 << 16


def labeling_costs(ind: IndividualScores, assoc: AssociationScores) -> np.ndarray:
    """The cost of every labeling of an instance of up to ``BRUTE_FORCE_LIMIT``
    items, at the bit mask of its source side: the float ``partition_cost``
    gives, priced ``ENUMERATION_CHUNK`` labelings at a time."""
    n = len(ind)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refused: n={n} exceeds {BRUTE_FORCE_LIMIT}")
    costs, items = np.empty(1 << n), np.arange(n)[:, None]
    for start in range(0, 1 << n, ENUMERATION_CHUNK):
        masks = np.arange(start, min(start + ENUMERATION_CHUNK, 1 << n))
        costs[start:start + len(masks)] = _costs(ind, assoc, masks >> items & 1 == 1)
    return costs


def brute_force_min(ind: IndividualScores, assoc: AssociationScores) -> CutResult:
    """Exhaustive minimum over all 2^n partitions, priced by ``labeling_costs``;
    the oracle for ``cut_band``.

    Ties break toward the lexicographically smallest sorted index tuple.
    Refuses instances with more than 20 items.
    """
    costs = labeling_costs(ind, assoc)
    ties, side = np.flatnonzero(costs == costs.min()), 0
    # every tied mask holds the bits of ``side`` and, past its last, only
    # later ones: ``side`` itself is the least tuple, else the least next item
    while ties[0] != side:
        rest = ties ^ side
        lowest = rest & -rest
        ties = ties[lowest == lowest.min()]
        side |= int(lowest.min())
    items = tuple(i for i in range(len(ind)) if side >> i & 1)
    return CutResult(source_side=items, cost=float(costs[side]))
