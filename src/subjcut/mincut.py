"""Exact binary labeling of items via a source/sink minimum cut.

Items are partitioned into a source class (class 1) and a sink class by
minimizing: class-2 scores over items placed in class 1, plus class-1 scores
over items placed in class 2, plus association scores over split pairs. The
graph realizes these as capacities, rounded to integers so the cut is exact.
Each item gets one terminal arc, weighing the difference of its rounded
scores: that lowers every labeling's cost by the same constant, so the
minimum cuts are the paper's (Kolmogorov & Zabih, PAMI 2004). Many instances
are solved at once: their graphs share only the source and the sink, so each
instance's cut is unaffected by the others. Every cut computed here is the
canonical one: the intersection of all minimum labelings' source sides.

Two solvers compute it. ``banded_flags`` takes instances whose pairs join
items at most a few apart, as the program's proximity bands do, and finds
each item's min-marginal by a forward and a backward min-sum pass. Any other
network is built, and checked, by ``build_network`` from arrays that hold a
whole batch, and ``source_flags`` cuts it with one max-flow computation;
``min_cut`` prices each instance's cut for the oracles, such as brute-force
enumeration over ``AssociationScores``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .classifiers import IndividualScores

DEFAULT_SCALE = 10**6
# scipy's max-flow keeps capacities as int32, and a residual capacity can
# reach an arc's capacity plus its reverse arc's; that sum must fit
CAPACITY_BOUND = 2**31 - 1
# ``banded_flags`` keeps 2**reach labelings per item, so its time and memory
# double with each step of reach; on review-length batches it is about twice
# as fast as a max-flow computation at a reach of 6, and no faster at 7
BANDED_REACH_LIMIT = 6


@dataclass(frozen=True)
class AssociationScores:
    """One instance's symmetric pairwise scores, stored once per unordered pair
    (i < k), as the oracles take them; ``build_network``, through
    ``stack_instances``, checks them."""

    pairs: Mapping[tuple[int, int], float]


def partition_cost(
    ind: IndividualScores, assoc: AssociationScores, source_side: Iterable[int]
) -> float:
    """Cost of assigning ``source_side`` to class 1 and the rest to class 2."""
    chosen = set(source_side)
    cost = 0.0
    for i in range(len(ind)):
        cost += ind.class2[i] if i in chosen else ind.class1[i]
    for (i, k), value in assoc.pairs.items():
        if (i in chosen) != (k in chosen):
            cost += value
    return cost


@dataclass(frozen=True)
class FlowNetwork:
    """The cut graphs of several instances, sharing one source and one sink.

    Items of all instances are numbered in one sequence, instance j owning
    items ``offsets[j]:offsets[j + 1]``; ``pairs`` holds every association
    pair in these numbers and ``owners`` its instance. The raw scores are kept
    for the cost, the integer-scaled ones for the flow; a pair whose weight
    rounds to 0 has no arc.
    """

    scale_factor: int
    offsets: np.ndarray
    class1: np.ndarray
    class2: np.ndarray
    pairs: np.ndarray  # shape (pairs, 2)
    owners: np.ndarray
    pair_values: np.ndarray
    toward_source: np.ndarray
    toward_sink: np.ndarray
    pair_capacities: np.ndarray

    @property
    def n(self) -> int:
        return len(self.class1)

    @property
    def arc_count(self) -> int:
        """The paper's 2n terminal arcs plus one per nonzero association edge;
        the solver is given at most n terminal arcs (see ``source_flags``)."""
        return 2 * self.n + int(np.count_nonzero(self.pair_capacities))


def _capacities(values: np.ndarray, scale_factor: int, limit: int, what: str) -> np.ndarray:
    scaled = np.rint(values * scale_factor)  # half to even keeps the weights unbiased
    if scaled.size and scaled.max() > limit:
        raise ValueError(
            f"{what} {values.flat[scaled.argmax()]} at scale {scale_factor} exceeds the solver's"
            " bound: an arc's capacities in both directions must sum to at most 2**31 - 1"
        )
    return scaled.astype(np.int64)


def pair_capacities(values: np.ndarray, scale_factor: int = DEFAULT_SCALE) -> np.ndarray:
    """Integer capacities of association weights; both directions of an
    association arc carry one, so a weight beyond half the bound is refused."""
    return _capacities(values, scale_factor, CAPACITY_BOUND // 2, "association weight")


def build_network(
    scores: Sequence[IndividualScores],
    pairs: np.ndarray,
    values: np.ndarray,
    scale_factor: int = DEFAULT_SCALE,
) -> FlowNetwork:
    """Build the cut graphs of many instances: per instance, n source arcs,
    n sink arcs and one edge per nonzero pair.

    The items of ``scores`` are numbered in one sequence, instance after
    instance. ``pairs`` is an (m, 2) array of association pairs (i, k) in
    these numbers, with i < k in the same instance, and ``values`` their
    weights, finite and >= 0. Real-valued scores are rounded to integers at
    ``scale_factor`` so the flow computation terminates exactly; a capacity
    beyond the solver's int32 bound is refused.
    """
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    offsets = np.cumsum([0] + [len(ind) for ind in scores])
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(pairs),):
        raise ValueError(f"{len(pairs)} association pairs but values of shape {values.shape}")
    first, second = pairs.T
    owners = np.searchsorted(offsets, first, side="right") - 1
    for bad, problem in (
        ((first < 0) | (first >= second), "must satisfy 0 <= i < k"),
        (second >= offsets[-1], f"is out of range for n={offsets[-1]}"),
        (second >= offsets[np.minimum(owners + 1, len(offsets) - 1)], "spans two instances"),
        (~(np.isfinite(values) & (values >= 0)), "must weigh a finite value >= 0"),
    ):
        if bad.any():
            (i, k), value = pairs[bad.argmax()].tolist(), values[bad.argmax()]
            raise ValueError(f"association pair ({i}, {k}) of weight {value} {problem}")
    c1 = np.concatenate([np.zeros(0)] + [ind.class1 for ind in scores])
    c2 = np.concatenate([np.zeros(0)] + [ind.class2 for ind in scores])
    return FlowNetwork(
        scale_factor=scale_factor,
        offsets=offsets,
        class1=c1,
        class2=c2,
        pairs=pairs,
        owners=owners,
        pair_values=values,
        toward_source=_capacities(c1, scale_factor, CAPACITY_BOUND, "class-1 score"),
        toward_sink=_capacities(c2, scale_factor, CAPACITY_BOUND, "class-2 score"),
        pair_capacities=pair_capacities(values, scale_factor),
    )


def stack_instances(
    instances: Iterable[tuple[IndividualScores, AssociationScores]],
) -> tuple[list[IndividualScores], np.ndarray, np.ndarray]:
    """``build_network``'s arguments for instances whose pairs are given as
    ``AssociationScores``, renumbered after the items of earlier instances."""
    scores, pairs, values, first = [], [], [], 0
    for ind, assoc in instances:
        scores.append(ind)
        pairs += [(i + first, k + first) for i, k in assoc.pairs]
        values += assoc.pairs.values()
        first += len(ind)
    return scores, np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(values, dtype=float)


@dataclass(frozen=True)
class CutResult:
    """A minimum partition: class-1 items, its cost over the raw scores, and
    the integer max-flow value when one was computed."""

    source_side: tuple[int, ...]
    cost: float
    max_flow_value: int | None = None


def source_flags(net: FlowNetwork) -> np.ndarray:
    """The canonical minimum cut of every instance in the network: one flag
    per item, true for the source side (class 1).

    One max-flow computation solves all instances. An item's terminal arc
    leaves the source if its rounded class-1 score is the larger, else it
    enters the sink, with their difference as capacity; a tie gives no arc.
    The source side is the set of items reachable from the source in the
    final residual graph, i.e. the unique minimum cut with smallest source
    side, which makes results deterministic when several minimum cuts exist.
    The network is not mutated. A network without a pair arc, such as a
    strength-0 one, has no path from source to sink: there the source side
    is the items whose terminal arc leaves the source, and no graph is built.
    """
    if not net.pair_capacities.any():
        return net.toward_source > net.toward_sink
    n = net.n
    source, sink = n, n + 1
    items = np.arange(n)
    margin = net.toward_source - net.toward_sink
    u, v = net.pairs.T
    rows = np.concatenate([np.where(margin > 0, source, items), u, v])
    cols = np.concatenate([np.where(margin > 0, items, sink), v, u])
    caps = np.concatenate([np.abs(margin), net.pair_capacities, net.pair_capacities])
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


def band_pairs(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``build_network``'s pairs and values for a band, whose ``weights[d - 1, i]``
    weighs the pair (i, i + d): in (i, d) order, zero weights omitted."""
    keep = weights.T != 0.0
    first, distance = np.nonzero(keep)
    return np.stack([first, first + distance + 1], axis=1), weights.T[keep]


def banded_flags(
    scores: Sequence[IndividualScores], weights: np.ndarray, scale_factor: int = DEFAULT_SCALE
) -> np.ndarray:
    """The canonical minimum cut of instances whose pairs join items at most
    ``reach`` apart, without a max-flow: one flag per item, the same as
    ``source_flags(build_network(scores, *band_pairs(weights), scale_factor))``.

    The items of ``scores`` are numbered in one sequence, and ``weights`` is
    their (reach, items) band: ``weights[d - 1, i]`` weighs the pair
    (i, i + d), finite and >= 0, and 0 where i + d lies beyond i's instance.
    Scores and weights are rounded, and refused, as ``build_network`` does.

    A labeling costs what its cut does in ``source_flags``' graph. A forward
    and a backward min-sum pass over item positions, all instances at once,
    keep per instance the least cost of each labeling of the last ``reach``
    items: the 2**reach states, whose bit k - 1 holds the label of the item
    k back from the next one (1 on the source side). Their sum at an item is
    the least cost of the labelings through each state, so an item is on the
    source side exactly when every labeling with it on the sink side costs
    more than the minimum: the intersection of all minimum labelings' source
    sides, which is the side the residual search of ``source_flags`` gives.
    """
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    counts = np.array([len(ind) for ind in scores], dtype=np.int64)
    n, longest, docs = int(counts.sum()), int(counts.max(initial=0)), len(counts)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != n:
        raise ValueError(f"{n} items but a band of shape {weights.shape}")
    reach = len(weights)
    instance = np.repeat(np.arange(docs), counts)
    position = np.arange(n) - (np.cumsum(counts) - counts)[instance]
    for bad, problem in (
        ((np.arange(1, reach + 1)[:, None] >= (counts[instance] - position)) & (weights != 0),
         "spans two instances"),
        (~(np.isfinite(weights) & (weights >= 0)), "must weigh a finite value >= 0"),
    ):
        if bad.any():
            d, i = np.unravel_index(bad.argmax(), bad.shape)
            raise ValueError(
                f"association pair ({i}, {i + d + 1}) of weight {weights[d, i]} {problem}"
            )
    if longest * (reach + 1) * CAPACITY_BOUND >= 2**63:
        raise ValueError(f"an instance of {longest} items at reach {reach} could overflow int64")
    margin = _capacities(
        np.concatenate([np.zeros(0)] + [ind.class1 for ind in scores]),
        scale_factor, CAPACITY_BOUND, "class-1 score",
    ) - _capacities(
        np.concatenate([np.zeros(0)] + [ind.class2 for ind in scores]),
        scale_factor, CAPACITY_BOUND, "class-2 score",
    )
    caps = pair_capacities(weights, scale_factor)
    if not caps.any():
        return margin > 0

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


def min_cut(net: FlowNetwork) -> list[CutResult]:
    """Each instance's canonical minimum cut (``source_flags``), priced.

    The cost adds the partition's raw scores left to right, its items and
    then its split pairs in their given order, as ``partition_cost`` does.
    The max-flow value is the partition's integer capacity in the paper's
    graph, with two terminal arcs per item: by duality, its max-flow value.
    """
    side = source_flags(net)
    split = side[net.pairs[:, 0]] != side[net.pairs[:, 1]]
    costs = np.where(side, net.class2, net.class1)
    capacities = np.where(side, net.toward_sink, net.toward_source)
    results = []
    for j, (a, b) in enumerate(zip(net.offsets, net.offsets[1:])):
        cut = split & (net.owners == j)
        results.append(CutResult(
            source_side=tuple(np.flatnonzero(side[a:b]).tolist()),
            cost=float(np.add.accumulate([0.0, *costs[a:b], *net.pair_values[cut]])[-1]),
            max_flow_value=int(capacities[a:b].sum() + net.pair_capacities[cut].sum()),
        ))
    return results


def scale_instance(
    ind: IndividualScores,
    assoc: AssociationScores,
    scale_factor: int = DEFAULT_SCALE,
) -> tuple[IndividualScores, AssociationScores]:
    """Integer-scaled copy of an instance, mirroring build_network's rounding.

    Brute-forcing the scaled copy gives costs directly comparable to a
    network's max-flow value, with no float tolerance involved.
    """
    s_ind = IndividualScores(
        class1=np.rint(ind.class1 * scale_factor), class2=np.rint(ind.class2 * scale_factor)
    )
    s_pairs = {key: np.rint(value * scale_factor) for key, value in assoc.pairs.items()}
    return s_ind, AssociationScores(pairs={k: float(v) for k, v in s_pairs.items() if v})


BRUTE_FORCE_LIMIT = 20


def brute_force_min(ind: IndividualScores, assoc: AssociationScores) -> CutResult:
    """Exhaustive minimum over all 2^n partitions; the oracle for min_cut.

    Ties break toward the lexicographically smallest sorted index tuple.
    Refuses instances with more than 20 items.
    """
    n = len(ind)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refused: n={n} exceeds {BRUTE_FORCE_LIMIT}")
    best = CutResult(source_side=(), cost=math.inf)
    for mask in range(1 << n):
        side = tuple(i for i in range(n) if mask >> i & 1)
        cost = partition_cost(ind, assoc, side)
        if cost < best.cost or (cost == best.cost and side < best.source_side):
            best = CutResult(source_side=side, cost=cost)
    return best
