"""Exact binary labeling of items via a source/sink minimum cut.

Items are partitioned into a source class (class 1) and a sink class by
minimizing: class-2 scores over items placed in class 1, plus class-1 scores
over items placed in class 2, plus association scores over split pairs. The
graph realizes these as capacities, rounded to integers so the max-flow
computation is exact. Each item gets one terminal arc, weighing the
difference of its rounded scores: that lowers every labeling's cost by the
same constant, so the minimum cuts are the paper's (Kolmogorov & Zabih, PAMI
2004). Many instances are solved at once: their graphs share only the source
and the sink, so each instance's cut is unaffected by the others; the network
is built, and checked, from arrays that hold a whole batch. ``source_flags``
solves it, and ``min_cut`` prices each instance's cut for the oracles, such as
brute-force enumeration over ``AssociationScores``.
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
    if len(scaled) and scaled.max() > limit:
        raise ValueError(
            f"{what} {values[scaled.argmax()]} at scale {scale_factor} exceeds the solver's"
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
    The network is not mutated.
    """
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
