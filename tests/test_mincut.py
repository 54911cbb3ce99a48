from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subjcut import extraction, mincut
from subjcut.classifiers import IndividualScores
from subjcut.extraction import DECAY_NAMES, ProximityParams, association_band, select_graph
from subjcut.mincut import (
    BANDED_REACH_LIMIT,
    CAPACITY_BOUND,
    DEFAULT_SCALE,
    AssociationScores,
    CutResult,
    band_pairs,
    banded_flags,
    brute_force_min,
    build_network,
    min_cut,
    pair_capacities,
    partition_cost,
    scale_instance,
    source_flags,
    stack_instances,
)

# the three-item worked example: strong pull between items 0 and 1
EXAMPLE_IND = IndividualScores(
    class1=np.array([0.8, 0.5, 0.1]), class2=np.array([0.2, 0.5, 0.9])
)
EXAMPLE_ASSOC = AssociationScores(pairs={(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.2})
EXAMPLE_TABLE = {
    (0, 1): 1.1,
    (): 1.4,
    (0, 1, 2): 1.6,
    (0,): 1.9,
    (2,): 2.5,
    (1,): 2.6,
    (0, 2): 2.8,
    (1, 2): 3.3,
}


def random_instance(rng, n_max=12, assoc_density=0.4):
    n = int(rng.integers(1, n_max + 1))
    ind = IndividualScores(class1=rng.uniform(0, 1, n), class2=rng.uniform(0, 1, n))
    pairs = {}
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < assoc_density:
                pairs[(i, k)] = float(rng.uniform(0, 1))
    return ind, AssociationScores(pairs=pairs)


def solve(ind, assoc, scale_factor=10**6):
    """Cut one instance on its own."""
    return min_cut(build_network(*stack_instances([(ind, assoc)]), scale_factor))[0]


class TestPartitionCost:
    @pytest.mark.parametrize("side,expected", sorted(EXAMPLE_TABLE.items()))
    def test_worked_example_table(self, side, expected):
        assert partition_cost(EXAMPLE_IND, EXAMPLE_ASSOC, side) == pytest.approx(
            expected, abs=1e-12
        )

    def test_empty_instance(self):
        ind = IndividualScores(class1=np.array([]), class2=np.array([]))
        assert partition_cost(ind, AssociationScores(pairs={}), ()) == 0.0


class TestAssociationScores:
    """An instance's pairs are checked where they become a network."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must weigh a finite value >= 0"):
            solve(EXAMPLE_IND, AssociationScores(pairs={(0, 1): -0.5}))

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError, match="0 <= i < k"):
            solve(EXAMPLE_IND, AssociationScores(pairs={(1, 0): 0.5}))

    def test_pair_beyond_its_instance_rejected(self):
        instances = [
            (EXAMPLE_IND, AssociationScores(pairs={(2, 3): 0.5})), (EXAMPLE_IND, EXAMPLE_ASSOC)
        ]
        with pytest.raises(ValueError, match="spans two instances"):
            build_network(*stack_instances(instances))


class TestBuildNetwork:
    def test_worked_example_structure(self):
        net = build_network(*stack_instances([(EXAMPLE_IND, EXAMPLE_ASSOC)]))
        # 3 source arcs + 3 sink arcs + 3 association edges
        assert net.n == 3
        assert net.arc_count == 9

    def test_minimal_graph(self):
        ind = IndividualScores(class1=np.array([0.7]), class2=np.array([0.3]))
        net = build_network([ind], [], [])
        assert net.arc_count == 2

    def test_zero_associations_omitted(self):
        ind = IndividualScores(class1=np.array([0.7, 0.2]), class2=np.array([0.3, 0.8]))
        net = build_network([ind], [(0, 1)], [0.0])
        assert net.arc_count == 4

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([-0.1]), class2=np.array([0.3]))

    def test_out_of_range_pair_rejected(self):
        ind = IndividualScores(class1=np.array([0.7]), class2=np.array([0.3]))
        with pytest.raises(ValueError, match="out of range for n=1"):
            build_network([ind], [(0, 5)], [0.2])

    @pytest.mark.parametrize("pair", [(1, 0), (1, 1), (-1, 1)])
    def test_bad_ordering_rejected(self, pair):
        with pytest.raises(ValueError, match="0 <= i < k"):
            build_network([EXAMPLE_IND], [(0, 1), pair], [0.5, 0.5])

    def test_pair_spanning_two_instances_rejected(self):
        # items 0-2 are the first instance, 3-5 the second
        scores = [EXAMPLE_IND, EXAMPLE_IND]
        with pytest.raises(ValueError, match=r"\(2, 3\) of weight 0.5 spans two instances"):
            build_network(scores, np.array([[0, 1], [2, 3]]), np.array([0.5, 0.5]))

    def test_pair_beside_an_empty_instance_is_accepted(self):
        empty = IndividualScores(class1=np.array([]), class2=np.array([]))
        net = build_network([empty, EXAMPLE_IND, empty], np.array([[0, 2]]), np.array([0.5]))
        assert net.owners.tolist() == [1]

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, value):
        with pytest.raises(ValueError, match="must weigh a finite value >= 0"):
            build_network([EXAMPLE_IND], [(0, 1), (1, 2)], [0.5, value])

    def test_values_must_match_pairs(self):
        with pytest.raises(ValueError, match="2 association pairs"):
            build_network([EXAMPLE_IND], [(0, 1), (1, 2)], [0.5])

    def test_capacities_are_scaled_integers(self):
        net = build_network(*stack_instances([(EXAMPLE_IND, EXAMPLE_ASSOC)]), scale_factor=10)
        caps = np.concatenate([net.toward_source, net.toward_sink, net.pair_capacities])
        assert sorted(caps.tolist()) == [1, 1, 2, 2, 5, 5, 8, 9, 10]


class TestCapacityBound:
    def test_huge_score_refused(self):
        # at 10^6 this overflowed a 64-bit cast and cut the wrong side
        ind = IndividualScores(class1=np.array([1e20]), class2=np.array([0.9]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            build_network([ind], [], [])

    def test_terminal_capacity_at_the_bound_accepted(self):
        ind = IndividualScores(
            class1=np.array([float(CAPACITY_BOUND)]), class2=np.array([CAPACITY_BOUND - 1.0])
        )
        result = solve(ind, AssociationScores(pairs={}), scale_factor=1)
        assert result.source_side == (0,)
        assert result.max_flow_value == CAPACITY_BOUND - 1

    def test_terminal_capacity_above_the_bound_refused(self):
        ind = IndividualScores(class1=np.array([CAPACITY_BOUND + 1.0]), class2=np.array([0.0]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            build_network([ind], [], [], scale_factor=1)

    def test_association_at_half_the_bound_accepted(self):
        # both directions of an association arc together reach the bound
        weight = CAPACITY_BOUND // 2
        big = float(CAPACITY_BOUND)
        ind = IndividualScores(class1=np.array([big, 0.0]), class2=np.array([0.0, big]))
        [result] = min_cut(build_network([ind], [(0, 1)], [float(weight)], scale_factor=1))
        assert result.source_side == (0,)
        assert result.max_flow_value == weight
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            build_network([ind], [(0, 1)], [weight + 1.0], scale_factor=1)

    def test_large_association_weight_refused(self):
        ind = IndividualScores(class1=np.array([0.5, 0.5]), class2=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            build_network([ind], [(0, 1)], [2148.0])


class TestMinCut:
    def test_worked_example(self):
        result = solve(EXAMPLE_IND, EXAMPLE_ASSOC)
        assert result.source_side == (0, 1)
        assert result.cost == pytest.approx(1.1, abs=1e-12)
        assert result.max_flow_value == 1_100_000

    def test_zero_association_reduces_to_argmax(self):
        ind = IndividualScores(
            class1=np.array([0.9, 0.2, 0.6, 0.5]), class2=np.array([0.1, 0.8, 0.4, 0.5])
        )
        result = solve(ind, AssociationScores(pairs={}))
        # item 3 is tied and resolves to the sink side
        assert result.source_side == (0, 2)

    def test_all_items_source_when_class1_dominates(self):
        ind = IndividualScores(class1=np.array([0.9, 0.8]), class2=np.array([0.1, 0.2]))
        result = solve(ind, AssociationScores(pairs={}))
        assert result.source_side == (0, 1)

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            ind, assoc = random_instance(rng)
            got = solve(ind, assoc)
            want = brute_force_min(*scale_instance(ind, assoc))
            assert got.max_flow_value == int(want.cost)

    def test_flow_value_tracks_cost_within_rounding(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            ind, assoc = random_instance(rng)
            net = build_network(*stack_instances([(ind, assoc)]))
            [result] = min_cut(net)
            assert abs(result.cost * net.scale_factor - result.max_flow_value) <= len(ind)

    def test_cost_matches_recomputed_partition_cost(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ind, assoc = random_instance(rng)
            result = solve(ind, assoc)
            recomputed = partition_cost(ind, assoc, result.source_side)
            assert result.cost == pytest.approx(recomputed, abs=1e-6)

    def test_no_partition_beats_the_cut(self):
        rng = np.random.default_rng(10)
        ind, assoc = random_instance(rng, n_max=10)
        best = solve(ind, assoc).cost
        for _ in range(200):
            n = len(ind)
            side = [i for i in range(n) if rng.random() < 0.5]
            assert partition_cost(ind, assoc, side) >= best - 1e-6

    def test_same_side_edge_does_not_change_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ind, assoc = random_instance(rng, n_max=8)
            result = solve(ind, assoc)
            side = set(result.source_side)
            same = [
                (i, k)
                for i in range(len(ind))
                for k in range(i + 1, len(ind))
                if (i in side) == (k in side) and (i, k) not in assoc.pairs
            ]
            if not same:
                continue
            pair = same[0]
            bigger = AssociationScores(pairs={**dict(assoc.pairs), pair: 0.7})
            again = solve(ind, bigger)
            assert again.cost == pytest.approx(result.cost, abs=1e-9)

    def test_positive_scaling_preserves_argmin(self):
        rng = np.random.default_rng(12)
        for factor in (0.5, 2.0, 3.7):
            for _ in range(15):
                ind, assoc = random_instance(rng, n_max=8)
                base = solve(ind, assoc)
                scaled_ind = IndividualScores(
                    class1=ind.class1 * factor, class2=ind.class2 * factor
                )
                scaled_assoc = AssociationScores(
                    pairs={k: v * factor for k, v in assoc.pairs.items()}
                )
                scaled = solve(scaled_ind, scaled_assoc)
                assert scaled.source_side == base.source_side
                assert scaled.cost == pytest.approx(base.cost * factor, rel=1e-9)

    def test_repeated_solves_are_stable(self):
        net = build_network(*stack_instances([(EXAMPLE_IND, EXAMPLE_ASSOC)]))
        assert min_cut(net) == min_cut(net)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
                st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
                st.dictionaries(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda p: p[0] < p[1]
                    ),
                    st.floats(0, 1, allow_nan=False),
                    max_size=6,
                ),
            )
        )
    )
    def test_matches_brute_force_for_arbitrary_weights(self, instance):
        c1, c2, pairs = instance
        ind = IndividualScores(class1=np.array(c1), class2=np.array(c2))
        assoc = AssociationScores(pairs=pairs)
        got = solve(ind, assoc)
        want = brute_force_min(*scale_instance(ind, assoc))
        assert got.max_flow_value == int(want.cost)


class TestBatch:
    def test_batch_equals_solving_each_alone(self):
        rng = np.random.default_rng(13)
        empty = (IndividualScores(class1=np.array([]), class2=np.array([])),
                 AssociationScores(pairs={}))
        single = (IndividualScores(class1=np.array([0.4]), class2=np.array([0.6])),
                  AssociationScores(pairs={}))
        instances = [random_instance(rng, n_max=14) for _ in range(40)]
        instances[5:5] = [empty]
        instances[20:20] = [single, empty]
        results = min_cut(build_network(*stack_instances(instances)))
        assert len(results) == len(instances)
        for (ind, assoc), got in zip(instances, results):
            alone = solve(ind, assoc)
            assert got.source_side == alone.source_side
            assert got.max_flow_value == alone.max_flow_value
            assert got.cost == alone.cost == partition_cost(ind, assoc, got.source_side)
            want = brute_force_min(*scale_instance(ind, assoc))
            assert got.max_flow_value == int(want.cost)

    def test_empty_batch(self):
        assert min_cut(build_network([], np.zeros((0, 2), np.int64), np.zeros(0))) == []

    def test_accepts_a_generator(self):
        instances = (random_instance(np.random.default_rng(s), n_max=5) for s in range(3))
        assert len(min_cut(build_network(*stack_instances(instances)))) == 3


def labeling_costs(ind, assoc) -> np.ndarray:
    """The cost of every labeling of a small instance, at the bit mask of its source side."""
    n = len(ind)
    return np.array([
        partition_cost(ind, assoc, [i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)
    ])


ALL_WEIGHTS = (0.0, 1e-8, 4e-7, 0.25, 0.5)
NO_ARC_WEIGHTS = (0.0, 1e-8, 4e-7)  # each rounds to 0 at the default scale


@st.composite
def tied_instances(draw, n_max=8, weights=ALL_WEIGHTS):
    """Small instances with many minimum labelings: quarter scores and weights,
    exact ties, ties made by rounding, and pairs that round to no arc."""
    n = draw(st.integers(1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    class1 = rng.integers(0, 5, n) / 4
    class2 = np.where(
        rng.random(n) < 0.5, tie_after_rounding(rng, class1), rng.integers(0, 5, n) / 4
    )
    pairs = {
        (i, k): float(rng.choice(weights))
        for i in range(n)
        for k in range(i + 1, n)
        if rng.random() < 0.5
    }
    return IndividualScores(class1=class1, class2=class2), AssociationScores(pairs=pairs)


class TestCanonicity:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(tied_instances(), min_size=1, max_size=4))
    def test_side_is_the_intersection_of_all_minimum_labelings(self, instances):
        results = min_cut(build_network(*stack_instances(instances)))
        for (ind, assoc), got in zip(instances, results):
            costs = labeling_costs(*scale_instance(ind, assoc))
            common = np.bitwise_and.reduce(np.flatnonzero(costs == costs.min()))
            assert got.source_side == tuple(i for i in range(len(ind)) if common >> i & 1)
            assert got.max_flow_value == costs.min()


class TestBruteForce:
    def test_worked_example(self):
        result = brute_force_min(EXAMPLE_IND, EXAMPLE_ASSOC)
        assert result.source_side == (0, 1)
        assert result.cost == pytest.approx(1.1, abs=1e-12)

    def test_empty_instance(self):
        ind = IndividualScores(class1=np.array([]), class2=np.array([]))
        assert brute_force_min(ind, AssociationScores(pairs={})) == CutResult(
            source_side=(), cost=0.0
        )

    def test_forced_optimum(self):
        ind = IndividualScores(class1=np.array([1.0, 0.0]), class2=np.array([0.0, 1.0]))
        result = brute_force_min(ind, AssociationScores(pairs={}))
        assert result.source_side == (0,)
        assert result.cost == 0.0

    def test_lexicographic_tie_break(self):
        # every partition costs 1.0; the empty side is lexicographically least
        ind = IndividualScores(class1=np.array([0.5, 0.5]), class2=np.array([0.5, 0.5]))
        result = brute_force_min(ind, AssociationScores(pairs={}))
        assert result.source_side == ()

    def test_refuses_large_instances(self):
        n = 21
        ind = IndividualScores(class1=np.ones(n), class2=np.zeros(n))
        with pytest.raises(ValueError):
            brute_force_min(ind, AssociationScores(pairs={}))


def banded_min(ind, assoc, reach, held=None):
    """Exact minimum labeling cost when every pair joins items at most ``reach`` apart.

    A Viterbi pass left to right over the 2^reach states "labels of the last
    ``reach`` items" (bit d - 1 holds the label of the item d back), so it is
    O(n * 2^reach) and reaches review lengths that brute force cannot. Given
    ``held``, a list of items, it returns one minimum per item instead, over
    the labelings that hold that item on the sink side, all in the same pass.
    """
    weights = {}
    for (i, k), value in assoc.pairs.items():
        assert k - i <= reach, "pair beyond the band"
        weights[(k, k - i)] = value
    variants = np.array([-1] if held is None else held)
    states = np.arange(1 << reach)
    back_labels = (states[:, None] >> np.arange(reach)) & 1
    cost = np.full((len(variants), len(states)), np.inf)
    cost[:, 0] = 0.0  # items before the first have no pairs, so their labels are free
    for j in range(len(ind)):
        band = np.array([weights.get((j, d), 0.0) for d in range(1, reach + 1)])
        step = np.full(cost.shape, np.inf)
        # label 1 puts item j on the source side (class 1) and pays its class-2 score
        for label, unary in ((0, ind.class1[j]), (1, ind.class2[j])):
            candidates = cost + unary + (back_labels != label) @ band
            if label:
                candidates[variants == j] = np.inf
            to = ((states << 1) | label) & (len(states) - 1)
            np.minimum.at(step, (slice(None), to), candidates)
        cost = step
    mins = cost.min(axis=1)
    return float(mins[0]) if held is None else mins


def tie_after_rounding(rng, class1):
    """Class-2 scores that round, at the default scale, to what ``class1``
    rounds to: equal, or off by less than half a unit when ``class1`` is a
    whole number of units (as a multiple of 1/4 is)."""
    near = np.abs(class1 + rng.choice([-3e-7, 3e-7], len(class1)))
    exact = np.rint(class1 * DEFAULT_SCALE) == class1 * DEFAULT_SCALE
    return np.where(exact & (rng.random(len(class1)) < 0.5), near, class1)


# weights below 0.5 / DEFAULT_SCALE round to no arc
ANY_STRENGTH = st.one_of(st.floats(0, 2), st.sampled_from([1e-8, 4e-7]))


@st.composite
def proximity_instances(draw, n_min, n_max, strengths=ANY_STRENGTH):
    """Review-shaped instances: scores, paragraph breaks, and ``association_band`` edges."""
    n = draw(st.integers(n_min, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    class1 = rng.uniform(0, 1, n)
    if draw(st.booleans()):
        class1 = np.round(class1 * 4) / 4  # coarse scores make ties common
    class2 = 1.0 - class1 if draw(st.booleans()) else rng.uniform(0, 1, n)
    if draw(st.booleans()):
        class2 = np.where(rng.random(n) < 0.5, tie_after_rounding(rng, class1), class2)
    breaks = sorted(set(rng.integers(1, n, draw(st.integers(0, 4))).tolist())) if n > 1 else []
    params = ProximityParams(
        threshold=draw(st.integers(1, 3)),
        decay=draw(st.sampled_from(DECAY_NAMES)),
        strength=draw(strengths),
        cross_paragraph_weight=draw(st.floats(0, 1)),
    )
    ind = IndividualScores(class1=class1, class2=class2)
    pairs, values = band_pairs(association_band([n], [[0] + breaks], params))
    assoc = AssociationScores(pairs=dict(zip(map(tuple, pairs.tolist()), values.tolist())))
    return ind, assoc, params.threshold


class TestBandedOracle:
    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(1, 12))
    def test_oracle_agrees_with_brute_force(self, instance):
        ind, assoc, reach = instance
        scaled = scale_instance(ind, assoc)
        assert banded_min(*scaled, reach) == brute_force_min(*scaled).cost

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(20, 200))
    def test_min_cut_is_optimal_at_review_lengths(self, instance):
        ind, assoc, reach = instance
        got = solve(ind, assoc)
        scaled = scale_instance(ind, assoc)
        best = banded_min(*scaled, reach)
        assert got.max_flow_value == best
        assert partition_cost(*scaled, got.source_side) == best
        # canonical: each item of the side lies on the source side of every
        # minimum labeling, so holding it on the sink side costs strictly more
        assert (banded_min(*scaled, reach, held=list(got.source_side)) > best).all()

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(1, 10))
    def test_held_items_agree_with_brute_force(self, instance):
        ind, assoc, reach = instance
        scaled = scale_instance(ind, assoc)
        costs = labeling_costs(*scaled)
        masks = np.arange(len(costs))
        want = [costs[(masks >> i & 1) == 0].min() for i in range(len(ind))]
        assert banded_min(*scaled, reach, held=list(range(len(ind)))).tolist() == want


@contextmanager
def no_max_flow():
    """Fail any max-flow computation started inside the block."""

    def unreachable(*args, **kwargs):
        raise AssertionError("max-flow computed where none was expected")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mincut, "maximum_flow", unreachable)
        yield


class TestPairFreeNetworks:
    """A network whose pairs all round to no arc is cut without a max-flow."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tied_instances(weights=NO_ARC_WEIGHTS), min_size=1, max_size=4))
    def test_side_is_the_intersection_of_all_minimum_labelings(self, instances):
        with no_max_flow():
            results = min_cut(build_network(*stack_instances(instances)))
        for (ind, assoc), got in zip(instances, results):
            costs = labeling_costs(*scale_instance(ind, assoc))
            common = np.bitwise_and.reduce(np.flatnonzero(costs == costs.min()))
            assert got.source_side == tuple(i for i in range(len(ind)) if common >> i & 1)
            assert got.max_flow_value == costs.min()

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(20, 200, strengths=st.sampled_from([0.0, 1e-8, 4e-7])))
    def test_cut_is_canonical_at_review_lengths(self, instance):
        ind, assoc, reach = instance
        with no_max_flow():
            got = solve(ind, assoc)
        scaled = scale_instance(ind, assoc)
        best = banded_min(*scaled, reach)
        assert got.max_flow_value == best
        assert partition_cost(*scaled, got.source_side) == best
        assert (banded_min(*scaled, reach, held=list(got.source_side)) > best).all()

    def test_a_rounding_tie_is_dropped(self):
        # class 1 wins by 8e-7, which rounds to a tie at the default scale
        scores = IndividualScores(class1=[0.5000004, 0.9], class2=[0.4999996, 0.1])
        params = ProximityParams(threshold=3, decay="exponential", strength=0.0)
        with no_max_flow():
            assert select_graph([scores], params).tolist() == [False, True]

    def test_one_pair_arc_runs_the_max_flow(self):
        calls = []
        solve_flow = mincut.maximum_flow

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_flow(*args, **kwargs)

        # only the first pair keeps an arc, of capacity 1: it pulls the tied item 1
        # to the source side, where the rounded scores alone would drop it
        assoc = AssociationScores(pairs={(0, 1): 1e-6, (1, 2): 4e-7})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mincut, "maximum_flow", counted)
            got = solve(EXAMPLE_IND, assoc)
        assert len(calls) == 1
        assert got.source_side == (0, 1)
        assert got.max_flow_value == brute_force_min(*scale_instance(EXAMPLE_IND, assoc)).cost


@st.composite
def banded_batches(draw, n_min=30, n_max=45, docs=st.integers(1, 4), strengths=ANY_STRENGTH):
    """Review-shaped batches and their ``association_band``, at thresholds up to
    ``BANDED_REACH_LIMIT``: coarse scores with exact ties, ties made by rounding,
    paragraph breaks with cross-paragraph weight 0 among others, and strengths
    whose pairs round to no arc."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = [draw(st.integers(n_min, n_max)) for _ in range(draw(docs))]
    scores, starts = [], []
    for n in counts:
        class1 = rng.uniform(0, 1, n)
        if rng.random() < 0.5:
            class1 = np.round(class1 * 4) / 4
        class2 = 1.0 - class1 if rng.random() < 0.5 else rng.uniform(0, 1, n)
        if rng.random() < 0.5:
            class2 = np.where(rng.random(n) < 0.5, tie_after_rounding(rng, class1), class2)
        scores.append(IndividualScores(class1=class1, class2=class2))
        breaks = rng.integers(1, n, rng.integers(0, 5)).tolist() if n > 1 else []
        starts.append([0] + sorted(set(breaks)))
    params = ProximityParams(
        threshold=draw(st.integers(1, BANDED_REACH_LIMIT)),
        decay=draw(st.sampled_from(DECAY_NAMES)),
        strength=draw(strengths),
        cross_paragraph_weight=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)),
    )
    return scores, association_band(counts, starts, params)


def flow_flags(scores, band, scale_factor=DEFAULT_SCALE):
    """The max-flow route's cut of a band."""
    return source_flags(build_network(scores, *band_pairs(band), scale_factor))


def band_assoc(band):
    """One instance's band as ``AssociationScores``."""
    pairs, values = band_pairs(band)
    return AssociationScores(pairs=dict(zip(map(tuple, pairs.tolist()), values.tolist())))


def intersection_of_minimum_labelings(costs, n) -> tuple[int, ...]:
    """The items on the source side of every minimum labeling of ``costs``
    (``labeling_costs``' layout) of n items."""
    common = np.bitwise_and.reduce(np.flatnonzero(costs == costs.min()))
    return tuple(i for i in range(n) if common >> i & 1)


def enumerated_costs(ind, band) -> np.ndarray:
    """Every labeling's integer cost at the default scale, at the bit mask of
    its source side: the exhaustive oracle in numpy, for up to 20 items."""
    n = len(ind)
    side = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    class1, class2 = (np.rint(c * DEFAULT_SCALE).astype(np.int64) for c in (ind.class1, ind.class2))
    costs = np.where(side, class2, class1).sum(axis=1)
    for (i, k), value in band_assoc(band).pairs.items():
        costs += int(np.rint(value * DEFAULT_SCALE)) * (side[:, i] != side[:, k])
    return costs


class TestBandedFlags:
    """``banded_flags`` against the max-flow route and the exhaustive oracles."""

    @settings(max_examples=150, deadline=None)
    @given(banded_batches())
    def test_equals_max_flow_at_review_lengths(self, batch):
        scores, band = batch
        assert banded_flags(scores, band).tolist() == flow_flags(scores, band).tolist()

    @settings(max_examples=40, deadline=None)
    @given(banded_batches(strengths=st.sampled_from([0.0, 1e-8, 4e-7])))
    def test_pair_free_batches_equal_max_flow(self, batch):
        scores, band = batch
        assert not pair_capacities(band).any()
        assert banded_flags(scores, band).tolist() == flow_flags(scores, band).tolist()

    @settings(max_examples=60, deadline=None)
    @given(banded_batches(1, 12, docs=st.just(1)))
    def test_agrees_with_brute_force(self, batch):
        [ind], band = batch
        scaled = scale_instance(ind, band_assoc(band))
        side = tuple(np.flatnonzero(banded_flags([ind], band)).tolist())
        assert partition_cost(*scaled, side) == brute_force_min(*scaled).cost
        assert side == intersection_of_minimum_labelings(labeling_costs(*scaled), len(ind))

    @pytest.mark.parametrize("threshold", [1, 3, BANDED_REACH_LIMIT])
    def test_canonical_at_twenty_items(self, threshold):
        # brute_force_min prices each of the 2^20 labelings in Python; the
        # numpy enumeration reaches its 20-item limit in about a second
        rng = np.random.default_rng(threshold)
        class1 = np.round(rng.uniform(0, 1, 20) * 4) / 4
        ind = IndividualScores(class1=class1, class2=tie_after_rounding(rng, class1))
        params = ProximityParams(threshold=threshold, decay="inverse_square", strength=0.1)
        band = association_band([20], [[0, 7, 13]], params)
        costs = enumerated_costs(ind, band)
        side = tuple(np.flatnonzero(banded_flags([ind], band)).tolist())
        assert side == intersection_of_minimum_labelings(costs, 20)
        assert costs.min() == min_cut(build_network([ind], *band_pairs(band)))[0].max_flow_value

    @settings(max_examples=40, deadline=None)
    @given(banded_batches(0, 45, docs=st.integers(2, 6)))
    def test_batch_equals_each_instance_alone(self, batch):
        scores, band = batch
        got = banded_flags(scores, band)
        first = np.cumsum([0] + [len(ind) for ind in scores])
        for ind, a, b in zip(scores, first, first[1:]):
            assert got[a:b].tolist() == banded_flags([ind], band[:, a:b]).tolist()

    @pytest.mark.parametrize("threshold", [4, 5, 9])
    def test_threshold_at_or_beyond_the_review_length(self, threshold):
        rng = np.random.default_rng(threshold)
        scores = [IndividualScores(class1=p, class2=1 - p) for p in rng.uniform(0, 1, (2, 5))]
        params = ProximityParams(threshold=threshold, decay="exponential", strength=0.4)
        band = association_band([5, 5], [None, None], params)
        assert band.shape == (min(threshold, 4), 10)  # every pair of a review is in the band
        want = flow_flags(scores, band).tolist()
        assert banded_flags(scores, band).tolist() == want
        # rows for distances no review reaches are all 0, and change nothing
        wide = np.vstack([band, np.zeros((3, 10))])
        assert banded_flags(scores, wide).tolist() == want

    def test_capacities_at_the_refusal_bounds(self):
        big, half = float(CAPACITY_BOUND), float(CAPACITY_BOUND // 2)
        ind = IndividualScores(
            class1=np.array([big, 0.0, big, 0.0]), class2=np.array([0.0, big, big - 1, 0.0])
        )
        band = np.array([[half, half, half, 0.0], [half, half, 0.0, 0.0]])
        assert banded_flags([ind], band, 1).tolist() == flow_flags([ind], band, 1).tolist()
        over = IndividualScores(class1=ind.class1 + [1, 0, 0, 0], class2=ind.class2)
        heavier = band + [[1, 0, 0, 0], [0, 0, 0, 0]]
        for scores, weights in (([over], band), ([ind], heavier)):
            with pytest.raises(ValueError, match=r"2\*\*31 - 1") as refused:
                banded_flags(scores, weights, 1)
            with pytest.raises(ValueError) as built:
                flow_flags(scores, weights, 1)
            assert str(refused.value) == str(built.value)

    @pytest.mark.parametrize(
        "item, weight, problem",
        [(1, -0.5, "must weigh a finite value >= 0"), (0, float("nan"), "must weigh a finite"),
         (1, float("inf"), "must weigh a finite"), (2, 0.5, "spans two instances"),
         (2, float("nan"), "spans two instances")],
    )
    def test_bad_band_refused_as_build_network_refuses(self, item, weight, problem):
        # item 2 is its instance's last, so its distance-1 pair leaves it
        band = np.zeros((1, 6))
        band[0, item] = weight
        with pytest.raises(ValueError, match=problem) as refused:
            banded_flags([EXAMPLE_IND, EXAMPLE_IND], band)
        with pytest.raises(ValueError) as built:
            flow_flags([EXAMPLE_IND, EXAMPLE_IND], band)
        assert str(refused.value) == str(built.value)

    def test_band_of_the_wrong_width_refused(self):
        with pytest.raises(ValueError, match=r"3 items but a band of shape \(1, 4\)"):
            banded_flags([EXAMPLE_IND], np.zeros((1, 4)))

    def test_sums_that_could_overflow_refused(self, monkeypatch):
        monkeypatch.setattr(mincut, "CAPACITY_BOUND", 2**61)
        with pytest.raises(ValueError, match="could overflow int64"):
            banded_flags([EXAMPLE_IND], np.zeros((1, 3)))


class TestRoute:
    """``select_graph`` cuts a batch with ``banded_flags`` up to the reach limit."""

    def test_reach_at_the_limit_takes_the_banded_solver(self):
        p = np.random.default_rng(3).uniform(0, 1, BANDED_REACH_LIMIT + 5)
        params = ProximityParams(threshold=BANDED_REACH_LIMIT, strength=0.3)
        with no_max_flow():
            select_graph([IndividualScores(class1=p, class2=1 - p)], params)

    @pytest.mark.parametrize("n, solver", [(BANDED_REACH_LIMIT + 1, "banded"), (40, "max-flow")])
    def test_reach_beyond_the_limit_takes_max_flow(self, n, solver):
        # the reach is min(T, longest review - 1), so a short review stays banded
        p = np.random.default_rng(n).uniform(0, 1, n)
        scores = IndividualScores(class1=p, class2=1 - p)
        params = ProximityParams(threshold=BANDED_REACH_LIMIT + 1, strength=0.3)
        calls = []

        def counted(name, solve):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(extraction, "banded_flags", counted("banded", extraction.banded_flags))
            patch.setattr(mincut, "maximum_flow", counted("max-flow", mincut.maximum_flow))
            got = select_graph([scores], params)
        assert calls == [solver]
        band = association_band([n], [None], params)
        assert got.tolist() == flow_flags([scores], band).tolist()
