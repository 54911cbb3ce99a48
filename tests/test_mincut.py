from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subjcut import mincut
from subjcut.classifiers import IndividualScores
from subjcut.extraction import DECAY_NAMES, ProximityParams, association_band, select_graph
from subjcut.mincut import (
    CAPACITY_BOUND,
    DEFAULT_SCALE,
    AssociationScores,
    CutResult,
    brute_force_min,
    build_network,
    min_cut,
    partition_cost,
    scale_instance,
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
    pairs, values = association_band([n], [[0] + breaks], params)
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
        raise AssertionError("max-flow computed for a network without a pair arc")

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
