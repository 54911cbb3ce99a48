import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subjcut import mincut
from subjcut.classifiers import IndividualScores
from subjcut.extraction import DECAY_NAMES, ProximityParams, association_band, select_graph
from subjcut.mincut import (
    BANDED_REACH_LIMIT,
    CAPACITY_BOUND,
    SCALE,
    AssociationScores,
    CutResult,
    band_pairs,
    brute_force_min,
    cut_band,
    integer_instance,
    labeling_costs,
    partition_cost,
    scale_instance,
)

from references import joined, loop_labeling_costs

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


def band_of(ind, assoc) -> np.ndarray:
    """An instance's pairs as its band of reach n - 1."""
    band = np.zeros((max(len(ind) - 1, 0), len(ind)))
    for (i, k), value in assoc.pairs.items():
        band[k - i - 1, i] = value
    return band


def stacked_band(instances) -> np.ndarray:
    """The band of a batch of instances: each one's ``band_of``, widened with
    zero rows to the widest."""
    bands = [band_of(ind, assoc) for ind, assoc in instances]
    reach = max((len(band) for band in bands), default=0)
    return np.hstack([np.zeros((reach, 0))] + [
        np.vstack([band, np.zeros((reach - len(band), band.shape[1]))]) for band in bands
    ])


def widened(band) -> np.ndarray:
    """``band`` with zero rows past ``BANDED_REACH_LIMIT``: the same instances,
    which only the max-flow route cuts."""
    return np.vstack([band, np.zeros((BANDED_REACH_LIMIT + 1, band.shape[1]))])


def cut_both_ways(scores, band) -> np.ndarray:
    """``cut_band``'s flags for ``band``, checked equal to those of ``widened(band)``."""
    got = cut_band(*joined(scores), band)
    assert got.tolist() == cut_band(*joined(scores), widened(band)).tolist()
    return got


def side_of(flags) -> tuple[int, ...]:
    return tuple(np.flatnonzero(flags).tolist())


def solve(ind, assoc):
    """Cut one instance on its own, as its ``band_of`` on both routes: its
    source side, priced over the raw scores."""
    side = side_of(cut_both_ways([ind], band_of(ind, assoc)))
    return CutResult(source_side=side, cost=partition_cost(ind, assoc, side))


def scaled_cost(ind, assoc, side):
    """The integer cost of ``side`` in the rounded instance the cut is made on."""
    return partition_cost(*scale_instance(ind, assoc), side)


def units(values) -> np.ndarray:
    """Values that ``integer_instance`` rounds back to the integers ``values``."""
    return np.asarray(values, dtype=np.float64) / SCALE


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
    """An instance's pairs are checked where they become a band's cut."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must weigh a finite value >= 0"):
            solve(EXAMPLE_IND, AssociationScores(pairs={(0, 1): -0.5}))

    def test_pair_beyond_its_instance_rejected(self):
        instances = [
            (EXAMPLE_IND, AssociationScores(pairs={(2, 3): 0.5})), (EXAMPLE_IND, EXAMPLE_ASSOC)
        ]
        with pytest.raises(ValueError, match="spans two instances"):
            cut_band(*joined([EXAMPLE_IND, EXAMPLE_IND]), stacked_band(instances))


class TestBuildNetwork:
    """The band ``cut_band`` is given: its shape, its pairs, and its rounding."""

    def test_worked_example_structure(self):
        # (0, 1) and (1, 2) at distance 1, (0, 2) at distance 2, listed in (i, d) order
        band = band_of(EXAMPLE_IND, EXAMPLE_ASSOC)
        assert band.tolist() == [[1.0, 0.2, 0.0], [0.1, 0.0, 0.0]]
        pairs, values = band_pairs(band)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert values.tolist() == [1.0, 0.1, 0.2]

    def test_minimal_graph(self):
        ind = IndividualScores(class1=np.array([0.7]), class2=np.array([0.3]))
        assert cut_band(ind, [len(ind)], np.zeros((0, 1))).tolist() == [True]

    def test_zero_associations_omitted(self):
        ind = IndividualScores(class1=np.array([0.7, 0.2]), class2=np.array([0.3, 0.8]))
        with no_max_flow():
            assert cut_both_ways([ind], np.array([[0.0, 0.0]])).tolist() == [True, False]

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([-0.1]), class2=np.array([0.3]))

    def test_out_of_range_pair_rejected(self):
        # a band over five items for an instance of one
        ind = IndividualScores(class1=np.array([0.7]), class2=np.array([0.3]))
        with pytest.raises(ValueError, match=r"1 items but a band of shape \(1, 5\)"):
            cut_band(ind, [len(ind)], np.zeros((1, 5)))

    def test_pair_spanning_two_instances_rejected(self):
        # items 0-2 are the first instance, 3-5 the second
        band = np.array([[0.5, 0.0, 0.5, 0.0, 0.0, 0.0]])
        for weights in (band, widened(band)):
            with pytest.raises(ValueError, match=r"\(2, 3\) of weight 0.5 spans two instances"):
                cut_band(*joined([EXAMPLE_IND, EXAMPLE_IND]), weights)

    def test_pair_beside_an_empty_instance_is_accepted(self):
        empty = IndividualScores(class1=np.array([]), class2=np.array([]))
        band = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])  # the pair (0, 2)
        assert side_of(cut_both_ways([empty, EXAMPLE_IND, empty], band)) == (0,)

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, value):
        band = np.array([[0.5, value, 0.0]])
        for weights in (band, widened(band)):
            with pytest.raises(ValueError, match="must weigh a finite value >= 0"):
                cut_band(EXAMPLE_IND, [3], weights)

    def test_values_must_match_pairs(self):
        with pytest.raises(ValueError, match=r"3 items but a band of shape \(2,\)"):
            cut_band(EXAMPLE_IND, [3], np.array([0.5, 0.5]))

    def test_capacities_are_scaled_integers(self):
        # the worked example shrunk to s units: at s = 1, 0.5 rounds to 0 (half
        # to even) and the pairs (0, 2) and (1, 2) to no arc; each cut is
        # canonical in its rounded instance
        for s in (1, 10, 100):
            ind = IndividualScores(
                class1=units(EXAMPLE_IND.class1 * s), class2=units(EXAMPLE_IND.class2 * s)
            )
            assoc = AssociationScores(
                pairs={key: float(units(value * s)) for key, value in EXAMPLE_ASSOC.pairs.items()}
            )
            costs = labeling_costs(*scale_instance(ind, assoc))
            side = side_of(cut_both_ways([ind], band_of(ind, assoc)))
            assert side == intersection_of_minimum_labelings(costs, 3)


class TestIntegerInstance:
    """The one rounding of scores and weights, for the cut and the oracles."""

    def test_units_at_the_bounds_scale_back_exactly(self):
        ints = [CAPACITY_BOUND - 1, CAPACITY_BOUND]
        halves = [CAPACITY_BOUND // 2 - 1, CAPACITY_BOUND // 2]
        ind = IndividualScores(class1=units(ints), class2=units(ints[::-1]))
        class1, class2, caps = integer_instance(ind, units(halves))
        assert (class1.tolist(), class2.tolist(), caps.tolist()) == (ints, ints[::-1], halves)
        assert class1.dtype == class2.dtype == caps.dtype == np.int64
        # the values the bound tests refuse lie one unit past each bound
        for over in (CAPACITY_BOUND + 1, CAPACITY_BOUND // 2 + 1):
            assert float(units(over)) * SCALE == over

    def test_rounds_half_to_even(self):
        values = units([0.5, 1.5, 2.5, 0.4, 0.6])
        ind = IndividualScores(class1=values, class2=values)
        assert [part.tolist() for part in integer_instance(ind, values)] == [[0, 2, 2, 0, 1]] * 3

    def test_no_arc_weights_round_to_zero(self):
        # the weights of NO_ARC_WEIGHTS, and ANY_STRENGTH's small strengths, give no arc
        empty = IndividualScores(class1=[], class2=[])
        for weights in (NO_ARC_WEIGHTS, [1e-8, 4e-7], units([0.5])):
            assert integer_instance(empty, weights)[2].tolist() == [0] * len(weights)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_weight_that_is_not_a_number_or_infinite_refused(self, value):
        empty = IndividualScores(class1=[], class2=[])
        with pytest.raises(ValueError, match=f"association weight {value} at scale"):
            integer_instance(empty, [0.5, value])

    @pytest.mark.parametrize(
        "ind, weight, what",
        [(IndividualScores(class1=[1e20, 0.5], class2=[0.9, 0.5]), 0.5, "class-1 score 1e+20"),
         (IndividualScores(class1=[0.1, 0.5], class2=[0.9, 1e20]), 0.5, "class-2 score 1e+20"),
         (EXAMPLE_IND, float(units(CAPACITY_BOUND // 2 + 1)), "association weight 1073.741824")],
    )
    def test_scale_instance_refuses_what_cut_band_refuses(self, ind, weight, what):
        n = len(ind)
        band = np.zeros((n - 1, n))
        band[0, 0] = weight
        with pytest.raises(ValueError, match=re.escape(f"{what} at scale {SCALE}")) as cut:
            cut_band(ind, [n], band)
        with pytest.raises(ValueError) as scaled:
            scale_instance(ind, AssociationScores.from_band(band))
        assert str(scaled.value) == str(cut.value)


class TestCapacityBound:
    def test_huge_score_refused(self):
        # at 10^6 this overflowed a 64-bit cast and cut the wrong side
        ind = IndividualScores(class1=np.array([1e20]), class2=np.array([0.9]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.zeros((0, 1)))

    def test_terminal_capacity_at_the_bound_accepted(self):
        ind = IndividualScores(class1=units([CAPACITY_BOUND]), class2=units([CAPACITY_BOUND - 1]))
        assoc = AssociationScores(pairs={})
        result = solve(ind, assoc)
        assert result.source_side == (0,)
        assert scaled_cost(ind, assoc, result.source_side) == CAPACITY_BOUND - 1

    def test_terminal_capacity_above_the_bound_refused(self):
        ind = IndividualScores(class1=units([CAPACITY_BOUND + 1]), class2=np.array([0.0]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.zeros((0, 1)))

    def test_association_at_half_the_bound_accepted(self):
        # both directions of an association arc together reach the bound
        weight = CAPACITY_BOUND // 2
        ind = IndividualScores(class1=units([CAPACITY_BOUND, 0]), class2=units([0, CAPACITY_BOUND]))
        assoc = AssociationScores(pairs={(0, 1): float(units(weight))})
        result = solve(ind, assoc)
        assert result.source_side == (0,)
        assert scaled_cost(ind, assoc, result.source_side) == weight
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.array([units([weight + 1, 0])]))

    def test_large_association_weight_refused(self):
        ind = IndividualScores(class1=np.array([0.5, 0.5]), class2=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.array([[2148.0, 0.0]]))


class TestMinCut:
    """One instance cut as its band of reach n - 1, on both routes."""

    def test_worked_example(self):
        result = solve(EXAMPLE_IND, EXAMPLE_ASSOC)
        assert result.source_side == (0, 1)
        assert result.cost == pytest.approx(1.1, abs=1e-12)
        assert scaled_cost(EXAMPLE_IND, EXAMPLE_ASSOC, result.source_side) == 1_100_000

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
            assert scaled_cost(ind, assoc, got.source_side) == want.cost

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
        band = band_of(EXAMPLE_IND, EXAMPLE_ASSOC)
        for weights in (band, widened(band)):
            before = weights.copy()
            assert cut_band(EXAMPLE_IND, [3], weights).tolist() == [True, True, False]
            assert cut_band(EXAMPLE_IND, [3], weights).tolist() == [True, True, False]
            assert np.array_equal(weights, before)

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
        assert scaled_cost(ind, assoc, got.source_side) == want.cost


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
        flags = cut_band(*joined([ind for ind, _ in instances]), stacked_band(instances))
        first = np.cumsum([0] + [len(ind) for ind, _ in instances])
        for (ind, assoc), a, b in zip(instances, first, first[1:]):
            side = side_of(flags[a:b])
            assert side == solve(ind, assoc).source_side
            want = brute_force_min(*scale_instance(ind, assoc))
            assert scaled_cost(ind, assoc, side) == want.cost

    def test_empty_batch(self):
        assert cut_band(*joined([]), np.zeros((0, 0))).tolist() == []
        assert cut_band(*joined([]), np.zeros((BANDED_REACH_LIMIT + 1, 0))).tolist() == []


def intersection_of_minimum_labelings(costs, n) -> tuple[int, ...]:
    """The items on the source side of every minimum labeling of ``costs``
    (``labeling_costs``' layout) of n items."""
    common = np.bitwise_and.reduce(np.flatnonzero(costs == costs.min()))
    return tuple(i for i in range(n) if common >> i & 1)


ALL_WEIGHTS = (0.0, 1e-8, 4e-7, 0.25, 0.5)
NO_ARC_WEIGHTS = (0.0, 1e-8, 4e-7)  # each rounds to 0 (``test_no_arc_weights_round_to_zero``)


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


def assert_canonical(instances, flags):
    """Each instance's cut is the intersection of its minimum labelings."""
    first = np.cumsum([0] + [len(ind) for ind, _ in instances])
    for (ind, assoc), a, b in zip(instances, first, first[1:]):
        costs = labeling_costs(*scale_instance(ind, assoc))
        assert side_of(flags[a:b]) == intersection_of_minimum_labelings(costs, len(ind))


class TestCanonicity:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(tied_instances(), min_size=1, max_size=4))
    def test_side_is_the_intersection_of_all_minimum_labelings(self, instances):
        flags = cut_both_ways([ind for ind, _ in instances], stacked_band(instances))
        assert_canonical(instances, flags)


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

    @pytest.mark.parametrize("forced", [(), (3,), (3, 7), (0, 11)])
    def test_lexicographic_tie_break_at_twelve_items(self, forced):
        # the forced items cost 0 on the source side and 1 off it, every
        # other item 0.5 either way: the 2^(12 - len(forced)) labelings that
        # hold the forced items tie. A tuple is less than its extensions and
        # (0, 1) < (0, 3), so the least runs from 0 to the last forced item
        class1, class2 = np.full(12, 0.5), np.full(12, 0.5)
        class1[list(forced)], class2[list(forced)] = 1.0, 0.0
        ind = IndividualScores(class1=class1, class2=class2)
        result = brute_force_min(ind, AssociationScores(pairs={}))
        least = tuple(range(max(forced, default=-1) + 1))
        assert result == CutResult(source_side=least, cost=0.5 * (12 - len(forced)))

    @settings(max_examples=100, deadline=None)
    @given(tied_instances(n_max=12))
    def test_tie_break_is_the_least_sorted_tuple(self, instance):
        costs = labeling_costs(*instance)
        tied = np.flatnonzero(costs == costs.min())
        n = len(instance[0])
        want = min(tuple(i for i in range(n) if mask >> i & 1) for mask in tied.tolist())
        assert brute_force_min(*instance) == CutResult(source_side=want, cost=costs.min())


@st.composite
def spread_instances(draw, n_max=8, top=6):
    """Instances whose scores and weights span 6 + ``top`` orders of magnitude,
    below 10**top, so that adding the same terms in another order changes the
    sums' last bits; a third of the pairs weigh 0, and the pairs come in
    shuffled order."""
    n = draw(st.integers(0, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    class1, class2 = rng.uniform(0, 1, (2, n)) * 10.0 ** rng.uniform(-6, top, (2, n))
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < 0.6]
    rng.shuffle(pairs)
    weights = rng.uniform(0, 1, len(pairs)) * 10.0 ** rng.uniform(-6, top, len(pairs))
    weights[rng.random(len(pairs)) < 1 / 3] = 0.0
    return IndividualScores(class1=class1, class2=class2), AssociationScores(
        pairs={tuple(pair): float(w) for pair, w in zip(pairs, weights)}
    )


class TestLabelingCosts:
    """``labeling_costs`` gives, bit for bit, the costs a plain loop over each
    labeling adds up, and ``partition_cost`` prices one labeling alike."""

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.data())
    def test_equals_the_plain_loop_bit_for_bit(self, scaled, data):
        # a scaled instance is the cut's integer copy, which holds no value
        # beyond the solver's bound: its spread values stay below 10**3
        spread = spread_instances(top=3 if scaled else 6)
        instance = data.draw(st.one_of(spread, tied_instances()))
        if scaled:
            instance = scale_instance(*instance)
        costs = labeling_costs(*instance)
        assert costs.dtype == np.float64
        assert costs.tobytes() == loop_labeling_costs(*instance).tobytes()
        n = len(instance[0])
        for mask in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8)):
            side = [i for i in range(n) if mask >> i & 1]
            assert np.float64(partition_cost(*instance, side)).tobytes() == costs[mask].tobytes()

    def test_worked_example_table(self):
        costs = labeling_costs(EXAMPLE_IND, EXAMPLE_ASSOC)
        for side, expected in EXAMPLE_TABLE.items():
            assert costs[sum(1 << i for i in side)] == pytest.approx(expected, abs=1e-12)

    def test_chunks_cover_every_labeling(self, monkeypatch):
        # 2^7 labelings in chunks of 2^3 give the bytes of one chunk
        rng = np.random.default_rng(5)
        ind = IndividualScores(class1=rng.uniform(0, 1, 7), class2=rng.uniform(0, 1, 7))
        assoc = AssociationScores(pairs={(i, i + 2): float(rng.uniform(0, 1)) for i in range(5)})
        whole = labeling_costs(ind, assoc)
        monkeypatch.setattr(mincut, "ENUMERATION_CHUNK", 8)
        assert labeling_costs(ind, assoc).tobytes() == whole.tobytes()

    def test_refuses_large_instances(self):
        ind = IndividualScores(class1=np.ones(21), class2=np.zeros(21))
        with pytest.raises(ValueError, match="n=21 exceeds 20"):
            labeling_costs(ind, AssociationScores(pairs={}))


class TestOracleRefusals:
    """The oracles refuse what they cannot price, naming the offender."""

    @pytest.mark.parametrize("pair", [(2, 3), (0, 5), (-1, 1), (1, 1), (2, 1)])
    def test_pair_outside_the_instance_refused(self, pair):
        assoc = AssociationScores(pairs={(0, 1): 0.5, pair: 0.25})
        for price in (labeling_costs, brute_force_min, lambda *a: partition_cost(*a, (0,))):
            refusal = re.escape(f"association pair {pair} of weight 0.25")
            with pytest.raises(ValueError, match=refusal):
                price(EXAMPLE_IND, assoc)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_refused(self, weight):
        assoc = AssociationScores(pairs={(0, 2): weight})
        for price in (labeling_costs, lambda *a: partition_cost(*a, ())):
            with pytest.raises(ValueError, match=re.escape(f"(0, 2) of weight {weight} must")):
                price(EXAMPLE_IND, assoc)

    @pytest.mark.parametrize("item", [3, 7, -1])
    def test_side_item_outside_the_instance_refused(self, item):
        with pytest.raises(ValueError, match=re.escape(f"source side item {item} lies outside")):
            partition_cost(EXAMPLE_IND, EXAMPLE_ASSOC, (0, item))

    def test_negative_finite_weight_is_priced(self):
        assoc = AssociationScores(pairs={(0, 1): -0.5})
        assert partition_cost(EXAMPLE_IND, assoc, (0,)) == pytest.approx(0.8 - 0.5, abs=1e-12)
        assert labeling_costs(EXAMPLE_IND, assoc)[0b001] == partition_cost(EXAMPLE_IND, assoc, (0,))


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
    rounded, _, _ = integer_instance(IndividualScores(class1=class1, class2=class1), [])
    exact = rounded == class1 * SCALE
    return np.where(exact & (rng.random(len(class1)) < 0.5), near, class1)


# weights below 0.5 / SCALE round to no arc (``test_no_arc_weights_round_to_zero``)
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
    band = association_band([n], [[0] + breaks], params)
    return IndividualScores(class1=class1, class2=class2), band, params.threshold


class TestBandedOracle:
    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(1, 12))
    def test_oracle_agrees_with_brute_force(self, instance):
        ind, band, reach = instance
        scaled = scale_instance(ind, AssociationScores.from_band(band))
        assert banded_min(*scaled, reach) == brute_force_min(*scaled).cost

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(20, 200))
    def test_min_cut_is_optimal_at_review_lengths(self, instance):
        ind, band, reach = instance
        side = side_of(cut_both_ways([ind], band))
        scaled = scale_instance(ind, AssociationScores.from_band(band))
        best = banded_min(*scaled, reach)
        assert partition_cost(*scaled, side) == best
        # canonical: each item of the side lies on the source side of every
        # minimum labeling, so holding it on the sink side costs strictly more
        assert (banded_min(*scaled, reach, held=list(side)) > best).all()

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(1, 10))
    def test_held_items_agree_with_brute_force(self, instance):
        ind, band, reach = instance
        scaled = scale_instance(ind, AssociationScores.from_band(band))
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
    """A band whose pairs all round to no arc is cut without a max-flow."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tied_instances(weights=NO_ARC_WEIGHTS), min_size=1, max_size=4))
    def test_side_is_the_intersection_of_all_minimum_labelings(self, instances):
        with no_max_flow():
            flags = cut_both_ways([ind for ind, _ in instances], stacked_band(instances))
        assert_canonical(instances, flags)

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(20, 200, strengths=st.sampled_from([0.0, 1e-8, 4e-7])))
    def test_cut_is_canonical_at_review_lengths(self, instance):
        ind, band, reach = instance
        with no_max_flow():
            side = side_of(cut_both_ways([ind], band))
        scaled = scale_instance(ind, AssociationScores.from_band(band))
        best = banded_min(*scaled, reach)
        assert partition_cost(*scaled, side) == best
        assert (banded_min(*scaled, reach, held=list(side)) > best).all()

    def test_a_rounding_tie_is_dropped(self):
        # class 1 wins by 8e-7, which rounds to a tie at the default scale
        scores = IndividualScores(class1=[0.5000004, 0.9], class2=[0.4999996, 0.1])
        params = ProximityParams(threshold=3, decay="exponential", strength=0.0)
        with no_max_flow():
            assert select_graph(scores, [len(scores)], params).tolist() == [False, True]

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
            side = side_of(cut_band(EXAMPLE_IND, [3], widened(band_of(EXAMPLE_IND, assoc))))
        assert len(calls) == 1
        assert side == (0, 1)
        assert scaled_cost(EXAMPLE_IND, assoc, side) == brute_force_min(
            *scale_instance(EXAMPLE_IND, assoc)
        ).cost


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


class TestBandedFlags:
    """``cut_band`` on narrow bands, against its max-flow route and the exhaustive oracles."""

    @settings(max_examples=150, deadline=None)
    @given(banded_batches())
    def test_equals_max_flow_at_review_lengths(self, batch):
        scores, band = batch
        one, counts = joined(scores)
        assert cut_band(one, counts, band).tolist() == cut_band(one, counts, widened(band)).tolist()

    @settings(max_examples=40, deadline=None)
    @given(banded_batches(strengths=st.sampled_from([0.0, 1e-8, 4e-7])))
    def test_pair_free_batches_equal_max_flow(self, batch):
        scores, band = batch
        one, counts = joined(scores)
        assert not integer_instance(one, band)[2].any()
        assert cut_band(one, counts, band).tolist() == cut_band(one, counts, widened(band)).tolist()

    @settings(max_examples=60, deadline=None)
    @given(banded_batches(1, 12, docs=st.just(1)))
    def test_agrees_with_brute_force(self, batch):
        [ind], band = batch
        scaled = scale_instance(ind, AssociationScores.from_band(band))
        side = side_of(cut_both_ways([ind], band))
        assert partition_cost(*scaled, side) == brute_force_min(*scaled).cost
        assert side == intersection_of_minimum_labelings(labeling_costs(*scaled), len(ind))

    @pytest.mark.parametrize("threshold", [1, 3, BANDED_REACH_LIMIT, BANDED_REACH_LIMIT + 1, 19])
    def test_canonical_at_twenty_items(self, threshold):
        # all 2^20 labelings, at brute force's limit; beyond
        # BANDED_REACH_LIMIT the band itself takes the max-flow route
        rng = np.random.default_rng(threshold)
        class1 = np.round(rng.uniform(0, 1, 20) * 4) / 4
        ind = IndividualScores(class1=class1, class2=tie_after_rounding(rng, class1))
        params = ProximityParams(threshold=threshold, decay="inverse_square", strength=0.1)
        band = association_band([20], [[0, 7, 13]], params)
        scaled = scale_instance(ind, AssociationScores.from_band(band))
        costs = labeling_costs(*scaled)
        side = side_of(cut_both_ways([ind], band))
        assert side == intersection_of_minimum_labelings(costs, 20)
        assert partition_cost(*scaled, side) == costs.min()

    @settings(max_examples=40, deadline=None)
    @given(banded_batches(0, 45, docs=st.integers(2, 6)))
    def test_batch_equals_each_instance_alone(self, batch):
        scores, band = batch
        got = cut_both_ways(scores, band)
        first = np.cumsum([0] + [len(ind) for ind in scores])
        for ind, a, b in zip(scores, first, first[1:]):
            assert got[a:b].tolist() == cut_both_ways([ind], band[:, a:b]).tolist()

    @pytest.mark.parametrize("threshold", [4, 5, 9])
    def test_threshold_at_or_beyond_the_review_length(self, threshold):
        rng = np.random.default_rng(threshold)
        scores = [IndividualScores(class1=p, class2=1 - p) for p in rng.uniform(0, 1, (2, 5))]
        params = ProximityParams(threshold=threshold, decay="exponential", strength=0.4)
        band = association_band([5, 5], [None, None], params)
        assert band.shape == (min(threshold, 4), 10)  # every pair of a review is in the band
        want = cut_band(*joined(scores), widened(band)).tolist()
        assert cut_band(*joined(scores), band).tolist() == want
        # rows for distances no review reaches are all 0, and change nothing
        wide = np.vstack([band, np.zeros((BANDED_REACH_LIMIT - len(band), 10))])
        assert cut_band(*joined(scores), wide).tolist() == want

    def test_capacities_at_the_refusal_bounds(self):
        big, half = CAPACITY_BOUND, CAPACITY_BOUND // 2
        class1, class2 = np.array([big, 0, big, 0]), np.array([0, big, big - 1, 0])
        ind = IndividualScores(class1=units(class1), class2=units(class2))
        halves = np.array([[half, half, half, 0], [half, half, 0, 0]])
        band = units(halves)
        assert cut_band(ind, [4], band).tolist() == cut_band(ind, [4], widened(band)).tolist()
        over = IndividualScores(class1=units(class1 + [1, 0, 0, 0]), class2=ind.class2)
        heavier = units(halves + [[1, 0, 0, 0], [0, 0, 0, 0]])
        for scores, weights in (([over], band), ([ind], heavier)):
            with pytest.raises(ValueError, match=r"2\*\*31 - 1") as refused:
                cut_band(*joined(scores), weights)
            with pytest.raises(ValueError) as widened_refused:
                cut_band(*joined(scores), widened(weights))
            assert str(refused.value) == str(widened_refused.value)

    @pytest.mark.parametrize(
        "item, weight, counts, problem",
        [(1, -0.5, [3, 3], "must weigh a finite value >= 0"),
         (0, float("nan"), [3, 3], "must weigh a finite"),
         (1, float("inf"), [3, 3], "must weigh a finite"),
         (2, 0.5, [3, 3], "spans two instances"),
         (2, float("nan"), [3, 3], "spans two instances"),
         (5, 0.2, [3, 3], "runs past the last item, 5"),
         (0, 0.0, [-1, 7], r"instance counts must be integers >= 0, got \[-1, 7\]"),
         (0, 0.0, [1.5, 4.5], r"instance counts must be integers >= 0, got \[1.5, 4.5\]"),
         (0, 0.0, [3, 2], "instance counts sum to 5, not to the 6 items"),
         (0, 0.0, [3, 4], "instance counts sum to 7, not to the 6 items")],
    )
    def test_bad_band_refused_as_build_network_refuses(self, item, weight, counts, problem):
        # item 2 is its instance's last, so its distance-1 pair leaves it, and
        # item 5's runs past every item; the band is refused alike on both routes,
        # as are counts that are negative or do not sum to the six items
        scores, _ = joined([EXAMPLE_IND, EXAMPLE_IND])
        band = np.zeros((1, 6))
        band[0, item] = weight
        with pytest.raises(ValueError, match=problem) as refused:
            cut_band(scores, counts, band)
        with pytest.raises(ValueError) as widened_refused:
            cut_band(scores, counts, widened(band))
        assert str(refused.value) == str(widened_refused.value)

    def test_band_of_the_wrong_width_refused(self):
        with pytest.raises(ValueError, match=r"3 items but a band of shape \(1, 4\)"):
            cut_band(EXAMPLE_IND, [3], np.zeros((1, 4)))

    def test_sums_that_could_overflow_refused(self, monkeypatch):
        monkeypatch.setattr(mincut, "CAPACITY_BOUND", 2**61)
        with pytest.raises(ValueError, match="could overflow int64"):
            cut_band(EXAMPLE_IND, [3], np.zeros((1, 3)))
        # only the banded solver sums capacities in int64
        flags = cut_band(EXAMPLE_IND, [3], widened(np.zeros((1, 3))))
        assert flags.tolist() == [True, False, False]


class TestRoute:
    """``cut_band`` takes the banded solver up to the reach limit, max-flow beyond it."""

    def test_reach_at_the_limit_takes_the_banded_solver(self):
        p = np.random.default_rng(3).uniform(0, 1, BANDED_REACH_LIMIT + 5)
        params = ProximityParams(threshold=BANDED_REACH_LIMIT, strength=0.3)
        with no_max_flow():
            select_graph(IndividualScores(class1=p, class2=1 - p), [len(p)], params)

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
            patch.setattr(mincut, "_min_marginals", counted("banded", mincut._min_marginals))
            patch.setattr(mincut, "maximum_flow", counted("max-flow", mincut.maximum_flow))
            got = select_graph(scores, [len(scores)], params)
        assert calls == [solver]
        band = association_band([n], [None], params)
        assert got.tolist() == cut_band(scores, [len(scores)], widened(band)).tolist()
