import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subjcut import features, mincut
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
    scale_instance,
)

from references import joined, loop_cost, loop_labeling_costs


def band_of(n, pairs) -> np.ndarray:
    """The pairs ``{(i, k): weight}`` of an instance of n items as its band of reach n - 1."""
    band = np.zeros((max(n - 1, 0), n))
    for (i, k), value in pairs.items():
        band[k - i - 1, i] = value
    return band


# the three-item worked example: strong pull between items 0 and 1
EXAMPLE_IND = IndividualScores(
    class1=np.array([0.8, 0.5, 0.1]), class2=np.array([0.2, 0.5, 0.9])
)
EXAMPLE_PAIRS = {(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.2}
EXAMPLE_BAND = band_of(3, EXAMPLE_PAIRS)
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
    band = np.zeros((max(n - 1, 0), n))
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < assoc_density:
                band[k - i - 1, i] = float(rng.uniform(0, 1))
    return ind, band


def stacked_band(instances) -> np.ndarray:
    """The band of a batch of instances: each one's band, widened with zero
    rows to the widest."""
    bands = [band for _, band in instances]
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


def mask_of(side) -> int:
    """The bit mask of a source side, as ``labeling_costs`` indexes it."""
    return sum(1 << i for i in side)


def solve(ind, band) -> tuple[int, ...]:
    """The source side of one instance cut on its own, on both routes."""
    return side_of(cut_both_ways([ind], band))


def scaled_cost(ind, band, side) -> int:
    """The integer cost of ``side`` in the rounded instance the cut is made on."""
    return int(labeling_costs(ind, band)[mask_of(side)])


def raw_cost(ind, band, side) -> float:
    """The cost of ``side`` over the raw scores and weights, before rounding."""
    return float(loop_labeling_costs(ind, band)[mask_of(side)])


def rounded(ind, band):
    """The integer copy of an instance that ``integer_instance`` gives: the
    one the cut and the oracles price, at any length."""
    class1, class2, caps = integer_instance(ind, band)
    return IndividualScores(class1=class1, class2=class2), caps


def units(values) -> np.ndarray:
    """Values that ``integer_instance`` rounds back to the integers ``values``."""
    return np.asarray(values, dtype=np.float64) / SCALE


class TestAssociationScores:
    """An instance's pairs are checked where they become a band's cut, and
    ``scale_instance`` turns them into the band of reach n - 1."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must weigh a finite value >= 0"):
            solve(EXAMPLE_IND, band_of(3, {(0, 1): -0.5}))

    def test_pair_beyond_its_instance_rejected(self):
        beyond = np.zeros((2, 3))
        beyond[0, 2] = 0.5  # the pair (2, 3), past the instance's last item
        instances = [(EXAMPLE_IND, beyond), (EXAMPLE_IND, EXAMPLE_BAND)]
        with pytest.raises(ValueError, match="spans two instances"):
            cut_band(*joined([EXAMPLE_IND, EXAMPLE_IND]), stacked_band(instances))

    def test_scale_instance_gives_the_band_of_reach_n_minus_1(self):
        ind, band = scale_instance(EXAMPLE_IND, AssociationScores(pairs=EXAMPLE_PAIRS))
        assert ind is EXAMPLE_IND
        assert band.tolist() == EXAMPLE_BAND.tolist()
        empty = IndividualScores(class1=[], class2=[])
        assert scale_instance(empty, AssociationScores(pairs={}))[1].shape == (0, 0)

    @pytest.mark.parametrize("pair", [(2, 3), (0, 5), (-1, 1), (1, 1), (2, 1)])
    def test_pair_outside_the_instance_refused(self, pair):
        assoc = AssociationScores(pairs={(0, 1): 0.5, pair: 0.25})
        with pytest.raises(ValueError, match=re.escape(f"pair {pair} is not 0 <= i < k < 3")):
            scale_instance(EXAMPLE_IND, assoc)


class TestBuildNetwork:
    """The band ``cut_band`` is given: its shape, its pairs, and its rounding."""

    def test_worked_example_structure(self):
        # (0, 1) and (1, 2) at distance 1, (0, 2) at distance 2, listed in (i, d) order
        assert EXAMPLE_BAND.tolist() == [[1.0, 0.2, 0.0], [0.1, 0.0, 0.0]]
        pairs, values = band_pairs(EXAMPLE_BAND)
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
            band = units(EXAMPLE_BAND * s)
            side = side_of(cut_both_ways([ind], band))
            assert side == intersection_of_minimum_labelings(labeling_costs(ind, band), 3)


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


class TestCapacityBound:
    def test_huge_score_refused(self):
        # at 10^6 this overflowed a 64-bit cast and cut the wrong side
        ind = IndividualScores(class1=np.array([1e20]), class2=np.array([0.9]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.zeros((0, 1)))

    def test_terminal_capacity_at_the_bound_accepted(self):
        ind = IndividualScores(class1=units([CAPACITY_BOUND]), class2=units([CAPACITY_BOUND - 1]))
        band = np.zeros((0, 1))
        assert solve(ind, band) == (0,)
        assert scaled_cost(ind, band, (0,)) == CAPACITY_BOUND - 1

    def test_terminal_capacity_above_the_bound_refused(self):
        ind = IndividualScores(class1=units([CAPACITY_BOUND + 1]), class2=np.array([0.0]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.zeros((0, 1)))

    def test_association_at_half_the_bound_accepted(self):
        # both directions of an association arc together reach the bound
        weight = CAPACITY_BOUND // 2
        ind = IndividualScores(class1=units([CAPACITY_BOUND, 0]), class2=units([0, CAPACITY_BOUND]))
        band = units([[weight, 0]])
        assert solve(ind, band) == (0,)
        assert scaled_cost(ind, band, (0,)) == weight
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.array([units([weight + 1, 0])]))

    def test_large_association_weight_refused(self):
        ind = IndividualScores(class1=np.array([0.5, 0.5]), class2=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            cut_band(ind, [len(ind)], np.array([[2148.0, 0.0]]))


class TestMinCut:
    """One instance cut as its band of reach n - 1, on both routes."""

    def test_worked_example(self):
        side = solve(EXAMPLE_IND, EXAMPLE_BAND)
        assert side == (0, 1)
        assert raw_cost(EXAMPLE_IND, EXAMPLE_BAND, side) == pytest.approx(1.1, abs=1e-12)
        assert scaled_cost(EXAMPLE_IND, EXAMPLE_BAND, side) == 1_100_000

    def test_zero_association_reduces_to_argmax(self):
        ind = IndividualScores(
            class1=np.array([0.9, 0.2, 0.6, 0.5]), class2=np.array([0.1, 0.8, 0.4, 0.5])
        )
        # item 3 is tied and resolves to the sink side
        assert solve(ind, np.zeros((3, 4))) == (0, 2)

    def test_all_items_source_when_class1_dominates(self):
        ind = IndividualScores(class1=np.array([0.9, 0.8]), class2=np.array([0.1, 0.2]))
        assert solve(ind, np.zeros((1, 2))) == (0, 1)

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            ind, band = random_instance(rng)
            side = solve(ind, band)
            want = brute_force_min(ind, band)
            assert scaled_cost(ind, band, side) == want.cost
            assert side == want.source_side

    def test_no_partition_beats_the_cut(self):
        rng = np.random.default_rng(10)
        ind, band = random_instance(rng, n_max=10)
        costs = labeling_costs(ind, band)
        assert (costs >= costs[mask_of(solve(ind, band))]).all()

    def test_same_side_edge_does_not_change_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ind, band = random_instance(rng, n_max=8)
            side = solve(ind, band)
            same = [
                (i, k)
                for i in range(len(ind))
                for k in range(i + 1, len(ind))
                if (i in side) == (k in side) and band[k - i - 1, i] == 0
            ]
            if not same:
                continue
            i, k = same[0]
            bigger = band.copy()
            bigger[k - i - 1, i] = 0.7
            again = solve(ind, bigger)
            assert scaled_cost(ind, bigger, again) == scaled_cost(ind, band, side)

    def test_positive_scaling_preserves_argmin(self):
        rng = np.random.default_rng(12)
        for factor in (0.5, 2.0, 3.7):
            for _ in range(15):
                ind, band = random_instance(rng, n_max=8)
                base = solve(ind, band)
                scaled_ind = IndividualScores(
                    class1=ind.class1 * factor, class2=ind.class2 * factor
                )
                scaled = solve(scaled_ind, band * factor)
                assert scaled == base
                assert raw_cost(scaled_ind, band * factor, scaled) == pytest.approx(
                    raw_cost(ind, band, base) * factor, rel=1e-9
                )

    def test_repeated_solves_are_stable(self):
        for weights in (EXAMPLE_BAND, widened(EXAMPLE_BAND)):
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
        band = band_of(len(ind), pairs)
        side = solve(ind, band)
        want = brute_force_min(ind, band)
        assert scaled_cost(ind, band, side) == want.cost
        assert side == want.source_side


class TestBatch:
    def test_batch_equals_solving_each_alone(self):
        rng = np.random.default_rng(13)
        empty = (IndividualScores(class1=np.array([]), class2=np.array([])), np.zeros((0, 0)))
        single = (IndividualScores(class1=np.array([0.4]), class2=np.array([0.6])),
                  np.zeros((0, 1)))
        instances = [random_instance(rng, n_max=14) for _ in range(40)]
        instances[5:5] = [empty]
        instances[20:20] = [single, empty]
        flags = cut_band(*joined([ind for ind, _ in instances]), stacked_band(instances))
        first = np.cumsum([0] + [len(ind) for ind, _ in instances])
        for (ind, band), a, b in zip(instances, first, first[1:]):
            side = side_of(flags[a:b])
            assert side == solve(ind, band)
            want = brute_force_min(ind, band)
            assert scaled_cost(ind, band, side) == want.cost
            assert side == want.source_side

    def test_empty_batch(self):
        assert cut_band(*joined([]), np.zeros((0, 0))).tolist() == []
        assert cut_band(*joined([]), np.zeros((BANDED_REACH_LIMIT + 1, 0))).tolist() == []

    @pytest.mark.parametrize("budget", [1, 7, 30])
    @pytest.mark.parametrize("solver, route", [("_min_marginals", np.asarray),
                                               ("_source_side", widened)])
    def test_cut_band_runs_its_solver_a_batch_at_a_time(self, monkeypatch, budget, solver, route):
        rng = np.random.default_rng(budget)
        # reach at most 6, which the banded route cuts, and instances of no items
        instances = [random_instance(rng, n_max=BANDED_REACH_LIMIT + 1) for _ in range(30)]
        empty = (IndividualScores(class1=np.array([]), class2=np.array([])), np.zeros((0, 0)))
        instances[3:3] = [empty, empty]
        scores, counts = joined([ind for ind, _ in instances])
        band = route(stacked_band(instances))
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", 10**9)
        sizes = solver_sizes(monkeypatch, solver)
        whole = cut_band(scores, counts, band)
        assert sizes == [len(scores)]
        assert_canonical(instances, whole)
        sizes.clear()
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", budget)
        assert cut_band(scores, counts, band).tolist() == whole.tolist()
        # one call per batch of ``features.batches``, which closes a batch at
        # the instance that reaches the budget: each holds less than the
        # budget plus that instance
        assert len(sizes) > 1
        assert sizes == [sum(counts[r.start : r.stop]) for r in features.batches(counts, budget)]
        assert max(sizes) < budget + max(counts)
        # a band without a pair arc needs no solver, so nothing is batched
        sizes.clear()
        no_arcs = cut_band(scores, counts, 0 * band)
        assert no_arcs.tolist() == (scores.class1 > scores.class2).tolist()
        assert sizes == []


def solver_sizes(monkeypatch, solver: str) -> list:
    """Patch the cut's two solvers: ``solver`` records the items of each call
    in the returned list, and the other must not be called."""
    sizes, solve = [], getattr(mincut, solver)

    def counted(*args):
        sizes.append(len(args[3 if solver == "_min_marginals" else 0]))  # the margins
        return solve(*args)

    def refused(*args):
        raise AssertionError(f"{solver} is not the only solver called")

    for name in ("_min_marginals", "_source_side"):
        monkeypatch.setattr(mincut, name, counted if name == solver else refused)
    return sizes


def intersection_of_minimum_labelings(costs, n) -> tuple[int, ...]:
    """The items on the source side of every minimum labeling of ``costs``
    (``labeling_costs``' layout) of n items, item by item."""
    minima = np.flatnonzero(costs == costs.min()).tolist()
    return tuple(i for i in range(n) if all(mask >> i & 1 for mask in minima))


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
    return IndividualScores(class1=class1, class2=class2), band_of(n, pairs)


def assert_canonical(instances, flags):
    """Each instance's cut is the intersection of its minimum labelings."""
    first = np.cumsum([0] + [len(ind) for ind, _ in instances])
    for (ind, band), a, b in zip(instances, first, first[1:]):
        assert side_of(flags[a:b]) == brute_force_min(ind, band).source_side


class TestCanonicity:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(tied_instances(), min_size=1, max_size=4))
    def test_side_is_the_intersection_of_all_minimum_labelings(self, instances):
        flags = cut_both_ways([ind for ind, _ in instances], stacked_band(instances))
        assert_canonical(instances, flags)


class TestBruteForce:
    def test_worked_example(self):
        assert brute_force_min(EXAMPLE_IND, EXAMPLE_BAND) == CutResult((0, 1), 1_100_000)

    def test_empty_instance(self):
        ind = IndividualScores(class1=np.array([]), class2=np.array([]))
        assert brute_force_min(ind, np.zeros((0, 0))) == CutResult(source_side=(), cost=0)

    def test_forced_optimum(self):
        ind = IndividualScores(class1=np.array([1.0, 0.0]), class2=np.array([0.0, 1.0]))
        result = brute_force_min(ind, np.zeros((1, 2)))
        assert result.source_side == (0,)
        assert result.cost == 0

    def test_tie_gives_the_intersection(self):
        # every partition costs 1.0; only the empty side lies in all of them
        ind = IndividualScores(class1=np.array([0.5, 0.5]), class2=np.array([0.5, 0.5]))
        result = brute_force_min(ind, np.zeros((1, 2)))
        assert result.source_side == ()

    def test_refuses_large_instances(self):
        n = 21
        ind = IndividualScores(class1=np.ones(n), class2=np.zeros(n))
        with pytest.raises(ValueError):
            brute_force_min(ind, np.zeros((0, n)))

    @pytest.mark.parametrize("forced", [(), (3,), (3, 7), (0, 11)])
    def test_intersection_at_twelve_items(self, forced):
        # the forced items cost 0 on the source side and 1 off it, every
        # other item 0.5 either way: the 2^(12 - len(forced)) labelings that
        # hold the forced items tie, and only the forced items lie in all
        class1, class2 = np.full(12, 0.5), np.full(12, 0.5)
        class1[list(forced)], class2[list(forced)] = 1.0, 0.0
        ind = IndividualScores(class1=class1, class2=class2)
        result = brute_force_min(ind, np.zeros((0, 12)))
        assert result == CutResult(source_side=forced, cost=500_000 * (12 - len(forced)))

    @settings(max_examples=100, deadline=None)
    @given(tied_instances(n_max=12))
    def test_side_is_the_intersection_of_the_minimum_labelings(self, instance):
        costs = labeling_costs(*instance)
        want = intersection_of_minimum_labelings(costs, len(instance[0]))
        assert brute_force_min(*instance) == CutResult(source_side=want, cost=costs.min())
        # the minimum labelings form a lattice: their intersection is one of them
        assert costs[mask_of(want)] == costs.min()


@st.composite
def spread_instances(draw, n_max=8, top=3):
    """Instances whose scores and weights span 6 + ``top`` orders of magnitude,
    below 10**top; a third of the pairs weigh 0."""
    n = draw(st.integers(0, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    class1, class2 = rng.uniform(0, 1, (2, n)) * 10.0 ** rng.uniform(-6, top, (2, n))
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < 0.6]
    weights = rng.uniform(0, 1, len(pairs)) * 10.0 ** rng.uniform(-6, top, len(pairs))
    weights[rng.random(len(pairs)) < 1 / 3] = 0.0
    return IndividualScores(class1=class1, class2=class2), band_of(
        n, {pair: float(w) for pair, w in zip(pairs, weights)}
    )


class TestLabelingCosts:
    """``labeling_costs`` gives exactly the costs a plain loop over each
    labeling adds up on the rounded instance."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(spread_instances(), tied_instances()))
    def test_equals_the_plain_loop_exactly(self, instance):
        # the rounded copy holds integers below 2**53, which float sums keep exact
        costs = labeling_costs(*instance)
        assert costs.dtype == np.int64
        assert costs.tolist() == loop_labeling_costs(*rounded(*instance)).tolist()

    @pytest.mark.parametrize("side,expected", sorted(EXAMPLE_TABLE.items()))
    def test_worked_example_table(self, side, expected):
        costs = labeling_costs(EXAMPLE_IND, EXAMPLE_BAND)
        assert costs[mask_of(side)] / SCALE == pytest.approx(expected, abs=1e-12)
        assert raw_cost(EXAMPLE_IND, EXAMPLE_BAND, side) == pytest.approx(expected, abs=1e-12)

    def test_empty_instance(self):
        ind = IndividualScores(class1=np.array([]), class2=np.array([]))
        assert labeling_costs(ind, np.zeros((0, 0))).tolist() == [0]

    def test_refuses_large_instances(self):
        ind = IndividualScores(class1=np.ones(21), class2=np.zeros(21))
        with pytest.raises(ValueError, match="n=21 exceeds 20"):
            labeling_costs(ind, np.zeros((0, 21)))


class TestOracleRefusals:
    """The oracles refuse what ``cut_band`` refuses of one instance, in its words."""

    @pytest.mark.parametrize(
        "ind, item, weight, problem",
        [(EXAMPLE_IND, 2, 0.5, "(2, 3) of weight 0.5 runs past the last item, 2"),
         (EXAMPLE_IND, 2, float("nan"), "(2, 3) of weight nan runs past the last item, 2"),
         (EXAMPLE_IND, 0, float("nan"), "(0, 1) of weight nan must weigh a finite value >= 0"),
         (EXAMPLE_IND, 1, -0.5, "(1, 2) of weight -0.5 must weigh a finite value >= 0"),
         (EXAMPLE_IND, 1, float("inf"), "(1, 2) of weight inf must weigh a finite value >= 0"),
         (IndividualScores(class1=[1e20, 0.5, 0.1], class2=[0.9, 0.5, 0.1]), 0, 0.5,
          f"class-1 score 1e+20 at scale {SCALE}"),
         (IndividualScores(class1=[0.1, 0.5, 0.1], class2=[0.9, 1e20, 0.1]), 0, 0.5,
          f"class-2 score 1e+20 at scale {SCALE}"),
         (EXAMPLE_IND, 0, float(units(CAPACITY_BOUND // 2 + 1)),
          f"association weight 1073.741824 at scale {SCALE}")],
    )
    def test_bad_band_refused_as_cut_band_refuses(self, ind, item, weight, problem):
        band = np.zeros((1, 3))
        band[0, item] = weight
        with pytest.raises(ValueError, match=re.escape(problem)) as cut:
            cut_band(ind, [3], band)
        for oracle in (labeling_costs, brute_force_min):
            with pytest.raises(ValueError) as refused:
                oracle(ind, band)
            assert str(refused.value) == str(cut.value)

    @pytest.mark.parametrize("band", [np.zeros((1, 4)), np.zeros(3)])
    def test_band_of_the_wrong_shape_refused_as_cut_band_refuses(self, band):
        with pytest.raises(ValueError, match="3 items but a band of shape") as cut:
            cut_band(EXAMPLE_IND, [3], band)
        for oracle in (labeling_costs, brute_force_min):
            with pytest.raises(ValueError) as refused:
                oracle(EXAMPLE_IND, band)
            assert str(refused.value) == str(cut.value)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_refused(self, weight):
        band = band_of(3, {(0, 2): weight})
        for price in (labeling_costs, brute_force_min):
            with pytest.raises(ValueError, match=re.escape(f"(0, 2) of weight {weight} must")):
                price(EXAMPLE_IND, band)


def banded_min(ind, band, reach, held=None):
    """Exact minimum labeling cost when every pair of ``band`` joins items at
    most ``reach`` apart.

    A Viterbi pass left to right over the 2^reach states "labels of the last
    ``reach`` items" (bit d - 1 holds the label of the item d back), so it is
    O(n * 2^reach) and reaches review lengths that brute force cannot. Given
    ``held``, a list of items, it returns one minimum per item instead, over
    the labelings that hold that item on the sink side, all in the same pass.
    """
    assert not band[reach:].any(), "pair beyond the band"
    weights = {(i + d, d): band[d - 1, i] for d in range(1, len(band) + 1) for i in range(len(ind))}
    variants = np.array([-1] if held is None else held)
    states = np.arange(1 << reach)
    back_labels = (states[:, None] >> np.arange(reach)) & 1
    cost = np.full((len(variants), len(states)), np.inf)
    cost[:, 0] = 0.0  # items before the first have no pairs, so their labels are free
    for j in range(len(ind)):
        row = np.array([weights.get((j, d), 0.0) for d in range(1, reach + 1)])
        step = np.full(cost.shape, np.inf)
        # label 1 puts item j on the source side (class 1) and pays its class-2 score
        for label, unary in ((0, ind.class1[j]), (1, ind.class2[j])):
            candidates = cost + unary + (back_labels != label) @ row
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
        assert banded_min(*rounded(ind, band), reach) == brute_force_min(ind, band).cost

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(20, 200))
    def test_min_cut_is_optimal_at_review_lengths(self, instance):
        ind, band, reach = instance
        side = side_of(cut_both_ways([ind], band))
        scaled = rounded(ind, band)
        best = banded_min(*scaled, reach)
        assert loop_cost(*scaled, side) == best
        # canonical: each item of the side lies on the source side of every
        # minimum labeling, so holding it on the sink side costs strictly more
        assert (banded_min(*scaled, reach, held=list(side)) > best).all()

    @settings(max_examples=60, deadline=None)
    @given(proximity_instances(1, 10))
    def test_held_items_agree_with_brute_force(self, instance):
        ind, band, reach = instance
        costs = labeling_costs(ind, band)
        masks = np.arange(len(costs))
        want = [costs[(masks >> i & 1) == 0].min() for i in range(len(ind))]
        held = banded_min(*rounded(ind, band), reach, held=list(range(len(ind))))
        assert held.tolist() == want


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
        scaled = rounded(ind, band)
        best = banded_min(*scaled, reach)
        assert loop_cost(*scaled, side) == best
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
        band = band_of(3, {(0, 1): 1e-6, (1, 2): 4e-7})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mincut, "maximum_flow", counted)
            side = side_of(cut_band(EXAMPLE_IND, [3], widened(band)))
        assert len(calls) == 1
        assert side == (0, 1)
        want = brute_force_min(EXAMPLE_IND, band)
        assert scaled_cost(EXAMPLE_IND, band, side) == want.cost
        assert side == want.source_side


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
        side = side_of(cut_both_ways([ind], band))
        assert scaled_cost(ind, band, side) == brute_force_min(ind, band).cost
        assert side == intersection_of_minimum_labelings(labeling_costs(ind, band), len(ind))

    @pytest.mark.parametrize("threshold", [1, 3, BANDED_REACH_LIMIT, BANDED_REACH_LIMIT + 1, 19])
    def test_canonical_at_twenty_items(self, threshold):
        # all 2^20 labelings, at brute force's limit; beyond
        # BANDED_REACH_LIMIT the band itself takes the max-flow route
        rng = np.random.default_rng(threshold)
        class1 = np.round(rng.uniform(0, 1, 20) * 4) / 4
        ind = IndividualScores(class1=class1, class2=tie_after_rounding(rng, class1))
        params = ProximityParams(threshold=threshold, decay="inverse_square", strength=0.1)
        band = association_band([20], [[0, 7, 13]], params)
        costs = labeling_costs(ind, band)
        side = side_of(cut_both_ways([ind], band))
        assert side == intersection_of_minimum_labelings(costs, 20)
        assert costs[mask_of(side)] == costs.min()

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
