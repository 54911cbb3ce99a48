"""The banded min-cut oracle against the program's brute-force enumerator."""

import numpy as np
import pytest

import oracle
from subjcut.classifiers import IndividualScores
from subjcut.mincut import AssociationScores, brute_force_min, scale_instance


def random_banded_instance(rng, n, threshold):
    ind = IndividualScores(class1=rng.uniform(0, 1, n), class2=rng.uniform(0, 1, n))
    band = np.zeros((n, threshold))
    pairs = {}
    for j in range(n):
        for d in range(1, min(threshold, j) + 1):
            if rng.random() < 0.7:
                band[j, d - 1] = pairs[(j - d, j)] = float(rng.uniform(0, 1.5))
    return ind, AssociationScores(pairs=pairs), band


def oracle_side(ind, band):
    sink, source = oracle.scaled(ind.class1), oracle.scaled(ind.class2)
    return oracle.canonical_side(sink, source, oracle.scaled(band))


@pytest.mark.parametrize("n", list(range(1, 13)) + [20])
def test_banded_dp_matches_brute_force(n):
    rng = np.random.default_rng(1000 + n)
    for threshold in (1, 2, 3) if n < 20 else (3,):
        ind, assoc, band = random_banded_instance(rng, n, threshold)
        want = brute_force_min(*scale_instance(ind, assoc))
        side, best = oracle_side(ind, band)
        assert best == int(want.cost)
        sink, source, weights = (oracle.scaled(a)[None] for a in (ind.class1, ind.class2, band))
        chosen = np.zeros((1, n), dtype=bool)
        chosen[0, list(side)] = True
        assert oracle.labeling_cost(sink, source, weights, chosen)[0] == best
        assert set(side) <= set(want.source_side)


def test_batched_padding_leaves_costs_unchanged():
    rng = np.random.default_rng(7)
    instances = [random_banded_instance(rng, n, 3) for n in (3, 9, 5)]
    rows = [
        [oracle.scaled(a) for a in (ind.class1, ind.class2, band)]
        for ind, _, band in instances
    ]
    batch = [oracle.pad([r[k] for r in rows], 9) for k in range(3)]
    got = oracle.banded_min(*batch)
    for b, r in enumerate(rows):
        assert got[b] == oracle.banded_min(*(a[None] for a in r))[0]


def test_worked_example():
    ind = IndividualScores(class1=np.array([0.8, 0.5, 0.1]), class2=np.array([0.2, 0.5, 0.9]))
    band = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.1]])
    side, best = oracle_side(ind, band)
    assert side == (0, 1)
    assert best == 1_100_000


def test_proximity_band_formula():
    band = oracle.proximity_band(5, 2, "exponential", 0.5, 0.25, paragraph_starts=(0, 3))
    assert band[0].tolist() == [0.0, 0.0]
    assert band[1, 0] == 0.5
    assert band[3, 0] == 0.5 * 0.25  # (2, 3) straddles the break at 3
    assert band[4, 1] == 0.5 * np.exp(-1.0) * 0.25
    assert band[4, 0] == 0.5


def test_nb_fold_predictions_by_hand():
    docs = [["good", "fun"], ["good"], ["bad", "dull"], ["bad"], ["good", "bad"]]
    labels = np.array([1, 1, 0, 0, 1])
    x = oracle.presence_matrix(docs)
    pred, gap = oracle.nb_fold_predictions(x, labels, np.arange(4), np.array([4]))
    # vocabulary {good, fun, bad, dull}: each class has 3 presences, V = 4
    want = (np.log(3 / 7) + np.log(1 / 7)) - (np.log(1 / 7) + np.log(3 / 7))
    assert gap[0] == pytest.approx(want, abs=1e-12)
    assert pred[0] == 0
