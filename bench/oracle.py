"""Reference computations the benchmark checks the program against.

Nothing here calls into ``subjcut``; every formula is re-derived from the
documentation so that a fault in the program cannot hide in its own check.

* A banded dynamic program for the minimum cut. When association edges only
  join items at most T apart, the labeling cost can be minimised left to
  right over the 2^T states "labels of the last T items", which is exact and
  O(n * 2^T). It runs on the scaled-integer instance (scores times 10^6,
  rounded half to even), the same instance the flow solver cuts, so costs
  compare exactly.
* The proximity association weights: strength * decay(distance), times the
  cross-paragraph weight for pairs in different paragraphs.
* A sparse-matrix Naive Bayes over unigram presence, for the polarity folds.
* The documented digest of a fold's training inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

SCALE = 10**6
INFEASIBLE = 2**60  # forced-away labels; far above any reachable cost


def decay(name: str, distance: int) -> float:
    if name == "constant":
        return 1.0
    if name == "exponential":
        return math.exp(1 - distance)
    if name == "inverse_square":
        return 1.0 / (distance * distance)
    raise ValueError(f"unknown decay {name!r}")


def proximity_band(
    n: int,
    threshold: int,
    decay_name: str,
    strength: float,
    cross_paragraph_weight: float,
    paragraph_starts: Sequence[int] = (0,),
) -> np.ndarray:
    """Float weights ``band[j, d - 1]`` of the pair (j - d, j); 0 where j < d."""
    band = np.zeros((n, threshold))
    paragraph = [bisect.bisect_right(paragraph_starts, i) for i in range(n)]
    for d in range(1, threshold + 1):
        base = strength * decay(decay_name, d)
        for j in range(d, n):
            same = paragraph[j] == paragraph[j - d]
            band[j, d - 1] = base if same else base * cross_paragraph_weight
    return band


def scaled(values) -> np.ndarray:
    """Integer capacities: value * 10^6 rounded half to even."""
    return np.rint(np.asarray(values, dtype=float) * SCALE).astype(np.int64)


def pad(rows: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Stack ragged leading-axis arrays into one zero-padded batch."""
    shape = (len(rows), width) + rows[0].shape[1:]
    out = np.zeros(shape, dtype=rows[0].dtype)
    for b, row in enumerate(rows):
        out[b, : len(row)] = row
    return out


def _transitions(threshold: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    states = np.arange(1 << threshold)
    # mismatch[s, x, d]: does the label d + 1 items back (bit d of s) differ from x?
    bits = (states[:, None] >> np.arange(threshold)[None, :]) & 1
    mismatch = np.stack([bits != 0, bits != 1], axis=1).astype(np.int64)
    x_of = states & 1
    low = states >> 1
    return mismatch, x_of, low, low | (1 << (threshold - 1))


def banded_min(sink_cost: np.ndarray, source_cost: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Exact minimum labeling cost of each instance in a batch.

    ``sink_cost[b, j]`` is paid when item j is left out (class 2),
    ``source_cost[b, j]`` when it is selected (class 1), and
    ``band[b, j, d - 1]`` when items j - d and j get different labels. All
    int64. Padding with zeros leaves a cost unchanged.
    """
    batch, n, threshold = band.shape
    mismatch, x_of, prev_a, prev_b = _transitions(threshold)
    unary = np.stack([sink_cost, source_cost], axis=2)  # (B, n, 2)
    dp = np.full((batch, 1 << threshold), INFEASIBLE, dtype=np.int64)
    dp[:, 0] = 0  # labels before item 0 are irrelevant: their weights are 0
    rows = np.arange(batch)[:, None]
    for j in range(n):
        penalty = np.einsum("bd,sxd->bsx", band[:, j, :], mismatch)
        cand = dp[:, :, None] + penalty + unary[:, j, None, :]
        dp = np.minimum(cand[rows, prev_a, x_of], cand[rows, prev_b, x_of])
        np.minimum(dp, INFEASIBLE, out=dp)
    return dp.min(axis=1)


def labeling_cost(
    sink_cost: np.ndarray, source_cost: np.ndarray, band: np.ndarray, selected: np.ndarray
) -> np.ndarray:
    """Cost of the given 0/1 labelings (``selected[b, j]``) of a batch."""
    x = selected.astype(bool)
    cost = np.where(x, source_cost, sink_cost).sum(axis=1)
    for d in range(1, band.shape[2] + 1):
        split = x[:, d:] != x[:, :-d]
        cost += (band[:, d:, d - 1] * split).sum(axis=1)
    return cost


def forced_out_rows(
    sink_cost: np.ndarray,
    source_cost: np.ndarray,
    band: np.ndarray,
    items: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One copy of instance b per (b, j) in ``items``, with item j forced to class 2."""
    idx = np.array([b for b, _ in items], dtype=np.intp)
    forced_source = source_cost[idx].copy()
    forced_source[np.arange(len(items)), [j for _, j in items]] = INFEASIBLE
    return sink_cost[idx], forced_source, band[idx]


def canonical_side(
    sink_cost: np.ndarray, source_cost: np.ndarray, band: np.ndarray
) -> tuple[tuple[int, ...], int]:
    """Smallest optimal source side of one instance, and the optimum.

    Optimal source sides are closed under intersection, so the smallest one is
    the set of items whose exclusion raises the optimum.
    """
    n = len(sink_cost)
    batch = (sink_cost[None], source_cost[None], band[None])
    best = int(banded_min(*batch)[0])
    if n == 0:
        return (), best
    forced = banded_min(*forced_out_rows(*batch, [(0, j) for j in range(n)]))
    return tuple(j for j in range(n) if forced[j] > best), best


# ---------------------------------------------------------------------------
# Naive Bayes over unigram presence, one sparse product per fold


def presence_matrix(token_sets: Sequence[Sequence[str]]) -> sp.csr_matrix:
    """Document-by-type 0/1 matrix over every type seen in ``token_sets``."""
    index: dict[str, int] = {}
    indptr = [0]
    indices: list[int] = []
    for tokens in token_sets:
        ids = {index.setdefault(t, len(index)) for t in tokens}
        indices.extend(sorted(ids))
        indptr.append(len(indices))
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(token_sets), len(index)))


def nb_fold_predictions(
    presence: sp.csr_matrix, labels: np.ndarray, train: np.ndarray, test: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add-one multinomial NB over presence: test predictions and log-score gaps.

    The vocabulary is every type present in a training row; the event model
    counts each present type once per document. Returns (predicted label,
    log P(1, x) - log P(0, x)) for the test rows.
    """
    x_train = presence[train]
    in_vocab = np.asarray(x_train.sum(axis=0)).ravel() > 0
    cols = np.flatnonzero(in_vocab)
    y = labels[train]
    class_n = np.array([(y == 0).sum(), (y == 1).sum()], dtype=float)
    log_prior = np.log(class_n / class_n.sum())
    x_train = x_train[:, cols]
    counts = np.vstack([
        np.asarray(x_train[y == 0].sum(axis=0)).ravel(),
        np.asarray(x_train[y == 1].sum(axis=0)).ravel(),
    ])
    v = len(cols)
    log_lik = np.log(counts + 1.0) - np.log(counts.sum(axis=1, keepdims=True) + v)
    joint = presence[test][:, cols] @ log_lik.T + log_prior
    gap = joint[:, 1] - joint[:, 0]
    return (gap > 0).astype(int), gap


def train_digest(pairs) -> str:
    """SHA-256 over sorted (id, text) pairs, each framed as id \\x00 text \\x01."""
    h = hashlib.sha256()
    for doc_id, text in sorted(pairs):
        h.update(doc_id.encode("utf-8") + b"\x00" + text.encode("utf-8") + b"\x01")
    return h.hexdigest()
