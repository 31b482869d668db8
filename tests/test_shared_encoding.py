"""Learners that share one ``Encoded`` train as they do on their own.

The grid encodes each fold's training rows once and trains all six
learners on that encoding, and C4.5 and PART share its pruned tree of
all rows.  These tests pin that sharing changes no model and that no
learner writes to the encoding."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from fusemine.evaluation import DEFAULT_ALGORITHM_ORDER
from fusemine.learners import ALGORITHMS, PARAMS, model_to_json, train
from fusemine.learners import trees
from fusemine.learners.encode import encode_table

from helpers import mixed_tables, planted_dataset


#: The key of C4.5's tree in ``Encoded.c45_trees``; PART runs at the same setting.
C45_KEY = (PARAMS["c45"]["confidence"], PARAMS["c45"]["min_leaf"])


def read_fields(enc):
    return copy.deepcopy((enc.cols, enc.y, enc.has_missing, enc.numeric_fill))


@settings(max_examples=150, deadline=None)
@given(table=mixed_tables(), seed=st.integers(0, 2**32 - 1))
def test_six_learners_on_one_encoding_train_as_on_their_own(table, seed):
    alone = {alg: model_to_json(train(alg, table, seed=seed)) for alg in ALGORITHMS}
    for order in (DEFAULT_ALGORITHM_ORDER, DEFAULT_ALGORITHM_ORDER[::-1]):
        enc = encode_table(table)
        before = read_fields(enc)
        for alg in order:
            assert model_to_json(train(alg, enc, seed=seed)) == alone[alg], (alg, order)
        assert read_fields(enc) == before


@pytest.fixture
def root_growths(monkeypatch):
    """The row count of every root ``grow_tree`` call, whoever makes it."""
    roots = []
    depth = [0]
    grow = trees.grow_tree

    def counted(enc, idx, *args, **kwargs):
        if not depth[0]:
            roots.append(len(idx))
        depth[0] += 1
        try:
            return grow(enc, idx, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(trees, "grow_tree", counted)
    return roots


@pytest.mark.parametrize("numeric", [False, True], ids=["nominal", "numeric"])
@pytest.mark.parametrize("order", [("c45", "part"), ("part", "c45")], ids="-".join)
def test_c45_and_part_grow_one_full_tree_per_encoding(root_growths, order, numeric):
    table = planted_dataset(n=120, seed=4, noise=0.1, numeric=numeric)
    enc = encode_table(table)
    for alg in order:
        train(alg, enc)
    assert root_growths.count(enc.n_rows) == 1
    # PART's later trees grow on the rows its rules have not covered.
    assert len(root_growths) > 2
    assert list(enc.c45_trees) == [C45_KEY]

    root_growths.clear()
    for alg in order:
        train(alg, table)
    assert root_growths.count(enc.n_rows) == 2


@pytest.mark.parametrize("numeric", [False, True], ids=["nominal", "numeric"])
def test_part_only_reads_the_shared_tree(numeric):
    table = planted_dataset(n=120, seed=4, noise=0.1, numeric=numeric)
    enc = encode_table(table)
    c45 = train("c45", enc)
    before = model_to_json(c45)
    part = train("part", enc)
    assert enc.c45_trees[C45_KEY] is c45.structure.root
    assert model_to_json(c45) == before
    assert model_to_json(part) == model_to_json(train("part", table))
