"""Golden digests of predictions: a guard on byte-identical scoring.

Every learner is trained under ``merge`` and ``ensemble`` on both
variants of one fixed 60-student ``synth`` cohort, and scores every
student of a fresh cohort.  The sha256 of ``repr`` of the ``predict`` or
``vote_predict`` outputs is compared with the literal table below.  The
same digest also covers single-class (degenerate) models and a parsed
rule list that tests a missing value with ``= ?``; every model scores the
same after a round trip through its JSON text.

A speed-up must leave this table untouched.  To print a fresh table:

    PYTHONPATH=src python3 tests/test_predict_digests.py
"""

import hashlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from fusemine.ensemble import (
    FusionConfig, VoteModel, prepare_approach, run_approach, vote_predict,
)
from fusemine.evaluation import VARIANTS
from fusemine.learners import (
    ALGORITHMS, model_from_json, model_to_json, parse_rules, predict, train,
)
from fusemine.preprocess import preprocess_bundle
from fusemine.synth import CohortSpec, generate
from fusemine.tabular import DataTable

from helpers import missing_slot_table, planted_dataset

PANEL = CohortSpec(n_students=60, class_counts=(20, 20, 20), noise_rate=0.1, seed=8)
FRESH = CohortSpec(n_students=60, class_counts=(20, 20, 20), noise_rate=0.1, seed=9)
APPROACHES = ("merge", "ensemble")
TRAIN_SEED = 3

#: Rules over ``missing_slot_table``'s schema; the first fires on a missing ``a``.
MISSING_RULES = """\
IF a = ? THEN Dropout
IF a = High AND b <= 0.35 THEN Pass
IF b > 0.35 THEN Fail
ELSE Pass
"""

# case -> sha256 of repr of the case's predictions
DIGESTS = {
    'c45/merge/numeric':
        'd882f4151a0f46144661ae7ab948c348601be015d33fdf4a4adcbf66920ea5c4',
    'reptree/merge/numeric':
        'ec7cb6f298e56b6e38f501ee83bdbbdf6d4f92c4c08e80368e7ba62c756c9cfc',
    'randomtree/merge/numeric':
        '012b9f4bb70dc9ef0768b4e825ec665cc3bba9c1e2228745c4df6c3b09c4f593',
    'ripper/merge/numeric':
        'f0f3b90b9da6fe9515f6c4cc379670ef6ea19ac8d2bb9646fa60427ec7921199',
    'part/merge/numeric':
        '2d789c721ec0c54d06ad9f458ec2fa865e99497495bfb0141d20f2e706352b9c',
    'nnge/merge/numeric':
        'dc842ab32f7747e8b3f39b30efd9f8570da7875f7df72abdf41dcdeed50ce96b',
    'c45/ensemble/numeric':
        '03f289eccbc6beae2430dd6238d28d353fc93f648c30e9875abd71999bd0a986',
    'reptree/ensemble/numeric':
        'a7ef3bfc9194023b9062fa75ca73453a530b4ce2ca7ef2f2107b5d5d4d8bb3dc',
    'randomtree/ensemble/numeric':
        '33214c5e6b3955a4e96ccf3e9211ae94f1753a07b9d799bec44eea73f8c7e8d0',
    'ripper/ensemble/numeric':
        '2379d3922af4884d4dbf1e7853f3683aeefc73f075088e1e0d4b01211e2380e6',
    'part/ensemble/numeric':
        'dfb6b9fd6f268206f67faa22c15da8fc85d6b189d64e182233d94756b61c5a9a',
    'nnge/ensemble/numeric':
        '0c232bba23a5b00ed09024f4632c73e5592ac1cafbcfbba89fbd2e02e0ea902f',
    'c45/merge/discretized':
        '99e98ae237a2fe16e12e0f51bdcfb128c558cd47c47ab28d7f7f064bcb320580',
    'reptree/merge/discretized':
        '08a880d9131094f29b615c6635bec01e8e5cf45c680cefee45743efcb6aa1e85',
    'randomtree/merge/discretized':
        '5e9b6c73614c56e6ccdff074a1cc1662a1a7cc5a51b87fa21ab69694fd5bf5a8',
    'ripper/merge/discretized':
        '9f03dd08fc31668b1e5b2af0c403b62e67b02c0f028dd459d54145d0e344e98d',
    'part/merge/discretized':
        '35b1f532a5d8746e09439e19bf9be9f22619c1688810138ceefc5656c0633703',
    'nnge/merge/discretized':
        'b47acafe6e07b2c61326ec5d4924ca09aab0a20db45a222ea5f9bdef3fe3b49e',
    'c45/ensemble/discretized':
        '9e344d7be16dbaab5c045871a55412b7d1e20781f062ba3936d02bf849de2437',
    'reptree/ensemble/discretized':
        '880095979690e353252d6391b467f6af12cafd29eeeea9706c1b3bd0885732f0',
    'randomtree/ensemble/discretized':
        '8c7f042182d2b9304414455187d9a193d1a71db2d5c0d3756a62428aa0d5a051',
    'ripper/ensemble/discretized':
        'a42e71a2c8677c9ebc56a04ed13b9f7c442f51ecd1864f5deac676c1ab59a5c8',
    'part/ensemble/discretized':
        'cedfeb89f8354a13f897aade1edba79ade4cbda1482d93b27fdf53c285f7e8bb',
    'nnge/ensemble/discretized':
        'dd86eaf8109bbd9ca7fe2d4f20a238f7fb575644b934e240dc914439417c3e78',
    'c45/degenerate':
        'ad17ea5066f3b0b426a8d087fea1830ca0aa8a428deab9a78cff7f8865624b01',
    'reptree/degenerate':
        'ad17ea5066f3b0b426a8d087fea1830ca0aa8a428deab9a78cff7f8865624b01',
    'randomtree/degenerate':
        'ad17ea5066f3b0b426a8d087fea1830ca0aa8a428deab9a78cff7f8865624b01',
    'ripper/degenerate':
        'ad17ea5066f3b0b426a8d087fea1830ca0aa8a428deab9a78cff7f8865624b01',
    'part/degenerate':
        'ad17ea5066f3b0b426a8d087fea1830ca0aa8a428deab9a78cff7f8865624b01',
    'nnge/degenerate':
        'ad17ea5066f3b0b426a8d087fea1830ca0aa8a428deab9a78cff7f8865624b01',
    'parsed/missing':
        '26eda1887ff9e2d1f9b77c40d3244335d9db8d5ffdc2e69d75ae6dfbc28db016',
}


def _round_trip(model):
    if isinstance(model, VoteModel):
        models = {name: model_from_json(model_to_json(m)) for name, m in model.models.items()}
        return VoteModel(models, dict(model.weights))
    return model_from_json(model_to_json(model))


def _scores(model, rows):
    if isinstance(model, VoteModel):
        return [vote_predict(model, row) for row in rows]
    return [predict(model, row) for row in rows]


def _panel_cases():
    """(case, model, rows) for every panel cell."""
    panel = preprocess_bundle(generate(PANEL)[0])
    fresh = preprocess_bundle(generate(FRESH)[0])
    for variant in VARIANTS:
        for approach in APPROACHES:
            config = FusionConfig(approach=approach)
            data = prepare_approach(config, getattr(fresh, variant))
            if data.kind == "merged":
                rows = data.merged.rows
            else:
                rows = [
                    dict(zip(data.per_source, parts))
                    for parts in zip(*(t.rows for t in data.per_source.values()))
                ]
            for algorithm in ALGORITHMS:
                model, _ = run_approach(
                    config, getattr(panel, variant), algorithm, seed=TRAIN_SEED
                )
                yield f"{algorithm}/{approach}/{variant}", model, rows


def _other_cases():
    """(case, model, rows) for single-class models and a ``= ?`` rule list."""
    table = planted_dataset(n=90, seed=4, noise=0.2)
    rows = table.rows
    one_class = DataTable(table.specs, [row for row in rows if row[-1] == 2])
    for algorithm in ALGORITHMS:
        yield f"{algorithm}/degenerate", train(algorithm, one_class, seed=TRAIN_SEED), rows
    missing = missing_slot_table()
    # Missing cells of both kinds, and a row exactly at the threshold.
    extra = [(None, None, 0), (2, None, 0), (2, 0.35, 0), (1, 0.35, 0)]
    yield "parsed/missing", parse_rules(MISSING_RULES, missing.specs), list(missing.rows) + extra


def _cases():
    yield from _panel_cases()
    yield from _other_cases()


def _digest(scores) -> str:
    return hashlib.sha256(repr(scores).encode()).hexdigest()


@pytest.fixture(scope="module")
def cases():
    return {case: (model, rows) for case, model, rows in _cases()}


def test_the_table_covers_every_case(cases):
    assert set(cases) == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_predictions_match_the_recorded_digest(cases, case):
    model, rows = cases[case]
    scores = _scores(model, rows)
    assert _digest(scores) == DIGESTS[case]
    assert repr(_scores(_round_trip(model), rows)) == repr(scores)


if __name__ == "__main__":
    print("DIGESTS = {")
    for case, model, rows in _cases():
        print(f"    {case!r}:\n        {_digest(_scores(model, rows))!r},")
    print("}")
