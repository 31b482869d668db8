"""Golden digests of single-class models: every learner builds them itself.

Each learner is trained on two tables whose rows all hold one class, one
with nominal inputs and one with numeric inputs, each with a missing
cell.  The sha256 of each model's JSON text is compared with the literal
table below, so a single-class model stays byte-identical however the
learners reach it.  To print a fresh table:

    PYTHONPATH=src python3 tests/test_single_class_digests.py
"""

import hashlib

import pytest

from fusemine.learners import ALGORITHMS, model_to_json, train
from fusemine.tabular import AttributeSpec, DataTable

GRADE = ("Low", "Medium", "High")
STATUS = ("Pass", "Fail", "Dropout")
TRAIN_SEED = 5


def _table(kind: str) -> DataTable:
    """Nine rows of class Fail; the first input of row 4 is missing."""
    if kind == "nominal":
        specs = [AttributeSpec.nominal(name, GRADE) for name in ("g", "h")]
        rows = [(i % 3, (i * 2) % 3) for i in range(9)]
    else:
        specs = [AttributeSpec.numeric(name) for name in ("x", "y")]
        rows = [(0.5 * i - 1.0, 10.0 - i * i / 4.0) for i in range(9)]
    rows[4] = (None, rows[4][1])
    specs.append(AttributeSpec.nominal("Status", STATUS, role="class"))
    return DataTable(specs, [row + (1,) for row in rows])


TABLES = ("nominal", "numeric")

# (algorithm, table) -> sha256 of the model's JSON text
DIGESTS = {
    ('c45', 'nominal'): '792eb09012243abcff1549b7636283c09d027b03691e3d2b459b243b1c689590',
    ('c45', 'numeric'): 'badf2132b61640f21a2666f4013ba18d0f518d1eaeb430ef5fd252212370d11b',
    ('reptree', 'nominal'): 'edc747e2ab66c68b053c395701acafd3fac37230145ff73d2c4f46781cb2d3e3',
    ('reptree', 'numeric'): '0470d25d784b7267ca0704c4bdaf603532800d5e46c50686de822da130384e02',
    ('randomtree', 'nominal'): '7eec3c3e0c9d400c307c752033bd724c9f4da093136f131d040ce273c3612238',
    ('randomtree', 'numeric'): 'e9815a0376e99f9e0c5901a95dac7278d9173017216b6ceec11c24f1c8959f04',
    ('ripper', 'nominal'): '1d7c1740bdd218dae806a0d2b4b0096c3a3a7a14972b9481262dff61b7616443',
    ('ripper', 'numeric'): '118a7bfe7078bb48d2d3e262a34529b96ae471b5472a1a18a57ac5f458059b49',
    ('part', 'nominal'): 'c205ed1e5d95c16d9b8f3494a35ec57b9e78a4e0e256370c5b77a693030e2d9d',
    ('part', 'numeric'): '85cf4a3369c2cbe8311897d8f5be87b37cacc1526be379ed09010c0988432b18',
    ('nnge', 'nominal'): '76cb6bd7e39a406ebbb290fa702ed8183a23c2cd23a7c6ce5f35b55e04c9373e',
    ('nnge', 'numeric'): 'e4eb23a4f3981b883700fa4ed485f6414f6295c169c1eb399d253e6887cf50a4',
}


def model_digests() -> dict:
    out = {}
    for algorithm in ALGORITHMS:
        for kind in TABLES:
            text = model_to_json(train(algorithm, _table(kind), seed=TRAIN_SEED))
            out[(algorithm, kind)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


@pytest.fixture(scope="module")
def digests():
    return model_digests()


def test_table_covers_every_learner():
    assert set(DIGESTS) == {(a, kind) for a in ALGORITHMS for kind in TABLES}


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="/".join)
def test_single_class_digest_unchanged(digests, key):
    assert digests[key] == DIGESTS[key]


if __name__ == "__main__":
    print("DIGESTS = {")
    for key, sha in model_digests().items():
        print(f"    {key!r}: {sha!r},")
    print("}")
