"""Shared fixtures: tiny planted-rule datasets used as learner oracles."""

import random

from hypothesis import strategies as st

from fusemine.errors import SchemaMismatchError
from fusemine.learners.model import _distance_plan, _distance_terms, _planned_sum, slot_name
from fusemine.tabular import AttributeSpec, DataTable

GRADE = ("Low", "Medium", "High")
STATUS = ("Pass", "Fail", "Dropout")

PLANTED_ATTRS = ("Quiz", "Attention", "Forum", "NoiseA", "NoiseB")


def planted_label(quiz, attention, forum):
    """First-match semantics of the five planted rules."""
    if quiz == 2:
        return 0  # Pass
    if quiz == 1 and attention == 1:
        return 0
    if quiz == 0:
        return 1  # Fail
    if attention == 0 and forum == 0:
        return 2  # Dropout
    return 0


def planted_dataset(n=240, seed=0, noise=0.0, numeric=False):
    """Noise-free (by default) cohort drawn from the planted rule list.

    ``numeric=True`` maps each grade onto a real value inside its
    third of [0, 1] so threshold learners see the same concept.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        quiz, attention, forum = (rng.randrange(3) for _ in range(3))
        label = planted_label(quiz, attention, forum)
        if noise and rng.random() < noise:
            label = rng.choice([c for c in range(3) if c != label])
        noise_a, noise_b = rng.randrange(3), rng.randrange(3)
        if numeric:
            values = tuple(
                (v + rng.uniform(0.1, 0.9)) / 3.0
                for v in (quiz, attention, forum, noise_a, noise_b)
            )
        else:
            values = (quiz, attention, forum, noise_a, noise_b)
        rows.append(values + (label,))
    specs = [
        AttributeSpec.numeric(name) if numeric else AttributeSpec.nominal(name, GRADE)
        for name in PLANTED_ATTRS
    ]
    specs.append(AttributeSpec.nominal("Status", STATUS, role="class"))
    return DataTable(specs, rows)


def missing_slot_table():
    """Grade ``a`` decides the class, a missing ``a`` included; under
    ``a = High`` the numeric ``b`` decides it."""
    specs = [
        AttributeSpec.nominal("a", GRADE),
        AttributeSpec.numeric("b"),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    ]
    rows = [(2, 0.1 * i, 0 if i < 4 else 1) for i in range(8)]
    rows += [(0, 0.5, 1)] * 6 + [(None, 0.5, 2)] * 6 + [(1, 0.3, 0)] * 6
    return DataTable(specs, rows)


def json_values(keys=st.text(max_size=6)):
    """Any JSON value; objects draw their keys from ``keys``."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=12,
    )


# --- by-name oracles of a model's prepared prediction state --------------


def encode_row(specs, input_idx, numeric_fill, row):
    """Encode one instance row, reading each input's kind and substitute
    from the schema and the stored fills on every call."""
    out = {}
    for i in input_idx:
        spec = specs[i]
        v = row[i]
        if spec.is_numeric:
            out[i] = numeric_fill.get(spec.name, 0.0) if v is None else float(v)
        else:
            out[i] = len(spec.labels) if v is None else v
    return out


def condition_matches(model, cond, enc_values) -> bool:
    """Whether a named condition holds for an encoded row, resolving the
    attribute by name and the label by its text."""
    idx = model.attr_index(cond.attr)
    spec = model.specs[idx]
    v = enc_values[idx]
    if cond.op == "=":
        if not spec.is_nominal:
            raise SchemaMismatchError(f"equality test on numeric attribute {cond.attr!r}")
        return slot_name(spec, v) == cond.value
    if cond.op == "<=":
        return v <= float(cond.value)
    return v > float(cond.value)


# --- brute-force oracles of the nearest-exemplar vote ---------------------


def planned_distance(ex, plan) -> float:
    """An exemplar's distance to a row: the root of its unbounded
    ``_planned_sum``."""
    return _planned_sum(ex, plan) ** 0.5


def full_scan_distribution(model, row) -> tuple[float, ...]:
    """An exemplar model's distribution from every exemplar's full
    distance: each class weighs ``1 / (d + 1e-9)`` for its least ``d``."""
    k = len(model.class_labels)
    enc = encode_row(model.specs, model.input_indices, model.metadata.get("numeric_fill", {}), row)
    terms = _distance_terms(model.specs, model.input_indices, model.structure.ranges)
    plan = _distance_plan(terms, enc)
    best = [None] * k
    for ex in model.structure.exemplars:
        d = planned_distance(ex, plan)
        if best[ex.cls] is None or d < best[ex.cls]:
            best[ex.cls] = d
    weights = [0.0 if d is None else 1.0 / (d + 1e-9) for d in best]
    total = sum(weights)
    if total == 0.0:
        return tuple(1.0 / k for _ in range(k))
    return tuple(w / total for w in weights)
