"""Shared fixtures: tiny planted-rule datasets used as learner oracles."""

import random

from hypothesis import strategies as st

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
