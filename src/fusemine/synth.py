"""Seeded synthetic cohort generator with a planted rule list.

The generator draws each student's class by the requested proportions,
samples the ten fused attribute values so that the planted rules fire
exactly that class after the real fuse-and-discretize pipeline, then
expands theory and practice attributes into per-session columns whose
mean recovers the fused value.  Optional knobs skew which rule (and
which attribute values) each class uses, so tests can shape cohorts
whose canonical model is the planted list itself; both default to
uniform.  Attributes the rules never mention are uniform noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from .errors import FusemineError, InfeasibleRulesetError, SchemaMismatchError
from .learners import Condition, Model, Rule, RuleList, fired_rule_index
from .learners.model import check_model
from .preprocess import (
    DEFAULT_BIN_LABELS,
    DEFAULT_CLASS_LABELS,
    BinningParams,
    fuse_sessions,
)
from .tabular import AttributeSpec, DataTable, SourceBundle, left_sum

GRADE = DEFAULT_BIN_LABELS
STATUS = DEFAULT_CLASS_LABELS

#: The fused input attributes, their source, and their natural scales.
ATTRIBUTES = (
    ("Theory.Attendance", "theory", 0.0, 1.0),
    ("Theory.Location", "theory", 0.0, 12.0),
    ("Theory.Attention", "theory", 0.0, 110.0),
    ("Theory.TakeNotes", "theory", 0.0, 110.0),
    ("Practice.Attendance", "practice", 0.0, 1.0),
    ("Practice.Score", "practice", 1.0, 10.0),
    ("Moodle.Quiz", "online", 0.0, 10.0),
    ("Moodle.Forum", "online", 0.0, 30.0),
    ("Moodle.Task", "online", 0.0, 8.0),
    ("Moodle.Time", "online", 0.0, 6000.0),
)

#: Raw per-session columns: each theory attribute has one per theory
#: session, practice attendance one per practice session and the practice
#: score one per practical subject.
THEORY_SESSIONS = 15
PRACTICE_SESSIONS = 10
PRACTICAL_SUBJECTS = 5

ATTR_NAMES = tuple(entry[0] for entry in ATTRIBUTES)
ATTR_RANGE = {entry[0]: (entry[2], entry[3]) for entry in ATTRIBUTES}
ATTR_SOURCE = {entry[0]: entry[1] for entry in ATTRIBUTES}


def default_ruleset() -> RuleList:
    """The planted five-rule ground truth over the discretized schema."""

    def eq(attr, label):
        return Condition(attr, "=", label)

    return RuleList(
        (
            Rule((eq("Moodle.Quiz", "High"),), "Pass"),
            Rule((eq("Moodle.Quiz", "Medium"), eq("Theory.Attention", "Medium")), "Pass"),
            Rule((eq("Moodle.Quiz", "Low"),), "Fail"),
            Rule((eq("Theory.Attention", "Low"), eq("Moodle.Forum", "Low")), "Dropout"),
            Rule((), "Pass"),
        )
    )


def fused_input_specs() -> tuple[AttributeSpec, ...]:
    """Schema of the ten fused inputs in their discretized form."""
    return tuple(AttributeSpec.nominal(name, GRADE) for name in ATTR_NAMES)


@dataclass(frozen=True)
class CohortSpec:
    n_students: int = 57
    class_counts: tuple[int, int, int] = (19, 17, 21)  # Pass, Fail, Dropout
    noise_rate: float = 0.0
    ruleset: RuleList = field(default_factory=default_ruleset)
    seed: int = 0
    #: Optional per-class weighting over which planted rule generates a
    #: student (rule index -> weight); default is uniform over all value
    #: combinations that fire the class.
    rule_mix: Mapping[str, Mapping[int, float]] | None = None
    #: Optional multiplicative weight on a rule-constrained attribute's
    #: free values, e.g. {"Theory.Attention": {"High": 3.0}}.
    value_bias: Mapping[str, Mapping[str, float]] | None = None

    def __post_init__(self):
        if any(count < 0 for count in self.class_counts):
            raise SchemaMismatchError("class counts must not be negative")
        if sum(self.class_counts) != self.n_students:
            raise SchemaMismatchError("class counts must sum to the cohort size")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise SchemaMismatchError("noise rate must lie in [0, 1]")


def _fired_rules(ruleset: RuleList, constrained: list[str]) -> dict[tuple[int, ...], int]:
    """The rule the planted list fires on each combination of grades of the
    constrained attributes, the only ones it tests.  The list is checked
    as a stored model is, so one that does not fit the discretized schema
    is a schema mismatch."""
    specs = fused_input_specs() + (AttributeSpec.nominal("Status", STATUS, role="class"),)
    model = Model("planted", specs, STATUS, ruleset)
    check_model(model)
    at = [model.attr_index(attr) for attr in constrained]
    values = [0] * len(specs)
    fired = {}
    for combo in product(range(len(GRADE)), repeat=len(constrained)):
        for i, v in zip(at, combo):
            values[i] = v
        fired[combo] = fired_rule_index(model, values)
    return fired


def _cells_by_class(ruleset: RuleList, fired):
    cells: dict[str, list[tuple[int, tuple[int, ...]]]] = {label: [] for label in STATUS}
    for combo, rule_idx in fired.items():
        cells[ruleset.rules[rule_idx].cls].append((rule_idx, combo))
    return cells


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    weight_sum = left_sum(weights)
    quotas = [w / weight_sum * total for w in weights]
    counts = [math.floor(q) for q in quotas]
    shortfall = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def _allocate_cells(spec: CohortSpec, cells, constrained):
    """Exact per-cell student counts for every class."""
    bias = {
        attr: {label: 1.0 for label in GRADE} for attr in constrained
    }
    for attr, by_label in (spec.value_bias or {}).items():
        if attr not in bias:
            raise SchemaMismatchError(f"value bias on unconstrained attribute {attr!r}")
        for label, weight in by_label.items():
            if label not in GRADE or weight <= 0:
                raise SchemaMismatchError(f"bad value bias {attr!r}: {label!r}")
            bias[attr][label] = float(weight)

    allocation: dict[str, list[tuple[tuple[int, ...], int]]] = {}
    for label, count in zip(STATUS, spec.class_counts):
        if count == 0:
            allocation[label] = []
            continue
        class_cells = cells[label]
        if not class_cells:
            raise InfeasibleRulesetError(f"no value combination yields class {label!r}")
        mix = (spec.rule_mix or {}).get(label)
        rule_cell_counts: dict[int, int] = {}
        rule_bias_sums: dict[int, float] = {}
        scales = []
        for rule_idx, combo in class_cells:
            scale = 1.0
            for attr, v in zip(constrained, combo):
                scale *= bias[attr][GRADE[v]]
            scales.append(scale)
            rule_cell_counts[rule_idx] = rule_cell_counts.get(rule_idx, 0) + 1
            rule_bias_sums[rule_idx] = rule_bias_sums.get(rule_idx, 0.0) + scale
        weights = []
        for (rule_idx, _combo), scale in zip(class_cells, scales):
            # The bias reweights cells within a rule; the share of each
            # rule stays what the mix (or its cell count) says.
            share = (
                float(rule_cell_counts[rule_idx])
                if mix is None
                else float(mix.get(rule_idx, 0.0))
            )
            weights.append(share * scale / rule_bias_sums[rule_idx])
        if left_sum(weights) <= 0:
            raise InfeasibleRulesetError(f"rule mix gives class {label!r} zero weight")
        counts = _largest_remainder(weights, count)
        allocation[label] = [
            (combo, c) for (_rule, combo), c in zip(class_cells, counts)
        ]
    return allocation


def _repair_occupancy(allocation, constrained):
    """Equal-width binning pins the column minimum to Low and the maximum
    to High, so every constrained attribute needs at least one student in
    each extreme bin; move one student onto a compatible cell if not.

    A move never empties an extreme bin that is already filled: the
    donor cell must share each of its extreme bins with another student
    or with the receiving cell.
    """

    def occupancy(pos, b):
        return sum(
            count
            for by_class in allocation.values()
            for combo, count in by_class
            if combo[pos] == b
        )

    def keeps_filled(donor, receiver):
        return all(
            b not in (0, 2) or b == receiver[at] or occupancy(at, b) > 1
            for at, b in enumerate(donor)
        )

    def move_into(pos, target_bin) -> bool:
        for label in STATUS:
            by_class = allocation[label]
            for receiver, (combo_r, count_r) in enumerate(by_class):
                if combo_r[pos] != target_bin:
                    continue
                for donor, (combo_d, count_d) in enumerate(by_class):
                    if count_d > 0 and keeps_filled(combo_d, combo_r):
                        by_class[donor] = (combo_d, count_d - 1)
                        by_class[receiver] = (combo_r, count_r + 1)
                        return True
        return False

    for pos, attr in enumerate(constrained):
        for target_bin in (0, 2):
            if not occupancy(pos, target_bin) and not move_into(pos, target_bin):
                raise InfeasibleRulesetError(
                    f"attribute {attr!r} can never reach bin {GRADE[target_bin]!r}"
                )


def _session_columns(attr: str) -> int:
    if ATTR_SOURCE[attr] != "theory" and ATTR_SOURCE[attr] != "practice":
        return 1
    if ATTR_SOURCE[attr] == "theory":
        return THEORY_SESSIONS
    return PRACTICE_SESSIONS if attr == "Practice.Attendance" else PRACTICAL_SUBJECTS


def _expand_sessions(rng: random.Random, value: float, lo: float, hi: float, s: int):
    """``s`` session values, ``s`` above one, whose mean recovers ``value``."""
    delta = min(value - lo, hi - value, (hi - lo) / 20.0)
    step = delta / (s - 1)
    head = [value + rng.uniform(-step, step) for _ in range(s - 1)]
    last = value * s - left_sum(head)
    return head + [last]


def generate(spec: CohortSpec) -> tuple[SourceBundle, DataTable]:
    """Draw a raw bundle plus the planted (pre-noise) labels per student."""
    rng = random.Random(spec.seed)
    named = {c.attr for rule in spec.ruleset.rules for c in rule.conditions}
    constrained = [attr for attr in ATTR_NAMES if attr in named]
    fired = _fired_rules(spec.ruleset, constrained)
    cells = _cells_by_class(spec.ruleset, fired)
    allocation = _allocate_cells(spec, cells, constrained)
    _repair_occupancy(allocation, constrained)

    classes: list[int] = []
    for cls, count in enumerate(spec.class_counts):
        classes.extend([cls] * count)
    rng.shuffle(classes)

    cell_pool: dict[int, list[tuple[int, ...]]] = {c: [] for c in range(len(STATUS))}
    for cls, label in enumerate(STATUS):
        for combo, count in allocation[label]:
            cell_pool[cls].extend([combo] * count)
        rng.shuffle(cell_pool[cls])
    cursor = {c: 0 for c in cell_pool}
    chosen_cells: list[tuple[int, ...]] = []
    for cls in classes:
        chosen_cells.append(cell_pool[cls][cursor[cls]])
        cursor[cls] += 1

    n = spec.n_students
    pos_of = {attr: i for i, attr in enumerate(constrained)}
    fused: dict[str, list[float]] = {}
    target_bins: dict[str, list[int | None]] = {}
    for attr in ATTR_NAMES:
        lo, hi = ATTR_RANGE[attr]
        width = (hi - lo) / 3.0
        values = []
        bins: list[int | None] = []
        for student in range(n):
            if attr in pos_of:
                b = chosen_cells[student][pos_of[attr]]
                values.append(lo + (b + rng.uniform(0.15, 0.85)) * width)
                bins.append(b)
            else:
                values.append(rng.uniform(lo, hi))
                bins.append(None)
        if attr in pos_of:
            lows = [i for i in range(n) if bins[i] == 0]
            highs = [i for i in range(n) if bins[i] == 2]
            if not lows or not highs:
                raise FusemineError(
                    f"internal generation error: attribute {attr!r} lacks an extreme bin occupant"
                )
            values[lows[0]] = lo
            values[highs[0]] = hi
        fused[attr] = values
        target_bins[attr] = bins

    planted = list(classes)
    observed = list(classes)
    flips = round(spec.noise_rate * n)
    if flips:
        for student in sorted(rng.sample(range(n), flips)):
            observed[student] = rng.choice(
                [c for c in range(len(STATUS)) if c != planted[student]]
            )

    scores: list[float | None] = []
    for student in range(n):
        label = STATUS[observed[student]]
        if label == "Pass":
            scores.append(round(rng.uniform(5.0, 10.0), 4))
        elif label == "Fail":
            scores.append(round(rng.uniform(0.0, 4.98), 4))
        else:
            scores.append(None)

    ids = sorted(float(v) for v in rng.sample(range(10_000, 100_000), n))
    id_spec = AttributeSpec.numeric("id", role="id")

    sources: dict[str, DataTable] = {}
    for source in ("theory", "practice", "online"):
        specs = [id_spec]
        columns: list[list[float]] = []
        for attr in ATTR_NAMES:
            if ATTR_SOURCE[attr] != source:
                continue
            lo, hi = ATTR_RANGE[attr]
            s = _session_columns(attr)
            if s == 1:
                specs.append(AttributeSpec.numeric(attr))
                columns.append(fused[attr])
            else:
                expanded = [
                    _expand_sessions(rng, fused[attr][student], lo, hi, s)
                    for student in range(n)
                ]
                for session in range(s):
                    specs.append(AttributeSpec.numeric(f"{attr}.s{session + 1}"))
                    columns.append([expanded[student][session] for student in range(n)])
        rows = [
            tuple([ids[student]] + [col[student] for col in columns])
            for student in range(n)
        ]
        sources[source] = DataTable(specs, rows)
    sources["exam"] = DataTable(
        [id_spec, AttributeSpec.numeric("Exam.Score")],
        [(ids[student], scores[student]) for student in range(n)],
    )
    bundle = SourceBundle(sources)

    truth = DataTable(
        [id_spec, AttributeSpec.nominal("Status", STATUS, role="class")],
        [(ids[student], planted[student]) for student in range(n)],
    )
    _verify_construction(spec, bundle, truth, constrained, target_bins, fired)
    return bundle, truth


def _verify_construction(spec, bundle, truth, constrained, target_bins, fired):
    """Run the real fuse-and-bin pipeline and check the planted contract."""
    recovered: dict[str, list[int]] = {}
    for source in ("theory", "practice", "online"):
        table = fuse_sessions(bundle[source]).sorted_by_id()
        for attr in constrained:
            if ATTR_SOURCE[attr] != source:
                continue
            column = table.column(attr)
            lo, hi = min(column), max(column)
            params = BinningParams(minimum=lo, maximum=hi)
            recovered[attr] = [params.bin_of(v) for v in column]
    labels = [row[1] for row in truth.sorted_by_id().rows]
    for student, cls in enumerate(labels):
        combo = tuple(recovered[attr][student] for attr in constrained)
        if spec.ruleset.rules[fired[combo]].cls != STATUS[cls]:
            raise FusemineError(
                "internal generation error: pipeline bins contradict the planted class"
            )
        for attr in constrained:
            expected = target_bins[attr][student]
            # Students sorted by id here and at draw time share positions.
            if expected is not None and recovered[attr][student] != expected:
                raise FusemineError(
                    "internal generation error: bin drifted through the pipeline"
                )
