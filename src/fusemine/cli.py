"""Command-line driver: ``fusemine <subcommand>``.

Subcommands cover the end-to-end workflow: ``synth`` draws a cohort,
``preprocess`` produces the numeric and discretized bundle variants,
``select``/``train``/``eval`` handle single pipelines, ``experiment``
runs the full approach-by-variant grid, and ``explain`` prints a stored
model as IF-THEN text.

Exit codes: 0 success, 2 input or validation failure, 3 pipeline
failure.  All outputs are deterministic given the flags (each file is
written to a uniquely named temp file and renamed into place).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import secrets
import sys
from pathlib import Path

from .ensemble import (
    APPROACHES,
    INPUT_SOURCES,
    FusionConfig,
    VoteModel,
    _source_with_class,
    check_vote_weights,
    run_approach,
    vote_predict_label,
    weight_search,
)
from .errors import FusemineError
from .evaluation import (
    DEFAULT_ALGORITHM_ORDER,
    VARIANTS,
    cross_validate,
    render_report_text,
    render_summary_text,
    report_csv_rows,
    run_experiment_grid,
    stable_seed,
)
from .learners import (
    ALGORITHMS,
    DecisionTree,
    Model,
    RuleList,
    fired_rule_index,
    model_from_json,
    model_to_json,
    predict_label,
    render_rules,
    tree_paths,
)
from .learners.encode import encode_row
from .learners.model import condition_matches
from .preprocess import PreprocessConfig, anonymize, preprocess_bundle
from .selection import select_best_attributes
from .synth import CohortSpec, generate
from .tabular import (
    SOURCE_DISPLAY,
    SOURCE_ORDER,
    DataTable,
    SourceBundle,
    join_on_id,
    load_csv,
    save_csv,
    schema_from_json,
    schema_to_json,
)

class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line: no usage block.

    ``add_subparsers`` builds subcommand parsers of the parser's own class.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _input(fn, *args, **kwargs):
    """Run an input-construction step; its failures are validation errors."""
    try:
        return fn(*args, **kwargs)
    except FusemineError as err:
        raise CliError(str(err), 2) from err


def _atomic_write(path: Path, content: str | DataTable) -> None:
    """Write text, or a table as CSV, to a temp file and rename it to ``path``.

    The temp name is unique per call, so concurrent writers never share
    one; it is removed if the write fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        if isinstance(content, DataTable):
            save_csv(content, tmp)
        else:
            tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_json(path: Path, what: str, parse=json.loads):
    """Parse a JSON input file; a missing or malformed file exits 2.

    ``ValueError`` covers bad JSON, bytes that are not UTF-8, and an
    integer too long to convert.
    """
    if not path.is_file():
        raise CliError(f"{what} {path} not found", 2)
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:
        raise CliError(f"{what} {path} is not valid JSON: {err}", 2) from None
    except FusemineError as err:
        raise CliError(f"{what} {path}: {err}", 2) from None


def save_bundle(bundle: SourceBundle, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    schemas = {}
    for name in bundle.ordered_names():
        table = bundle[name]
        _atomic_write(directory / f"{name}.csv", table)
        schemas[name] = json.loads(schema_to_json(table.specs))
    _atomic_write(directory / "schema.json", json.dumps(schemas, indent=2, sort_keys=True) + "\n")


def load_bundle(directory: Path) -> SourceBundle:
    schemas = _read_json(directory / "schema.json", "schema file")
    if not isinstance(schemas, dict):
        raise CliError(f"{directory / 'schema.json'} must map source names to schemas", 2)
    sources = {}
    for name in SOURCE_ORDER:
        if name not in schemas:
            continue
        csv_path = directory / f"{name}.csv"
        if not csv_path.is_file():
            raise CliError(f"missing {csv_path}", 2)
        specs = _input(schema_from_json, json.dumps(schemas[name]))
        sources[name] = _input(load_csv, csv_path, specs)
    if not sources:
        raise CliError(f"{directory} holds no sources", 2)
    return _input(SourceBundle, sources)


def check_k(k: int, bundle: SourceBundle) -> None:
    """A fold needs a student, so ``--k`` above the cohort size is a bad flag."""
    if "exam" in bundle and k > bundle["exam"].n_rows:
        raise CliError(f"--k {k} exceeds the {bundle['exam'].n_rows} students in the cohort", 2)


def _parse_weights(text: str) -> dict[str, float]:
    parts = text.split(",")
    if len(parts) != len(INPUT_SOURCES):
        raise CliError(
            f"--weights needs {len(INPUT_SOURCES)} comma-separated values "
            f"(theory,practice,online)", 2,
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise CliError(f"bad --weights value in {text!r}", 2) from None
    weights = dict(zip(INPUT_SOURCES, values))
    _input(check_vote_weights, weights)
    return weights


def _variant_dirs(root: Path, variant: str) -> dict[str, Path]:
    wanted = VARIANTS if variant == "both" else (variant,)
    out = {}
    for name in wanted:
        directory = root / name
        if not directory.is_dir():
            raise CliError(f"preprocessed variant directory {directory} not found", 2)
        out[name] = directory
    return out


def _algorithm_list(text: str) -> list[str]:
    if text == "all":
        return list(DEFAULT_ALGORITHM_ORDER)
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise CliError(f"no algorithm named in {text!r}", 2)
    for name in names:
        if name not in ALGORITHMS:
            raise CliError(f"unknown algorithm {name!r}", 2)
    return names


def save_model(model, path: Path) -> None:
    if isinstance(model, VoteModel):
        payload = {
            "kind": "vote",
            "weights": model.weights,
            "models": {
                name: json.loads(model_to_json(base))
                for name, base in model.models.items()
            },
        }
    else:
        payload = {"kind": "single", "model": json.loads(model_to_json(model))}
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path: Path):
    """Read a ``save_model`` file; anything malformed exits 2.

    Keys it does not read, such as the vote rule that older versions
    stored, are ignored, so older files still load.
    """
    payload = _read_json(path, "model file")
    kind = payload.get("kind") if isinstance(payload, dict) else None
    try:
        if kind == "vote":
            return VoteModel(
                models={
                    name: model_from_json(json.dumps(entry))
                    for name, entry in payload["models"].items()
                },
                weights={name: float(w) for name, w in payload["weights"].items()},
            )
        if kind == "single":
            return model_from_json(json.dumps(payload["model"]))
    except (FusemineError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as err:
        raise CliError(f"malformed model file {path}: {type(err).__name__}: {err}", 2) from None
    raise CliError(f"{path} is not a stored model", 2)


def render_model(model) -> str:
    if isinstance(model, VoteModel):
        sections = []
        for name in SOURCE_ORDER:
            if name not in model.models:
                continue
            base = model.models[name]
            sections.append(f"{base.algorithm} rules ({SOURCE_DISPLAY[name]}):")
            sections.append("=====")
            sections.append(render_rules(base).rstrip("\n"))
            sections.append("")
        return "\n".join(sections).rstrip("\n") + "\n"
    return render_rules(model)


# --- subcommands ------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = _input(
        CohortSpec,
        n_students=args.n,
        class_counts=tuple(args.proportions),
        noise_rate=args.noise,
        seed=args.seed,
    )
    bundle, truth = generate(spec)
    out = Path(args.out)
    save_bundle(bundle, out)
    _atomic_write(out / "truth.csv", truth)
    print(f"wrote cohort of {args.n} students to {out}")
    return 0


def cmd_preprocess(args) -> int:
    bundle = load_bundle(Path(args.data))
    config = _preprocess_config(args)
    out = Path(args.out)
    if args.anonymize:
        bundle, mapping = anonymize(bundle, config.seed)
        lines = ["original,anonymous"] + [
            f"{orig},{new}" for orig, new in sorted(mapping.items(), key=lambda p: str(p[0]))
        ]
        _atomic_write(out / "id_mapping.csv", "\n".join(lines) + "\n")
    result = _input(preprocess_bundle, bundle, config)
    save_bundle(result.numeric, out / "numeric")
    save_bundle(result.discretized, out / "discretized")
    _atomic_write(out / "params.json", result.params_json())
    print(f"wrote numeric and discretized bundles to {out}")
    return 0


def _preprocess_config(args) -> PreprocessConfig:
    config = PreprocessConfig()
    if args.config:
        config = _read_json(Path(args.config), "config file", PreprocessConfig.from_json)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_select(args) -> int:
    directory = _variant_dirs(Path(args.data), args.variant)[args.variant]
    bundle = load_bundle(directory)
    merged = join_on_id(bundle, drop_id=True)
    names = select_best_attributes(merged) if args.select == "cfs" else [
        s.name for s in merged.specs if s.role == "input"
    ]
    payload = json.dumps(names, indent=2) + "\n"
    if args.out:
        _atomic_write(Path(args.out), payload)
    print(payload, end="")
    return 0


def cmd_train(args) -> int:
    directory = _variant_dirs(Path(args.data), args.variant)[args.variant]
    bundle = load_bundle(directory)
    config = _input(
        FusionConfig,
        approach=args.approach,
        weights=_parse_weights(args.weights),
    )
    model, _prepared = run_approach(config, bundle, args.algorithm, seed=args.seed)
    out = Path(args.out)
    save_model(model, out / "model.json")
    _atomic_write(out / "model.txt", render_model(model))
    print(render_model(model), end="")
    return 0


def cmd_eval(args) -> int:
    directory = _variant_dirs(Path(args.data), args.variant)[args.variant]
    bundle = load_bundle(directory)
    check_k(args.k, bundle)
    config = _input(
        FusionConfig,
        approach=args.approach,
        weights=_parse_weights(args.weights),
    )
    result = cross_validate(
        config, args.algorithm, bundle, k=args.k,
        seed=stable_seed(args.seed, config.approach, args.variant, args.algorithm),
        plan_seed=stable_seed(args.seed, "folds", args.variant),
        fold_local_select=args.fold_local_select,
    )
    print(
        f"{config.approach},{args.variant},{args.algorithm},"
        f"{result.accuracy_pct:.4f},{result.auc:.4f}"
    )
    if args.out:
        payload = {
            "approach": config.approach,
            "variant": args.variant,
            "algorithm": args.algorithm,
            "accuracy_pct": result.accuracy_pct,
            "auc": result.auc,
            "per_class_auc": result.per_class_auc,
            "confusion": result.confusion,
            "fold_accuracy": [f.accuracy_pct for f in result.folds],
        }
        _atomic_write(Path(args.out), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_experiment(args) -> int:
    root = Path(args.data)
    variants = {
        name: load_bundle(directory)
        for name, directory in _variant_dirs(root, args.variant).items()
    }
    for bundle in variants.values():
        check_k(args.k, bundle)
    algorithms = _algorithm_list(args.algorithm)
    approaches = list(APPROACHES) if args.approach == "all" else [args.approach]
    weights = _parse_weights(args.weights)
    out = Path(args.out)

    if args.weight_search:
        search_bundle = variants.get("discretized") or next(iter(variants.values()))
        weights = weight_search(
            search_bundle, algorithms[0], k=args.k, seed=stable_seed(args.seed, "weights")
        )
        ordered = ",".join(str(weights[s]) for s in INPUT_SOURCES)
        print(f"weight search chose theory,practice,online = {ordered}")

    grid = run_experiment_grid(
        variants,
        algorithms=algorithms,
        approaches=approaches,
        k=args.k,
        seed=args.seed,
        weights=weights,
    )
    _atomic_write(out / "report.csv", report_csv_rows(grid))
    for (approach, variant), report in sorted(grid.reports.items()):
        _atomic_write(
            out / f"report_{approach}_{variant}.txt", render_report_text(report)
        )
    _atomic_write(out / "summary.txt", render_summary_text(grid))
    summary_lines = ["approach,variant,avg_accuracy_pct,avg_auc"]
    for (approach, variant) in sorted(grid.reports):
        acc, auc = grid.reports[(approach, variant)].averages()
        summary_lines.append(f"{approach},{variant},{acc:.4f},{auc:.4f}")
    _atomic_write(out / "summary.csv", "\n".join(summary_lines) + "\n")
    algorithm, approach, variant, acc, auc = grid.best_cell()
    print(
        f"best cell: {algorithm} / {approach} / {variant} "
        f"= {acc:.4f} %Accuracy, {auc:.4f} AUC"
    )
    return 0


def cmd_explain(args) -> int:
    model = load_model(Path(args.model))
    print(render_model(model), end="")
    if args.student is None:
        return 0
    if not args.data:
        raise CliError("--student needs --data/--variant to locate the row", 2)
    directory = _variant_dirs(Path(args.data), args.variant)[args.variant]
    bundle = load_bundle(directory)
    if isinstance(model, VoteModel):
        return _explain_vote_student(model, bundle, args.student)
    row = _student_row(model, join_on_id(bundle, drop_id=True), args.student)
    label = predict_label(model, row)
    print()
    structure = model.structure
    if isinstance(structure, RuleList):
        fired = fired_rule_index(model, row)
        rule = structure.rules[fired]
        text = (
            "ELSE"
            if rule.is_default
            else "IF " + " AND ".join(c.render() for c in rule.conditions)
        )
        print(f"student {args.student}: rule {fired + 1} fires ({text}) -> {label}")
        return 0
    print(f"student {args.student}: predicted {label}")
    if isinstance(structure, DecisionTree):
        enc = encode_row(
            model.specs, model.input_indices, model.metadata.get("numeric_fill", {}), row
        )
        for conditions, _leaf in tree_paths(model):
            if all(condition_matches(model, c, enc) for c in conditions):
                path = " AND ".join(c.render() for c in conditions) or "(root)"
                print(f"leaf path: {path}")
                break
    return 0


def _student_row(model: Model, table: DataTable, student: int) -> tuple:
    """A student's row of ``table``, taken by the model's attribute names."""
    if not 0 <= student < table.n_rows:
        raise CliError(f"student row {student} out of range", 2)
    table = _input(table.project, [s.name for s in model.specs])
    for spec, wanted in zip(table.specs, model.specs):
        if spec != wanted:
            raise CliError(f"attribute {spec.name!r} differs between the model and the data", 2)
    return table.rows[student]


def _explain_vote_student(model: VoteModel, bundle, student: int) -> int:
    parts = {}
    for name, base in model.models.items():
        if name not in bundle or "exam" not in bundle:
            raise CliError(f"the data lacks the {name!r} or 'exam' source", 2)
        parts[name] = _student_row(base, _source_with_class(bundle, name), student)
    print()
    for name in SOURCE_ORDER:
        if name not in model.models:
            continue
        label = predict_label(model.models[name], parts[name])
        print(f"student {student}: {SOURCE_DISPLAY[name]} model votes {label}")
    print(f"student {student}: combined vote -> {vote_predict_label(model, parts)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fusemine",
        description="Multi-source data fusion pipeline for predicting student performance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic cohort")
    synth.add_argument("--n", type=int, default=57)
    synth.add_argument(
        "--proportions", type=int, nargs=3, default=[19, 17, 21],
        metavar=("PASS", "FAIL", "DROPOUT"),
    )
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--config", help="JSON run config; flags override")
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    pre = sub.add_parser("preprocess", help="fuse, rescale, and discretize a raw bundle")
    pre.add_argument("--data", required=True, help="directory with the four source CSVs")
    pre.add_argument("--out", required=True)
    pre.add_argument("--config", help="JSON file with preprocess settings")
    pre.add_argument("--seed", type=int, default=None)
    pre.add_argument("--anonymize", action="store_true")
    pre.set_defaults(func=cmd_preprocess)

    select = sub.add_parser("select", help="run attribute selection on the merged table")
    select.add_argument("--data", required=True, help="preprocess output directory")
    select.add_argument("--variant", choices=VARIANTS, default="discretized")
    select.add_argument("--select", choices=("cfs", "none"), default="cfs")
    select.add_argument("--out")
    select.set_defaults(func=cmd_select)

    train_p = sub.add_parser("train", help="train one approach on the full dataset")
    train_p.add_argument("--data", required=True)
    train_p.add_argument("--variant", choices=VARIANTS, default="discretized")
    train_p.add_argument("--approach", choices=APPROACHES, default="merge")
    train_p.add_argument("--algorithm", choices=ALGORITHMS, default="part")
    train_p.add_argument("--weights", default="1,1,1")
    train_p.add_argument("--seed", type=int, default=0)
    train_p.add_argument("--config", help="JSON run config; flags override")
    train_p.add_argument("--out", required=True)
    train_p.set_defaults(func=cmd_train)

    eval_p = sub.add_parser("eval", help="cross-validate one cell")
    eval_p.add_argument("--data", required=True)
    eval_p.add_argument("--variant", choices=VARIANTS, default="discretized")
    eval_p.add_argument("--approach", choices=APPROACHES, default="merge")
    eval_p.add_argument("--algorithm", choices=ALGORITHMS, default="part")
    eval_p.add_argument("--weights", default="1,1,1")
    eval_p.add_argument("--k", type=int, default=10)
    eval_p.add_argument("--seed", type=int, default=0)
    eval_p.add_argument("--fold-local-select", action="store_true")
    eval_p.add_argument("--config", help="JSON run config; flags override")
    eval_p.add_argument("--out")
    eval_p.set_defaults(func=cmd_eval)

    exp = sub.add_parser("experiment", help="run the approach-by-variant grid")
    exp.add_argument("--data", required=True)
    exp.add_argument("--variant", choices=(*VARIANTS, "both"), default="both")
    exp.add_argument("--approach", choices=(*APPROACHES, "all"), default="all")
    exp.add_argument("--algorithm", default="all")
    exp.add_argument("--weights", default="1,1,1")
    exp.add_argument("--weight-search", action="store_true")
    exp.add_argument("--k", type=int, default=10)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--config", help="JSON run config; flags override")
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_experiment)

    explain = sub.add_parser("explain", help="print a stored model as IF-THEN text")
    explain.add_argument("--model", required=True)
    explain.add_argument("--student", type=int, default=None)
    explain.add_argument("--data")
    explain.add_argument("--variant", choices=VARIANTS, default="discretized")
    explain.set_defaults(func=cmd_explain)
    return parser


def _config_tokens(key: str, value, parsed) -> list[str]:
    """Command-line tokens that give flag ``key`` a run-config value.

    ``parsed`` is what argparse made of the flag: a bool for a switch, a
    list for a flag that takes several values, anything else for a flag
    that takes one.
    """
    flag = "--" + key.replace("_", "-")
    if isinstance(parsed, bool):
        if not isinstance(value, bool):
            raise CliError(f"config key {key!r} must be true or false", 2)
        return [flag] if value else []
    several = isinstance(parsed, list)
    items = value if several and isinstance(value, list) else [value]
    for item in items:
        if item is None or isinstance(item, (bool, list, dict)):
            raise CliError(f"config key {key!r} has a bad value {value!r}", 2)
    if several:
        return [flag, *map(str, items)]
    return [f"{flag}={value}"]


def _merge_config(parser, args, argv):
    """Fill flags from a JSON run config; flags given on the command line win.

    Each config value becomes the tokens of its flag, placed before the
    flags on the command line, and the whole is parsed again: argparse
    applies each flag's ``type`` and ``choices`` to the config's values,
    and the later, explicit flag wins however it was spelled.  The
    preprocess subcommand keeps its own config semantics (binning and
    labeling parameters), so it is left alone here.
    """
    path = getattr(args, "config", None)
    if not path or args.command == "preprocess":
        return args
    payload = _read_json(Path(path), "config file")
    if not isinstance(payload, dict):
        raise CliError("run config must be a JSON object", 2)
    tokens = []
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("config", "command", "func"):
            raise CliError(f"unknown config key {key!r} for {args.command}", 2)
        tokens += _config_tokens(key, value, getattr(args, attr))
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, args, argv)
        if args.command in ("synth",) and args.n < 3:
            raise CliError("cohort needs at least 3 students", 2)
        if getattr(args, "k", 2) < 2:
            raise CliError("k must be at least 2", 2)
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except FusemineError as err:
        print(f"pipeline error: {err}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
