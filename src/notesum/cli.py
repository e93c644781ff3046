"""Single command-line entrypoint.

Subcommands: build-pretrain, augment, filter, assemble, evaluate, stats.
A JSON config file supplies defaults, flags override the file, and all
validation problems are reported at once with their field names. Exit
codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
Logs go to stderr; data goes to stdout or the --out/--stats files.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, get_args, get_type_hints

from . import augment as aug
from . import corpus as corpus_mod
from . import dataset as dataset_mod
from . import filtering
from . import rouge
from .annotation import I2B2_CHANNEL, UMLS_CHANNEL, StandoffIndex, load_dictionary
from .errors import ConfigurationError, DataError, NotesumError
from .jsonl import is_number, open_text, read_jsonl
from .masking import MaskPolicyConfig

log = logging.getLogger("notesum")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


@dataclass
class PipelineConfig:
    """The CLI's own settings and one built config per stage. The config
    keys are the CLI's fields and each stage config's fields; ``seed``
    reaches every stage config that has one."""

    workers: int = 1
    embedder: str = "onehot"
    mode: str = dataset_mod.CompositionMode.ASO.value
    target_size: int = dataset_mod.DEFAULT_TARGET_SIZE
    umls_dict: Optional[str] = None
    i2b2_source: Optional[str] = None
    mask: MaskPolicyConfig = field(default_factory=MaskPolicyConfig)
    annotation: corpus_mod.AnnotationConfig = field(default_factory=corpus_mod.AnnotationConfig)
    generation: aug.GenerationConfig = field(default_factory=aug.GenerationConfig)
    filter: filtering.FilterConfig = field(default_factory=filtering.FilterConfig)

    def __post_init__(self):
        problems = []
        for name in ("workers", "target_size"):
            if getattr(self, name) < 1:
                problems.append(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.mode not in {m.value for m in dataset_mod.CompositionMode}:
            problems.append(f"mode: must be 'a' or 'aso', got {self.mode!r}")
        try:
            filtering.embedder_file(self.embedder)
        except ConfigurationError as exc:
            problems.extend(exc.problems)
        if problems:
            raise ConfigurationError(*problems)


# The stage configs are the fields built by a factory; problems are
# reported in their order.
_STAGES = {
    f.name: f.default_factory for f in fields(PipelineConfig) if f.default_factory is not MISSING
}
# Every config key and the type annotated on its field.
KEY_TYPES = {
    key: hint
    for config in (PipelineConfig, *_STAGES.values())
    for key, hint in get_type_hints(config).items()
    if key not in _STAGES
}
# What a config value of each annotated type must be, as JSON.
_JSON_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _type_problem(key: str, value) -> Optional[str]:
    """``key: must be ...`` if value lacks the JSON type of the key's field.
    ``Optional`` fields also take null; FilterConfig checks its ``weights``
    map itself."""
    hint = KEY_TYPES[key]
    optional = type(None) in get_args(hint)
    fits, wanted = _JSON_TYPES.get(get_args(hint)[0] if optional else hint, (None, None))
    if fits is None or fits(value) or (optional and value is None):
        return None
    return f"{key}: must be {wanted}{' or null' if optional else ''}, got {value!r}"


def _build(config, values: Mapping, mistyped: Mapping, errors: list):
    """``config`` built from the keys it owns, or None after adding its
    problems to ``errors``. A config that owns a mistyped key is not
    built: its checks need the types."""
    owned = {f.name: values[f.name] for f in fields(config) if f.name in values}
    if owned.keys() & mistyped.keys():
        return None
    try:
        return config(**owned)
    except ConfigurationError as exc:
        errors.extend(exc.problems)
        return None


def parse_config(
    flags: Optional[Mapping] = None,
    config_path: Optional[str] = None,
    required_paths: Sequence[str] = (),
) -> PipelineConfig:
    """Merge defaults, an optional JSON config file, and flag overrides.

    Each stage config and the CLI's own settings are built once; every
    problem is collected and reported in one ConfigurationError, one line
    per offending field.
    """
    values: dict = {}
    errors: list[str] = []
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8-sig") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from None
        except ValueError as exc:  # JSON or UTF-8
            raise ConfigurationError(f"config file {config_path} is not UTF-8 JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in KEY_TYPES:
                errors.append(f"{key}: unknown config key")
            else:
                values[key] = value
    if flags:
        for key, value in flags.items():
            if key in KEY_TYPES and value is not None:
                values[key] = value
    mistyped = {k: p for k, v in values.items() if (p := _type_problem(k, v))}
    errors.extend(mistyped.values())
    stages = {name: _build(config, values, mistyped, errors) for name, config in _STAGES.items()}
    cfg = _build(PipelineConfig, values, mistyped, errors)
    for name in required_paths:
        value = values.get(name)
        if value is None:
            errors.append(f"{name}: required path is missing")
        elif name not in mistyped and not Path(value).exists():
            errors.append(f"{name}: path does not exist: {value}")
    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))
    return replace(cfg, **stages)


def _parse_weights(text: str) -> dict:
    weights = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not name or not value:
            raise ConfigurationError(
                f"weights: expected name=value[,name=value...], got {text!r}"
            )
        try:
            weights[name.strip()] = float(value)
        except ValueError:
            raise ConfigurationError(f"weights: bad weight {value!r}") from None
    return weights


def _load_i2b2_source(path: str):
    """A standoff index if the first non-blank line holds a tab, otherwise
    a term dictionary."""
    with open_text(path) as fh:
        for line in fh:
            if line.strip():
                return (
                    StandoffIndex.load(path)
                    if "\t" in line
                    else load_dictionary(path, I2B2_CHANNEL)
                )
    raise ConfigurationError(f"i2b2_source: file {path} is empty")


def _read_all_notes(input_path: str, stats=None):
    path = Path(input_path)
    files = [path]
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise DataError(f"no .jsonl note files under {path}")
    for file in files:
        yield from corpus_mod.read_notes(file, stats=stats)


def cmd_build_pretrain(args: argparse.Namespace) -> int:
    """Mask the notes; ``stats`` is the same run with no corpus written."""
    cfg = parse_config(
        vars(args), args.config, required_paths=("umls_dict", "i2b2_source")
    )
    umls = load_dictionary(cfg.umls_dict, UMLS_CHANNEL)
    i2b2 = _load_i2b2_source(cfg.i2b2_source)
    stats = corpus_mod.CorpusStats()
    notes = _read_all_notes(args.input, stats=stats)
    examples, stats = corpus_mod.build_pretrain_corpus(
        notes, umls, i2b2, cfg.mask, cfg.annotation, stats=stats, workers=cfg.workers
    )
    if args.corpus is None:
        for _ in examples:
            pass
    else:
        count = corpus_mod.write_corpus(examples, args.corpus)
        log.info("wrote %d examples to %s", count, args.corpus)
    stats.check()
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(stats.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if args.corpus is None:
        print(stats.report())
    else:
        log.info("stats:\n%s", stats.report())
    return EXIT_OK


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = parse_config(vars(args), args.config)
    notes = list(dataset_mod.read_section_notes(args.train))
    if not notes:
        raise DataError(f"no notes in {args.train}")
    texts = [n.assessment or "" for n in notes] + [n.summary or "" for n in notes]
    lm = aug.CueBigramLM.from_corpus(t for t in texts if t)
    pairs = aug.augment_notes(notes, lm, aug.TemplateSet.defaults(), cfg.generation)
    count = aug.write_pairs(pairs, args.out)
    log.info("wrote %d candidate pairs to %s", count, args.out)
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = parse_config(vars(args), args.config)
    embedder = filtering.make_embedder(cfg.embedder)
    scorers = {
        "embedding": filtering.EmbeddingScorer(embedder),
        "trigram": filtering.trigram_scorer,
    }
    pairs = list(aug.read_pairs(args.infile))
    scored = []
    for pair in pairs:
        pair.scores = filtering.score_pair(
            pair.generated, pair.source, scorers, cfg.filter.weights
        )
        scored.append((pair, pair.scores["combined"]))
    kept = filtering.filter_top_fraction(scored, cfg.filter.keep_fraction)
    count = aug.write_pairs(kept, args.out)
    log.info("kept %d of %d pairs (%s)", count, len(pairs), cfg.filter.keep_fraction)
    return EXIT_OK


def cmd_assemble(args: argparse.Namespace) -> int:
    cfg = parse_config(vars(args), args.config)
    notes = list(dataset_mod.read_section_notes(args.notes))
    augmented = list(aug.read_pairs(args.augmented)) if args.augmented else []
    instances = dataset_mod.assemble_training_set(
        notes,
        augmented,
        target_size=cfg.target_size,
        mode=dataset_mod.CompositionMode(cfg.mode),
    )
    count = dataset_mod.write_instances(instances, args.out)
    log.info("wrote %d instances to %s", count, args.out)
    return EXIT_OK


def _eval_text(record: dict) -> str:
    for key in ("text", "target", "input"):
        if isinstance(record.get(key), str):
            return record[key]
    raise DataError("record has no text/target/input string")


def _read_eval_file(path: str) -> list[str]:
    """JSON lines, each object's first ``text``/``target``/``input``
    string, if the first non-blank line starts with ``{``; otherwise one
    text per non-blank line. Only the one full read rejects non-UTF-8 bytes."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        first = next((line for line in fh if line.strip()), "")
    if first.lstrip().startswith("{"):
        return list(read_jsonl(path, _eval_text))
    with open_text(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = _read_eval_file(args.pred)
    references = _read_eval_file(args.ref)
    if len(predictions) != len(references):
        raise DataError(
            f"prediction/reference count mismatch: {len(predictions)} vs {len(references)}"
        )
    if not predictions:
        raise DataError("nothing to evaluate: both files are empty")
    score = rouge.evaluate_corpus(predictions, references)
    print(rouge.format_table(score))
    if args.out:
        payload = {
            metric: getattr(score, metric)._asdict() for metric in ("r1", "r2", "rl")
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    _add_verbose(parser)


def _add_verbose(parser: argparse.ArgumentParser):
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _add_pretrain_args(parser: argparse.ArgumentParser):
    parser.add_argument("--input", required=True, help="notes file or directory (JSONL)")
    parser.add_argument("--umls-dict", help="term file, one per line")
    parser.add_argument("--i2b2-source", help="second channel: term file or standoff TSV")
    parser.add_argument("--p-umls", type=float)
    parser.add_argument("--p-sentence", type=float)
    parser.add_argument("--threshold", type=float, help="matcher similarity threshold")
    parser.add_argument("--max-window", type=int)
    parser.add_argument("--workers", type=int, help="worker processes")
    parser.add_argument("--seed", type=int, help="masking seed")
    _add_common(parser)
    parser.set_defaults(func=cmd_build_pretrain)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="notesum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-pretrain", help="mask notes into a pre-training corpus")
    _add_pretrain_args(p)
    p.add_argument("--out", dest="corpus", required=True, help="output corpus (JSONL)")
    p.add_argument("--stats", dest="stats_json", help="write stats JSON here")

    p = sub.add_parser("stats", help="build-pretrain's statistics without writing a corpus")
    _add_pretrain_args(p)
    p.add_argument("--out", dest="stats_json", help="also write stats JSON here")
    p.set_defaults(corpus=None)

    p = sub.add_parser("augment", help="generate paraphrase candidates")
    p.add_argument("--train", required=True, help="section notes (JSONL)")
    p.add_argument("--lambda", dest="lam", type=float, help="self-debias strength")
    p.add_argument("--max-out", dest="max_output_tokens", type=int)
    p.add_argument("--sampling", dest="greedy", action="store_const", const=False,
                   help="sample instead of greedy decoding")
    p.add_argument("--top-k", type=int)
    p.add_argument("--seed", type=int, help="decoding seed")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("filter", help="keep the best-scoring generated pairs")
    p.add_argument("--in", dest="infile", required=True, help="candidate pairs (JSONL)")
    p.add_argument("--keep", dest="keep_fraction", type=float)
    p.add_argument("--embedder", help="onehot | file:<path> (word2vec text vectors)")
    p.add_argument("--weights", type=_parse_weights,
                   help="scorer weights, e.g. embedding=0.5,trigram=0.5")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("assemble", help="build the fine-tuning dataset")
    p.add_argument("--notes", required=True, help="section notes (JSONL)")
    p.add_argument("--augmented", help="kept pairs (JSONL)")
    p.add_argument("--mode", choices=[m.value for m in dataset_mod.CompositionMode])
    p.add_argument("--target-size", type=int)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", help="also write scores JSON here")
    _add_verbose(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except ConfigurationError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except SystemExit as exc:
        return int(exc.code or 0)
    except NotesumError as exc:
        log.error("internal error: %s", exc)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        log.exception("unexpected error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
