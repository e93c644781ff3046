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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import augment as aug
from . import corpus as corpus_mod
from . import dataset as dataset_mod
from . import filtering
from . import rouge
from .annotation import I2B2_CHANNEL, UMLS_CHANNEL, StandoffIndex, load_dictionary
from .errors import ConfigurationError, DataError, NotesumError, ParseError
from .masking import MaskPolicyConfig

log = logging.getLogger("notesum")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


@dataclass
class PipelineConfig:
    """Merged configuration for every subcommand (defaults < file < flags)."""

    seed: int = 0
    workers: int = 1
    # masking
    p_umls: float = 0.7
    p_i2b2: float = 0.3
    p_sentence: float = 0.15
    sentinel_format: str = "<extra_id_{i}>"
    # annotation
    threshold: float = 0.7
    max_window: int = 6
    # generation
    max_output_tokens: int = 40
    lam: float = 1.0
    greedy: bool = True
    top_k: Optional[int] = None
    # filtering
    keep_fraction: float = 0.15
    weights: dict = field(default_factory=lambda: {"embedding": 0.5, "trigram": 0.5})
    embedder: str = "onehot"
    # assembly
    mode: str = "aso"
    target_size: int = 1000
    separator: Optional[str] = None
    # paths
    umls_dict: Optional[str] = None
    i2b2_source: Optional[str] = None
    i2b2_format: str = "auto"
    templates: Optional[str] = None

    def mask_config(self) -> MaskPolicyConfig:
        return MaskPolicyConfig(
            p_umls=self.p_umls,
            p_i2b2=self.p_i2b2,
            p_sentence=self.p_sentence,
            seed=self.seed,
            sentinel_format=self.sentinel_format,
        )

    def annotation_config(self) -> corpus_mod.AnnotationConfig:
        return corpus_mod.AnnotationConfig(
            threshold=self.threshold, max_window=self.max_window
        )

    def generation_config(self) -> aug.GenerationConfig:
        return aug.GenerationConfig(
            max_output_tokens=self.max_output_tokens,
            lam=self.lam,
            greedy=self.greedy,
            top_k=self.top_k,
            seed=self.seed,
        )

    def filter_config(self) -> filtering.FilterConfig:
        return filtering.FilterConfig(
            keep_fraction=self.keep_fraction, weights=self.weights
        )

    def composition_mode(self) -> dataset_mod.CompositionMode:
        return dataset_mod.CompositionMode(self.mode)


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}
I2B2_FORMATS = ("auto", "dict", "standoff")


def parse_config(
    flags: Optional[Mapping] = None,
    config_path: Optional[str] = None,
    required_paths: Sequence[str] = (),
) -> PipelineConfig:
    """Merge defaults, an optional JSON config file, and flag overrides.

    Every validation problem is collected and reported in one
    ConfigurationError, one line per offending field.
    """
    values = asdict(PipelineConfig())
    errors: list[str] = []
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in _CONFIG_KEYS:
                errors.append(f"{key}: unknown config key")
            else:
                values[key] = value
    if flags:
        for key, value in flags.items():
            if key in _CONFIG_KEYS and value is not None:
                values[key] = value
    cfg = PipelineConfig(**values)
    # Each stage config checks the fields it owns; only the CLI's own
    # settings are checked here.
    for stage_config in (
        cfg.mask_config,
        cfg.annotation_config,
        cfg.generation_config,
        cfg.filter_config,
    ):
        try:
            stage_config()
        except ConfigurationError as exc:
            errors.extend(exc.problems)
    for name in ("workers", "target_size"):
        if getattr(cfg, name) < 1:
            errors.append(f"{name}: must be >= 1, got {getattr(cfg, name)}")
    if cfg.mode not in {m.value for m in dataset_mod.CompositionMode}:
        errors.append(f"mode: must be 'a' or 'aso', got {cfg.mode!r}")
    if cfg.i2b2_format not in I2B2_FORMATS:
        errors.append(
            f"i2b2_format: must be auto, dict or standoff, got {cfg.i2b2_format!r}"
        )
    for name in required_paths:
        value = getattr(cfg, name)
        if value is None:
            errors.append(f"{name}: required path is missing")
        elif not Path(value).exists():
            errors.append(f"{name}: path does not exist: {value}")
    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


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


def _load_i2b2_source(path: str, fmt: str):
    if fmt == "dict":
        return load_dictionary(path, I2B2_CHANNEL)
    if fmt == "standoff":
        return StandoffIndex.load(path)
    with open(path, encoding="utf-8") as fh:
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
        files = sorted(path.glob("*.jsonl")) or sorted(path.glob("*.json"))
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
    i2b2 = _load_i2b2_source(cfg.i2b2_source, cfg.i2b2_format)
    stats = corpus_mod.CorpusStats()
    notes = _read_all_notes(args.input, stats=stats)
    examples, stats = corpus_mod.build_pretrain_corpus(
        notes,
        umls,
        i2b2,
        cfg.mask_config(),
        cfg.annotation_config(),
        stats=stats,
        workers=cfg.workers,
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
    templates = (
        aug.TemplateSet.load(cfg.templates) if cfg.templates else aug.TemplateSet.defaults()
    )
    texts = [n.assessment or "" for n in notes] + [n.summary or "" for n in notes]
    lm = aug.CueBigramLM.from_corpus(t for t in texts if t)
    pairs = aug.augment_notes(notes, lm, templates, cfg.generation_config())
    count = aug.write_pairs(pairs, args.out)
    log.info("wrote %d candidate pairs to %s", count, args.out)
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = parse_config(vars(args), args.config)
    fcfg = cfg.filter_config()
    embedder = filtering.make_embedder(cfg.embedder)
    scorers = {
        "embedding": filtering.EmbeddingScorer(embedder),
        "trigram": filtering.trigram_scorer,
    }
    pairs = list(aug.read_pairs(args.infile))
    scored = []
    for pair in pairs:
        pair.scores = filtering.score_pair(
            pair.generated, pair.source, scorers, fcfg.weights
        )
        scored.append((pair, pair.scores["combined"]))
    kept = filtering.filter_top_fraction(scored, fcfg.keep_fraction)
    count = aug.write_pairs(kept, args.out)
    log.info("kept %d of %d pairs (%s)", count, len(pairs), fcfg.keep_fraction)
    return EXIT_OK


def cmd_assemble(args: argparse.Namespace) -> int:
    cfg = parse_config(vars(args), args.config)
    notes = list(dataset_mod.read_section_notes(args.notes))
    augmented = list(aug.read_pairs(args.augmented)) if args.augmented else []
    instances = dataset_mod.assemble_training_set(
        notes,
        augmented,
        target_size=cfg.target_size,
        mode=cfg.composition_mode(),
        separator=cfg.separator,
    )
    count = dataset_mod.write_instances(instances, args.out)
    log.info("wrote %d instances to %s", count, args.out)
    return EXIT_OK


def _read_eval_file(path: str) -> list[str]:
    """One text per non-blank line: the line itself, or for a JSON object
    line its first ``text``/``target``/``input`` value, which must be text."""
    texts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if not line.lstrip().startswith("{"):
                texts.append(line)
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON record: {exc}", path=path, line=lineno) from None
            key = next((k for k in ("text", "target", "input") if k in record), None)
            if key is None:
                raise ParseError(
                    "record has none of the keys text/target/input", path=path, line=lineno
                )
            if not isinstance(record[key], str):
                raise ParseError(f"record's {key} value is not text", path=path, line=lineno)
            texts.append(record[key])
    return texts


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = _read_eval_file(args.pred)
    references = _read_eval_file(args.ref)
    if len(predictions) != len(references):
        raise DataError(
            f"prediction/reference count mismatch: {len(predictions)} vs {len(references)}"
        )
    if not predictions:
        raise DataError("nothing to evaluate: both files are empty")
    stemmer = rouge.simple_stem if args.stem else None
    score = rouge.evaluate_corpus(predictions, references, stemmer=stemmer)
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
    parser.add_argument("--seed", type=int, default=None, help="global seed")
    parser.add_argument("--workers", type=int, default=None, help="worker processes")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _add_pretrain_args(parser: argparse.ArgumentParser):
    parser.add_argument("--input", required=True, help="notes file or directory (JSONL)")
    parser.add_argument("--umls-dict", dest="umls_dict", default=None,
                        help="term file, one per line")
    parser.add_argument("--i2b2-source", dest="i2b2_source", default=None,
                        help="second channel: term file or standoff TSV")
    parser.add_argument("--i2b2-format", dest="i2b2_format", choices=I2B2_FORMATS,
                        default=None)
    parser.add_argument("--p-umls", dest="p_umls", type=float, default=None)
    parser.add_argument("--p-i2b2", dest="p_i2b2", type=float, default=None)
    parser.add_argument("--p-sentence", dest="p_sentence", type=float, default=None)
    parser.add_argument("--sentinel-format", dest="sentinel_format", default=None)
    parser.add_argument("--threshold", type=float, default=None,
                        help="matcher similarity threshold")
    parser.add_argument("--max-window", dest="max_window", type=int, default=None)
    _add_common(parser)
    parser.set_defaults(func=cmd_build_pretrain)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="notesum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-pretrain", help="mask notes into a pre-training corpus")
    _add_pretrain_args(p)
    p.add_argument("--out", dest="corpus", required=True, help="output corpus (JSONL)")
    p.add_argument("--stats", dest="stats_json", default=None, help="write stats JSON here")

    p = sub.add_parser("stats", help="build-pretrain's statistics without writing a corpus")
    _add_pretrain_args(p)
    p.add_argument("--out", dest="stats_json", default=None, help="also write stats JSON here")
    p.set_defaults(corpus=None)

    p = sub.add_parser("augment", help="generate paraphrase candidates")
    p.add_argument("--train", required=True, help="section notes (JSONL)")
    p.add_argument("--templates", default=None, help="template directory overriding defaults")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="self-debias strength")
    p.add_argument("--max-out", dest="max_output_tokens", type=int, default=None)
    p.add_argument("--sampling", dest="greedy", action="store_const", const=False, default=None,
                   help="sample instead of greedy decoding")
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("filter", help="keep the best-scoring generated pairs")
    p.add_argument("--in", dest="infile", required=True, help="candidate pairs (JSONL)")
    p.add_argument("--keep", dest="keep_fraction", type=float, default=None)
    p.add_argument("--embedder", default=None,
                   help="onehot | hashed-random[:seed] | file:<path>")
    p.add_argument("--weights", type=_parse_weights, default=None,
                   help="scorer weights, e.g. embedding=0.5,trigram=0.5")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("assemble", help="build the fine-tuning dataset")
    p.add_argument("--notes", required=True, help="section notes (JSONL)")
    p.add_argument("--augmented", default=None, help="kept pairs (JSONL)")
    p.add_argument("--mode", choices=("a", "aso"), default=None)
    p.add_argument("--target-size", dest="target_size", type=int, default=None)
    p.add_argument("--separator", default=None, help="plain section separator")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--stem", action="store_true", help="apply light stemming")
    p.add_argument("--out", default=None, help="also write scores JSON here")
    _add_common(p)
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
