import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from notesum.augment import GenerationConfig
from notesum.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, KEY_TYPES, main, parse_config
from notesum.corpus import AnnotationConfig
from notesum.dataset import DEFAULT_TARGET_SIZE
from notesum.errors import ConfigurationError
from notesum.filtering import FilterConfig
from notesum.masking import MaskPolicyConfig

from conftest import I2B2_TERMS, UMLS_TERMS, make_note_text, write_lines, write_note_file


# ---------------------------------------------------------------------------
# configuration


def test_defaults_carry_the_published_constants():
    cfg = parse_config()
    assert cfg.mask.p_umls == 0.7
    assert cfg.mask.p_sentence == 0.15
    assert cfg.filter.keep_fraction == 0.15
    assert cfg.generation.max_output_tokens == 40


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 5, "p_sentence": 0.2}), encoding="utf-8")
    cfg = parse_config({"p_sentence": 0.1}, str(config))
    assert cfg.mask.seed == cfg.generation.seed == 5  # from file
    assert cfg.mask.p_sentence == 0.1                 # flag wins


def test_all_validation_errors_reported_at_once(tmp_path):
    with pytest.raises(ConfigurationError) as exc:
        parse_config({"p_umls": 1.1, "p_sentence": -0.1, "keep_fraction": 0.0})
    message = str(exc.value)
    assert "p_umls" in message
    assert "p_sentence" in message
    assert "keep_fraction" in message


def test_weights_that_are_not_a_map_are_reported(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"weights": [["embedding", 1.0]]}), encoding="utf-8")
    with pytest.raises(ConfigurationError) as exc:
        parse_config(None, str(config))
    assert "weights: must be a non-empty scorer->weight map" in str(exc.value)


def test_weights_for_an_unknown_scorer_exit_config_with_every_other_problem(tmp_path, caplog):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("", encoding="utf-8")
    for weights in ("foo=1", "embedding=1,foo=0"):
        caplog.clear()
        argv = ["filter", "--in", str(pairs), "--weights", weights, "--keep", "2",
                "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "\n  keep_fraction: must be in (0, 1], got 2.0" in caplog.text
        assert "\n  weights: unknown scorer 'foo'; the scorers are embedding and trigram" in caplog.text


def test_cli_owned_settings_are_checked_with_the_stage_configs():
    with pytest.raises(ConfigurationError) as exc:
        parse_config({"workers": 0, "mode": "x", "threshold": 0.0, "lam": -1.0})
    message = str(exc.value)
    for name in ("workers", "mode", "threshold", "lam"):
        assert f"{name}:" in message


def test_infinite_lambda_exits_config_naming_lam(tmp_path, caplog):
    # inf * 0 is NaN, so an infinite strength would decode from NaN scores
    train = tmp_path / "train.jsonl"
    train.write_text(json.dumps(SECTION_NOTE) + "\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lam": float("inf")}), encoding="utf-8")
    assert "Infinity" in config.read_text()
    args = ["augment", "--train", str(train), "--out", str(tmp_path / "o")]
    for extra in (["--lambda", "inf"], ["--config", str(config)]):
        caplog.clear()
        assert main(args + extra) == EXIT_CONFIG
        assert "\n  lam: must be a finite number >= 0, got inf" in caplog.text
    assert main(args + ["--lambda", "1e308"]) == EXIT_OK


def test_train_file_without_text_exits_data_naming_train(tmp_path, caplog):
    # notes with no assessment or summary, or only whitespace there, give
    # the bigram model no text to train on
    train = tmp_path / "train.jsonl"
    records = [{"doc_id": "a", "text": "pt on cpap ."}, {**SECTION_NOTE, "assessment": " \n", "summary": ""}]
    train.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["augment", "--train", str(train), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert f"--train {train}: no note has assessment or summary text" in caplog.text


def test_unknown_config_key_is_an_error(tmp_path, caplog):
    config = tmp_path / "cfg.json"
    # p_i2b2 is 1 - p_umls and the i2b2 format is read off the file; the
    # sentinels, the ASO section headers and the templates are fixed
    for key, value in (
        ("probability", 0.7), ("p_i2b2", 0.3), ("i2b2_format", "dict"),
        ("sentinel_format", "[M{i}]"), ("separator", " | "), ("templates", "tpl"),
    ):
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(ConfigurationError) as exc:
            parse_config(None, str(config))
        assert f"{key}: unknown config key" in str(exc.value)
        assert main(["assemble", "--config", str(config), "--notes", "n.jsonl",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_required_path_is_reported():
    with pytest.raises(ConfigurationError) as exc:
        parse_config({}, None, required_paths=("umls_dict",))
    assert "umls_dict" in str(exc.value)


def test_pipeline_config_builds_module_configs():
    cfg = parse_config()
    assert cfg.mask == MaskPolicyConfig()
    assert cfg.annotation == AnnotationConfig()
    assert cfg.generation == GenerationConfig()
    assert cfg.filter == FilterConfig()
    assert cfg.mode == "aso"
    assert cfg.target_size == DEFAULT_TARGET_SIZE


# key: (a value of the wrong JSON type for it, what the key must be)
WRONG_TYPES = {
    "seed": (1.5, "an integer"),
    "workers": ("2", "an integer"),
    "p_umls": ("0.7", "a number"),
    "p_sentence": (None, "a number"),
    "threshold": ("x", "a number"),
    "max_window": ("6", "an integer"),
    "max_output_tokens": (True, "an integer"),
    "lam": ("1", "a number"),
    "greedy": ("no", "true or false"),
    "top_k": (2.5, "an integer or null"),
    "keep_fraction": ([0.15], "a number"),
    "weights": ({"embedding": "a", "trigram": 0.5}, "a non-empty scorer->weight map"),
    "embedder": (1, "a string"),
    "mode": (2, "a string"),
    "target_size": (10.0, "an integer"),
    "umls_dict": (5, "a string or null"),
    "i2b2_source": (["a"], "a string or null"),
}


def test_config_keys_are_the_stage_fields_and_the_cli_settings():
    assert set(KEY_TYPES) == set(WRONG_TYPES)
    assert len(KEY_TYPES) == 17


def test_each_config_key_reaches_its_config(tmp_path):
    # a non-default value for every key, and where it must arrive
    expected = {
        "seed": (9, ["mask", "generation"]),
        "p_umls": (0.6, ["mask"]),
        "p_sentence": (0.25, ["mask"]),
        "threshold": (0.8, ["annotation"]),
        "max_window": (4, ["annotation"]),
        "max_output_tokens": (12, ["generation"]),
        "lam": (0.5, ["generation"]),
        "greedy": (False, ["generation"]),
        "top_k": (3, ["generation"]),
        "keep_fraction": (0.3, ["filter"]),
        "weights": ({"embedding": 0.25, "trigram": 0.75}, ["filter"]),
        "workers": (2, [None]),
        "embedder": ("file:vectors.txt", [None]),
        "mode": ("a", [None]),
        "target_size": (20, [None]),
        "umls_dict": ("u.txt", [None]),
        "i2b2_source": ("i.txt", [None]),
    }
    assert set(expected) == set(KEY_TYPES)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({k: v for k, (v, _) in expected.items()}), encoding="utf-8")
    cfg = parse_config(None, str(config))
    for key, (value, homes) in expected.items():
        for home in homes:
            target = cfg if home is None else getattr(cfg, home)
            assert getattr(target, key) == value, (key, home)


@pytest.mark.parametrize("key", sorted(WRONG_TYPES))
def test_wrong_json_type_exits_config_naming_the_key(tmp_path, caplog, key):
    config = tmp_path / "cfg.json"
    value, wanted = WRONG_TYPES[key]
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"source": "a b", "generated": "a c", "label": 1}) + "\n")
    argv = ["filter", "--config", str(config), "--in", str(pairs), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert f"\n  {key}: must be {wanted}, got {value!r}" in caplog.text


def test_bad_embedder_is_reported_with_every_other_problem(tmp_path, caplog):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"source": "a b", "generated": "a c", "label": 1}) + "\n")
    argv = ["filter", "--in", str(pairs), "--embedder", "bogus", "--keep", "2",
            "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert "\n  keep_fraction: must be in (0, 1], got 2.0" in caplog.text
    assert "\n  embedder: must be onehot or file:<path>, got 'bogus'" in caplog.text
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"embedder": "hashed-random:1"}), encoding="utf-8")
    with pytest.raises(ConfigurationError) as exc:
        parse_config(None, str(config))
    assert "embedder: must be onehot or file:<path>" in str(exc.value)


# ---------------------------------------------------------------------------
# fixture corpus on disk


@pytest.fixture()
def workspace(tmp_path):
    rng = random.Random(404)
    notes = [
        {"doc_id": f"n{i:03d}", "text": make_note_text(rng, n_sentences=4)}
        for i in range(25)
    ]
    section_notes = []
    for i in range(8):
        term = UMLS_TERMS[i % len(UMLS_TERMS)]
        section_notes.append(
            {
                "doc_id": f"s{i:03d}",
                "assessment": f"pt with {term} overnight . plan continue monitoring .",
                "subjective": "feels tired",
                "objective": "vitals stable",
                "summary": term,
            }
        )
    paths = {
        "notes": write_note_file(tmp_path / "notes.jsonl", notes),
        "sections": write_note_file(tmp_path / "sections.jsonl", section_notes),
        "umls": write_lines(tmp_path / "umls.txt", UMLS_TERMS),
        "i2b2": write_lines(tmp_path / "i2b2.txt", I2B2_TERMS),
        "dir": tmp_path,
    }
    return paths


def test_build_pretrain_writes_corpus_and_stats(workspace):
    out = workspace["dir"] / "corpus.jsonl"
    stats = workspace["dir"] / "stats.json"
    code = main(
        [
            "build-pretrain",
            "--input", str(workspace["notes"]),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(workspace["i2b2"]),
            "--seed", "3",
            "--out", str(out),
            "--stats", str(stats),
        ]
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 25
    report = json.loads(stats.read_text())
    assert report["total_rows"] == 25
    assert report["sentences_total"] == 100


def test_stats_subcommand_prints_the_report(workspace, capsys):
    code = main(
        [
            "stats",
            "--input", str(workspace["notes"]),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(workspace["i2b2"]),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "rows" in printed and "no entities" in printed


def test_stats_takes_the_masking_flags_of_build_pretrain(workspace):
    d = workspace["dir"]
    inputs = [
        "--input", str(workspace["notes"]),
        "--umls-dict", str(workspace["umls"]),
        "--i2b2-source", str(workspace["i2b2"]),
        "--seed", "3",
    ]
    built = d / "built-stats.json"
    counted = d / "counted-stats.json"
    default = d / "default-stats.json"
    assert main(["build-pretrain", *inputs, "--p-sentence", "1.0",
                 "--out", str(d / "corpus.jsonl"), "--stats", str(built)]) == EXIT_OK
    assert main(["stats", *inputs, "--p-sentence", "1.0", "--out", str(counted)]) == EXIT_OK
    assert main(["stats", *inputs, "--out", str(default)]) == EXIT_OK
    assert counted.read_bytes() == built.read_bytes()
    # the flag took effect: every entity-free sentence is now masked
    assert (
        json.loads(counted.read_text())["masks_total"]
        > json.loads(default.read_text())["masks_total"]
    )


def test_note_with_sentinel_text_is_skipped_not_fatal(workspace):
    d = workspace["dir"]
    notes = write_note_file(
        d / "poisoned.jsonl",
        [
            {"doc_id": "a", "text": "pt on cpap overnight ."},
            {"doc_id": "b", "text": "copied <extra_id_0> from a corpus ."},
            {"doc_id": "c", "text": "sat drifts noted ."},
        ],
    )
    outs = []
    for workers in ("1", "2"):
        out = d / f"poisoned-{workers}.jsonl"
        stats = d / f"poisoned-{workers}.json"
        code = main(
            [
                "build-pretrain",
                "--input", str(notes),
                "--umls-dict", str(workspace["umls"]),
                "--i2b2-source", str(workspace["i2b2"]),
                "--workers", workers,
                "--out", str(out),
                "--stats", str(stats),
            ]
        )
        assert code == EXIT_OK
        assert [json.loads(line)["doc_id"] for line in out.read_text().splitlines()] == ["a", "c"]
        assert json.loads(stats.read_text())["skipped"] == 1
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_note_with_a_lone_surrogate_is_skipped_and_a_surrogate_pair_kept(workspace):
    d = workspace["dir"]
    notes = write_note_file(
        d / "surrogates.jsonl",
        [
            {"doc_id": "a", "text": "pt on cpap \U0001f600 overnight ."},
            {"doc_id": "b", "text": "sat drifts \ud800 noted ."},
        ],
    )
    assert "\\ud83d\\ude00" in notes.read_text(encoding="utf-8")
    out, stats = d / "surrogates-out.jsonl", d / "surrogates-stats.json"
    code = main(
        [
            "build-pretrain",
            "--input", str(notes),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(workspace["i2b2"]),
            "--out", str(out),
            "--stats", str(stats),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["doc_id"] for line in lines] == ["a"]
    assert "\U0001f600" in lines[0]
    assert json.loads(stats.read_text())["skipped"] == 1


def test_note_that_is_not_utf8_is_skipped_and_the_good_note_kept(workspace):
    d = workspace["dir"]
    notes = d / "not-utf8.jsonl"
    notes.write_bytes(
        json.dumps({"doc_id": "a", "text": "pt on cpap overnight ."}).encode() + b"\n"
        + b'{"doc_id": "b", "text": "sat drifts \xff noted ."}\n'
    )
    out, stats = d / "not-utf8-out.jsonl", d / "not-utf8-stats.json"
    code = main(
        [
            "build-pretrain",
            "--input", str(notes),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(workspace["i2b2"]),
            "--out", str(out),
            "--stats", str(stats),
        ]
    )
    assert code == EXIT_OK
    assert [json.loads(line)["doc_id"] for line in out.read_text().splitlines()] == ["a"]
    assert json.loads(stats.read_text())["skipped"] == 1


def test_directory_input_reads_its_jsonl_files_in_name_order(workspace):
    d = workspace["dir"]
    folder = d / "note-dir"
    folder.mkdir()
    write_note_file(folder / "b.jsonl", [{"doc_id": "b1", "text": "sat drifts noted ."}])
    write_note_file(folder / "a.jsonl", [{"doc_id": "a1", "text": "pt on cpap ."},
                                         {"doc_id": "a2", "text": "on lasix ."}])
    write_note_file(folder / "c.json", [{"doc_id": "c1", "text": "not a .jsonl file ."}])
    out = d / "dir-out.jsonl"
    code = main(
        [
            "build-pretrain",
            "--input", str(folder),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(workspace["i2b2"]),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert [json.loads(line)["doc_id"] for line in out.read_text().splitlines()] == ["a1", "a2", "b1"]


def test_directory_without_jsonl_files_exits_data(workspace):
    folder = workspace["dir"] / "json-dir"
    folder.mkdir()
    write_note_file(folder / "notes.json", [{"doc_id": "a", "text": "pt on cpap ."}])
    code = main(
        [
            "build-pretrain",
            "--input", str(folder),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(workspace["i2b2"]),
            "--out", str(workspace["dir"] / "x.jsonl"),
        ]
    )
    assert code == EXIT_DATA


def test_default_onehot_filter_handles_a_large_vocabulary(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    with open(pairs, "w", encoding="utf-8") as fh:
        for i in range(250):
            record = {
                "doc_id": f"d{i}",
                "source": " ".join(f"s{i}x{j}" for j in range(10)),
                "generated": " ".join(f"g{i}x{j}" for j in range(10)),
                "label": 1.0,
            }
            fh.write(json.dumps(record) + "\n")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--in", str(pairs), "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 38  # ceil(0.15 * 250)


def test_standoff_i2b2_source_is_autodetected(workspace):
    standoff = workspace["dir"] / "standoff.tsv"
    standoff.write_text("n000\t0\t0\t1\tproblem\n", encoding="utf-8")
    out = workspace["dir"] / "corpus2.jsonl"
    code = main(
        [
            "build-pretrain",
            "--input", str(workspace["notes"]),
            "--umls-dict", str(workspace["umls"]),
            "--i2b2-source", str(standoff),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK


def test_a_byte_order_mark_on_any_input_changes_no_output(workspace):
    d = workspace["dir"]
    config = d / "cfg.json"
    config.write_text(json.dumps({"p_sentence": 0.2}), encoding="utf-8")
    standoff = write_lines(d / "standoff.tsv", ["n000\t0\t0\t2\tproblem"])
    pred = write_lines(d / "pred.txt", ["the cat sat", "on the mat"])

    def outputs(tag, wrap):
        written = []
        for source in (workspace["i2b2"], standoff):
            out = d / f"corpus-{tag}-{source.stem}.jsonl"
            assert main(["build-pretrain", "--input", wrap(workspace["notes"]),
                         "--umls-dict", wrap(workspace["umls"]), "--i2b2-source", wrap(source),
                         "--config", wrap(config), "--seed", "3", "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        scores = d / f"scores-{tag}.json"
        assert main(["evaluate", "--pred", wrap(pred), "--ref", str(pred), "--out", str(scores)]) == EXIT_OK
        return [*written, scores.read_bytes()]

    def with_bom(path):
        copy = d / f"bom-{path.name}"
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return str(copy)

    plain = outputs("plain", str)
    assert len(plain[0].splitlines()) == 25
    assert json.loads(plain[2])["r1"]["f1"] == 1.0
    assert outputs("bom", with_bom) == plain


# sha256 of the corpus `--p-umls 0.6 --p-i2b2 0.4 --seed 3` wrote on the
# workspace notes when the I2B2 probability was a setting of its own
P_UMLS_06_CORPUS = "08e69d49e49512a1a22b3561f0f2540af3234094f225ac2f7617b1aeff3bef45"


def test_invalid_probability_flag_exits_config(workspace):
    out = workspace["dir"] / "x.jsonl"
    args = [
        "build-pretrain",
        "--input", str(workspace["notes"]),
        "--umls-dict", str(workspace["umls"]),
        "--i2b2-source", str(workspace["i2b2"]),
        "--seed", "3",
        "--out", str(out),
    ]
    assert main(args + ["--p-umls", "1.1"]) == EXIT_CONFIG
    # I2B2 takes 1 - p_umls, the source's format is read off the file, and
    # the sentinels are T5's
    for removed in (["--p-i2b2", "0.4"], ["--i2b2-format", "dict"], ["--sentinel-format", "[M{i}]"]):
        assert main(args + ["--p-umls", "0.6", *removed]) == EXIT_CONFIG
    assert main(args + ["--p-umls", "0.6"]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == P_UMLS_06_CORPUS


def test_missing_dictionary_path_exits_config(workspace):
    code = main(
        [
            "build-pretrain",
            "--input", str(workspace["notes"]),
            "--umls-dict", str(workspace["dir"] / "missing.txt"),
            "--i2b2-source", str(workspace["i2b2"]),
            "--out", str(workspace["dir"] / "x.jsonl"),
        ]
    )
    assert code == EXIT_CONFIG


def test_unknown_subcommand_prints_usage_and_fails(capsys):
    code = main(["frobnicate"])
    assert code != EXIT_OK
    assert "usage" in capsys.readouterr().err.lower()


def test_evaluate_hand_value(tmp_path, capsys):
    pred = write_lines(tmp_path / "pred.txt", ["the cat sat"])
    ref = write_lines(tmp_path / "ref.txt", ["the cat ate"])
    code = main(["evaluate", "--pred", str(pred), "--ref", str(ref)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "66.67" in out and "50.00" in out


def test_evaluate_mismatched_files_is_a_data_error(tmp_path):
    pred = write_lines(tmp_path / "pred.txt", ["one", "two"])
    ref = write_lines(tmp_path / "ref.txt", ["one"])
    code = main(["evaluate", "--pred", str(pred), "--ref", str(ref)])
    assert code == EXIT_DATA


def test_evaluate_takes_no_config_or_seed(tmp_path):
    pred = write_lines(tmp_path / "pred.txt", ["the cat sat"])
    args = ["evaluate", "--pred", str(pred), "--ref", str(pred)]
    assert main(args) == EXIT_OK
    assert main(args + ["--config", str(tmp_path / "nonexistent.json")]) == EXIT_CONFIG
    assert main(args + ["--seed", "3"]) == EXIT_CONFIG


# flags of settings the pipeline fixes: its templates, its ASO section
# headers and unstemmed ROUGE (build-pretrain's --sentinel-format is
# checked with its other removed flags above)
REMOVED_FLAGS = {
    "augment": ["--templates", "tpl"],
    "assemble": ["--separator", "|"],
    "evaluate": ["--stem"],
}


@pytest.mark.parametrize(
    "args",
    [
        ["augment", "--train", "t.jsonl", "--out", "o.jsonl"],
        ["filter", "--in", "p.jsonl", "--out", "o.jsonl"],
        ["assemble", "--notes", "n.jsonl", "--out", "o.jsonl"],
        ["evaluate", "--pred", "p.txt", "--ref", "r.txt"],
    ],
    ids=lambda args: args[0],
)
def test_workers_is_a_usage_error_outside_build_pretrain_and_stats(args, capsys):
    assert main(args + ["--workers", "2"]) == EXIT_CONFIG
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    if args[0] in ("filter", "assemble"):  # no stage they run reads a seed
        assert main(args + ["--seed", "3"]) == EXIT_CONFIG
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    if args[0] in REMOVED_FLAGS:
        removed = REMOVED_FLAGS[args[0]]
        assert main(args + removed) == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


SECTION_NOTE = {"doc_id": "s1", "assessment": "pt on cpap .", "subjective": "s",
                "objective": "o", "summary": "cpap"}
PAIR = {"doc_id": "s1", "source": "pt on cpap .", "generated": "on cpap .", "label": 1.0}
# case: (good first record, bad second line, command line with {f} the file)
MALFORMED_RECORD_CASES = {
    "augment": (SECTION_NOTE, "[1, 2]", ["augment", "--train", "{f}", "--out", "{d}/o"]),
    "assemble": (SECTION_NOTE, "[1, 2]", ["assemble", "--notes", "{f}", "--out", "{d}/o"]),
    "assemble-pair-text": (
        PAIR,
        '{"doc_id": "s1", "source": "pt on cpap .", "generated": 7, "label": 1}',
        ["assemble", "--notes", "{d}/notes.jsonl", "--augmented", "{f}", "--out", "{d}/o"],
    ),
    "assemble-pair-scores": (
        PAIR,
        '{"doc_id": "s1", "source": "pt on cpap .", "generated": "on cpap .", "label": 1, '
        '"scores": {"combined": "x"}}',
        ["assemble", "--notes", "{d}/notes.jsonl", "--augmented", "{f}", "--out", "{d}/o"],
    ),
    # Python's JSON reader accepts NaN and Infinity; a score must be finite
    "assemble-pair-score-nan": (
        PAIR,
        json.dumps({**PAIR, "scores": {"combined": float("nan")}}),
        ["assemble", "--notes", "{d}/notes.jsonl", "--augmented", "{f}", "--out", "{d}/o"],
    ),
    "assemble-pair-score-infinity": (
        PAIR,
        json.dumps({**PAIR, "scores": {"combined": float("inf")}}),
        ["assemble", "--notes", "{d}/notes.jsonl", "--augmented", "{f}", "--out", "{d}/o"],
    ),
    "filter-pair-score-nan": (
        PAIR,
        json.dumps({**PAIR, "scores": {"embedding": float("nan")}}),
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "filter": (
        PAIR,
        '{"source": "a", "generated": "b", "label": "x"}',
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "filter-pair-text": (
        PAIR,
        '{"source": 5, "generated": "b", "label": 1}',
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "filter-pair-terms": (
        PAIR,
        '{"source": "a", "generated": "b", "label": 1, "required_terms": "chest pain"}',
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "filter-label-bool": (
        PAIR,
        '{"source": "a", "generated": "b", "label": true}',
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "filter-label-string": (
        PAIR,
        '{"source": "a", "generated": "b", "label": "0.5"}',
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "augment-doc-id-null": (
        SECTION_NOTE,
        json.dumps({**SECTION_NOTE, "doc_id": None}),
        ["augment", "--train", "{f}", "--out", "{d}/o"],
    ),
    "assemble-doc-id-false": (
        SECTION_NOTE,
        json.dumps({**SECTION_NOTE, "doc_id": False}),
        ["assemble", "--notes", "{f}", "--out", "{d}/o"],
    ),
    "assemble-doc-id-list": (
        SECTION_NOTE,
        json.dumps({**SECTION_NOTE, "doc_id": ["a"]}),
        ["assemble", "--notes", "{f}", "--out", "{d}/o"],
    ),
    # a falsy non-string text is a bad record, not an absent body
    "augment-text-zero": (
        SECTION_NOTE,
        json.dumps({**SECTION_NOTE, "text": 0}),
        ["augment", "--train", "{f}", "--out", "{d}/o"],
    ),
    "assemble-text-list": (
        SECTION_NOTE,
        json.dumps({**SECTION_NOTE, "text": []}),
        ["assemble", "--notes", "{f}", "--out", "{d}/o"],
    ),
    # json.dumps escapes the lone surrogate as \ud800, which decodes to text no writer can encode
    "augment-lone-surrogate": (
        SECTION_NOTE,
        json.dumps({**SECTION_NOTE, "assessment": "pt on \ud800 ."}),
        ["augment", "--train", "{f}", "--out", "{d}/o"],
    ),
    "assemble-lone-surrogate": (
        PAIR,
        json.dumps({**PAIR, "generated": "on cpap \udfff."}),
        ["assemble", "--notes", "{d}/notes.jsonl", "--augmented", "{f}", "--out", "{d}/o"],
    ),
    "filter-lone-surrogate": (
        PAIR,
        json.dumps({**PAIR, "source": "pt on \ud800 ."}),
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    # a line with a byte that is not UTF-8 (see the test below)
    "augment-not-utf8": (
        SECTION_NOTE,
        json.dumps(SECTION_NOTE).replace("cpap", "cp\udcffap"),
        ["augment", "--train", "{f}", "--out", "{d}/o"],
    ),
    "assemble-not-utf8": (
        SECTION_NOTE,
        json.dumps(SECTION_NOTE).replace("cpap", "cp\udcffap"),
        ["assemble", "--notes", "{f}", "--out", "{d}/o"],
    ),
    "assemble-pair-not-utf8": (
        PAIR,
        json.dumps(PAIR).replace("cpap", "cp\udcffap"),
        ["assemble", "--notes", "{d}/notes.jsonl", "--augmented", "{f}", "--out", "{d}/o"],
    ),
    "filter-not-utf8": (
        PAIR,
        json.dumps(PAIR).replace("cpap", "cp\udcffap"),
        ["filter", "--in", "{f}", "--out", "{d}/o"],
    ),
    "evaluate": ({"text": "the cat sat"}, '{"text": null}', ["evaluate", "--pred", "{f}", "--ref", "{f}"]),
    "evaluate-not-utf8": (
        {"text": "the cat sat"},
        json.dumps({"text": "the cat sat"}).replace("cat", "c\udcffat"),
        ["evaluate", "--pred", "{f}", "--ref", "{f}"],
    ),
    "evaluate-text-after-json": (
        {"text": "the cat sat"}, "the cat sat", ["evaluate", "--pred", "{f}", "--ref", "{f}"]
    ),
}


def run_notesum(args, **paths):
    """Run the CLI in its own process, ``{name}`` in ``args`` replaced by
    ``paths[name]``, and return the completed process."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "notesum", *(a.format(**paths) for a in args)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORD_CASES))
def test_malformed_record_exits_data_naming_its_line(tmp_path, case):
    good, bad, args = MALFORMED_RECORD_CASES[case]
    (tmp_path / "notes.jsonl").write_text(json.dumps(SECTION_NOTE) + "\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    # surrogateescape writes a case's "\udcff" as the byte 0xff, which no
    # UTF-8 text holds; json.dumps has escaped every other surrogate
    records.write_bytes((json.dumps(good) + "\n" + bad + "\n").encode("utf-8", "surrogateescape"))
    result = run_notesum(args, f=records, d=tmp_path)
    assert result.returncode == EXIT_DATA, result.stderr
    assert f"{records}:2:" in result.stderr
    assert "Traceback" not in result.stderr


PRETRAIN = ["build-pretrain", "--input", "{d}/notes.jsonl", "--out", "{d}/o"]
# case: (input bytes holding a byte no UTF-8 text has, command line with
# {f} that input, exit code)
NOT_UTF8_INPUT_CASES = {
    "umls-dict": (b"cpap\n\xff\n", [*PRETRAIN, "--umls-dict", "{f}", "--i2b2-source", "{d}/terms.txt"], EXIT_DATA),
    "i2b2-standoff": (
        b"a\t0\t0\t1\tproblem\n\xff\t0\t0\t1\tproblem\n",
        [*PRETRAIN, "--umls-dict", "{d}/terms.txt", "--i2b2-source", "{f}"],
        EXIT_DATA,
    ),
    "embedder-file": (b"cpap 1 0\n\xff 0 1\n", ["filter", "--in", "{d}/pairs.jsonl", "--embedder", "file:{f}", "--out", "{d}/o"], EXIT_DATA),
    "evaluate-pred": (b"the cat sat\n\xff\n", ["evaluate", "--pred", "{f}", "--ref", "{d}/ref.txt"], EXIT_DATA),
    "evaluate-ref": (b"the cat sat\n\xff\n", ["evaluate", "--pred", "{d}/ref.txt", "--ref", "{f}"], EXIT_DATA),
    "config": (b'{"embedder": "\xff"}', ["filter", "--in", "{d}/pairs.jsonl", "--config", "{f}", "--out", "{d}/o"], EXIT_CONFIG),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8_INPUT_CASES))
def test_input_that_is_not_utf8_exits_cleanly_naming_the_file(tmp_path, case):
    content, args, code = NOT_UTF8_INPUT_CASES[case]
    write_note_file(tmp_path / "notes.jsonl", [{"doc_id": "a", "text": "pt on cpap ."}])
    write_note_file(tmp_path / "pairs.jsonl", [PAIR])
    write_lines(tmp_path / "terms.txt", ["cpap"])
    write_lines(tmp_path / "ref.txt", ["the cat sat", "on the mat"])
    bad = tmp_path / "input.bin"
    bad.write_bytes(content)
    result = run_notesum(args, f=bad, d=tmp_path)
    assert result.returncode == code, result.stderr
    assert f"{bad}" in result.stderr and "UTF-8" in result.stderr
    assert "Traceback" not in result.stderr


def run_chain(workspace, tag, seed="11"):
    d = workspace["dir"]
    corpus = d / f"corpus-{tag}.jsonl"
    pairs = d / f"pairs-{tag}.jsonl"
    kept = d / f"kept-{tag}.jsonl"
    train = d / f"train-{tag}.jsonl"
    scores = d / f"scores-{tag}.json"
    steps = [
        ["build-pretrain", "--input", str(workspace["notes"]),
         "--umls-dict", str(workspace["umls"]), "--i2b2-source", str(workspace["i2b2"]),
         "--seed", seed, "--out", str(corpus), "--stats", str(d / f"stats-{tag}.json")],
        ["augment", "--train", str(workspace["sections"]), "--seed", seed,
         "--max-out", "12", "--out", str(pairs)],
        ["filter", "--in", str(pairs), "--keep", "0.5", "--out", str(kept)],
        ["assemble", "--notes", str(workspace["sections"]), "--augmented", str(kept),
         "--mode", "aso", "--target-size", "20", "--out", str(train)],
        ["evaluate", "--pred", str(train), "--ref", str(train), "--out", str(scores)],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    return [p.read_bytes() for p in (corpus, pairs, kept, train, scores)]


def test_full_chain_runs_and_is_deterministic(workspace):
    first = run_chain(workspace, "a")
    second = run_chain(workspace, "b")
    assert first == second
    # the chain actually produced augmentation candidates
    assert len(first[1].splitlines()) > 0


def test_worker_flag_does_not_change_output(workspace):
    d = workspace["dir"]
    outs = []
    for workers, tag in (("1", "w1"), ("4", "w4")):
        out = d / f"corpus-{tag}.jsonl"
        code = main(
            [
                "build-pretrain",
                "--input", str(workspace["notes"]),
                "--umls-dict", str(workspace["umls"]),
                "--i2b2-source", str(workspace["i2b2"]),
                "--seed", "2", "--workers", workers,
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
