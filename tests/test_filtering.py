import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from notesum.errors import ConfigurationError, ParseError
from notesum.filtering import (
    EmbeddingScorer,
    FileEmbedding,
    FilterConfig,
    OneHotEmbedding,
    combined_score,
    filter_top_fraction,
    greedy_match_f1,
    make_embedder,
    score_pair,
    trigram_scorer,
)


# token-overlap oracle for the one-hot case
def overlap_prf(cand, ref):
    ref_set = set(ref)
    cand_set = set(cand)
    p = sum(t in ref_set for t in cand) / len(cand)
    r = sum(t in cand_set for t in ref) / len(ref)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


def test_identical_sentences_score_one():
    tokens = "pt stable on cpap".split()
    assert greedy_match_f1(tokens, tokens, OneHotEmbedding()) == (1.0, 1.0, 1.0)


def test_half_overlap_hand_value():
    got = greedy_match_f1(["a", "b"], ["a", "c"], OneHotEmbedding())
    assert got == (0.5, 0.5, 0.5)


def test_disjoint_vocabularies_score_zero():
    got = greedy_match_f1(["a", "b"], ["c", "d"], OneHotEmbedding())
    assert got == (0.0, 0.0, 0.0)


def test_empty_side_is_an_error():
    with pytest.raises(ValueError):
        greedy_match_f1([], ["a"], OneHotEmbedding())
    with pytest.raises(ValueError):
        greedy_match_f1(["a"], [], OneHotEmbedding())


tokens_strategy = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8)


@given(tokens_strategy, tokens_strategy)
def test_onehot_matches_token_overlap_oracle(cand, ref):
    got = greedy_match_f1(cand, ref, OneHotEmbedding())
    assert got == pytest.approx(overlap_prf(cand, ref), abs=1e-12)


@given(tokens_strategy, tokens_strategy)
def test_swapping_sides_swaps_precision_and_recall(cand, ref):
    embedder = OneHotEmbedding()
    p1, r1, f1 = greedy_match_f1(cand, ref, embedder)
    p2, r2, f2 = greedy_match_f1(ref, cand, embedder)
    assert (p1, r1) == (r2, p2)
    assert f1 == pytest.approx(f2, abs=1e-12)


def write_vectors(path, rows):
    path.write_text("".join(f"{t} {' '.join(map(str, v))}\n" for t, v in rows), encoding="utf-8")
    return path


def test_vector_file_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("\ufeff2 2\nab 1 0\ncd 0 1\n", encoding="utf-8")
    assert FileEmbedding(path).cosines(["ab", "cd"], ["ab"]).tolist() == [[1.0], [0.0]]


@pytest.fixture(scope="module")
def basis_vectors(tmp_path_factory):
    """A vector file of explicit one-hot vectors over the vocabulary a-h."""
    vocabulary = "abcdefgh"
    rows = [(t, np.eye(len(vocabulary))[i]) for i, t in enumerate(vocabulary)]
    return FileEmbedding(write_vectors(tmp_path_factory.mktemp("basis") / "v.txt", rows))


@pytest.fixture(scope="module")
def unrelated_vectors(tmp_path_factory):
    """A vector file that holds none of the tokens the tests draw."""
    rows = [("zz", [1.0, 2.0, 0.5]), ("yy", [-1.0, 0.0, 3.0])]
    return FileEmbedding(write_vectors(tmp_path_factory.mktemp("other") / "v.txt", rows))


@given(tokens_strategy, tokens_strategy)
def test_onehot_equals_matching_over_explicit_basis_vectors(basis_vectors, cand, ref):
    explicit = greedy_match_f1(cand, ref, basis_vectors)
    assert greedy_match_f1(cand, ref, OneHotEmbedding()) == explicit


@given(tokens_strategy, tokens_strategy)
def test_tokens_without_vectors_follow_the_onehot_rule(unrelated_vectors, cand, ref):
    got = greedy_match_f1(cand, ref, unrelated_vectors)
    assert got == greedy_match_f1(cand, ref, OneHotEmbedding())


def cosine_oracle(a, b, vectors):
    """One token pair's cosine: from the vectors when both have one, else
    1 for equal tokens and 0 otherwise."""
    if a in vectors and b in vectors:
        va, vb = np.array(vectors[a]), np.array(vectors[b])
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
    return 1.0 if a == b else 0.0


@pytest.fixture(scope="module")
def mixed_vectors(tmp_path_factory):
    """Vectors for cpap, vent and sat; x and y have none."""
    vectors = {"cpap": [1.0, 0.5], "vent": [0.8, 0.6], "sat": [-1.0, 0.2]}
    path = write_vectors(tmp_path_factory.mktemp("mixed") / "v.txt", vectors.items())
    return FileEmbedding(path), vectors


@given(
    st.lists(st.sampled_from(["cpap", "vent", "sat", "x", "y"]), min_size=1, max_size=6),
    st.lists(st.sampled_from(["cpap", "vent", "sat", "x", "y"]), min_size=1, max_size=6),
)
def test_mixed_known_and_unknown_tokens_match_a_per_pair_oracle(mixed_vectors, cand, ref):
    embedder, vectors = mixed_vectors
    sims = [[cosine_oracle(c, r, vectors) for r in ref] for c in cand]
    p = sum(max(row) for row in sims) / len(cand)
    r = sum(max(col) for col in zip(*sims)) / len(ref)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    assert greedy_match_f1(cand, ref, embedder) == pytest.approx((p, r, f1), abs=1e-12)


# ---------------------------------------------------------------------------
# combining scores


def test_equal_weights_average():
    assert combined_score({"A": 0.8, "B": 0.6}, {"A": 0.5, "B": 0.5}) == pytest.approx(0.7)


def test_single_scorer_is_identity():
    assert combined_score({"A": 0.42}, {"A": 1.0}) == pytest.approx(0.42)


def test_full_weight_on_one_scorer_ignores_the_other():
    assert combined_score({"A": 0.9, "B": 0.1}, {"A": 1.0, "B": 0.0}) == pytest.approx(0.9)


def test_unknown_scorer_name_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        combined_score({"A": 0.9}, {"missing": 1.0})
    with pytest.raises(ConfigurationError):
        score_pair("x", "y", {"trigram": trigram_scorer}, {"missing": 1.0})


def test_score_pair_reports_per_scorer_and_combined():
    scores = score_pair(
        "pt stable on cpap",
        "pt stable on cpap",
        {"embedding": EmbeddingScorer(OneHotEmbedding()), "trigram": trigram_scorer},
        {"embedding": 0.5, "trigram": 0.5},
    )
    assert scores["embedding"] == pytest.approx(1.0)
    assert scores["trigram"] == pytest.approx(1.0)
    assert scores["combined"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "candidate, reference, want",
    [
        (" \t\n", "pt on cpap", 0.0),
        ("pt on cpap", "  ", 0.0),
        ("pt", "pt on cpap", 0.0),
        ("pt on cpap", "p", 0.0),
        ("CHF", "chf", 1.0),
        ("Heart failure", "heart FAILURES", 11 / 12),
    ],
)
def test_trigram_scorer_exact_values(candidate, reference, want):
    assert trigram_scorer(candidate, reference) == want


# ---------------------------------------------------------------------------
# top-fraction filtering


def test_twenty_pairs_keep_exactly_three():
    scored = [(f"p{i}", score) for i, score in enumerate(
        [0.1, 0.9, 0.3, 0.8, 0.2, 0.7, 0.05, 0.6, 0.4, 0.5,
         0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19, 0.21]
    )]
    kept = filter_top_fraction(scored, 0.15)
    assert kept == ["p1", "p3", "p5"]  # scores 0.9, 0.8, 0.7 in input order


def test_single_pair_is_kept():
    assert filter_top_fraction([("only", 0.01)], 0.15) == ["only"]


def test_ties_resolve_by_input_order():
    scored = [(i, 1.0) for i in range(10)]
    assert filter_top_fraction(scored, 0.15) == [0, 1]


def test_empty_input():
    assert filter_top_fraction([], 0.15) == []


def test_kept_scores_dominate_discarded_for_all_sizes():
    rng = np.random.default_rng(123)
    for n in range(1, 101):
        scores = rng.random(n)
        scored = [(i, float(s)) for i, s in enumerate(scores)]
        kept = filter_top_fraction(scored, 0.15)
        assert len(kept) == math.ceil(0.15 * n)
        kept_set = set(kept)
        discarded = [s for i, s in scored if i not in kept_set]
        if discarded and kept:
            assert min(scores[i] for i in kept) >= max(discarded)
        assert kept == sorted(kept)


def test_keep_fraction_must_be_in_range():
    with pytest.raises(ValueError):
        filter_top_fraction([("x", 1.0)], 0.0)


def test_filter_config_defaults_match_the_85_percent_cut():
    assert FilterConfig().keep_fraction == 0.15


def test_filter_config_validates_weights():
    with pytest.raises(ConfigurationError):
        FilterConfig(weights={"embedding": 0.9, "trigram": 0.9})
    with pytest.raises(ConfigurationError):
        FilterConfig(keep_fraction=0.0)
    for weights in ({}, [["embedding", 1.0]]):
        with pytest.raises(ConfigurationError) as exc:
            FilterConfig(weights=weights)
        assert exc.value.problems[0].startswith("weights:")


def test_filter_config_reports_every_problem():
    with pytest.raises(ConfigurationError) as exc:
        FilterConfig(keep_fraction=2.0, weights={"embedding": 1.5, "trigram": -0.5})
    assert [p.split(":")[0] for p in exc.value.problems] == ["keep_fraction", "weights"]


# ---------------------------------------------------------------------------
# embedders and vector files


def test_embedder_names_parse(tmp_path):
    assert isinstance(make_embedder("onehot"), OneHotEmbedding)
    path = write_vectors(tmp_path / "v.txt", [("cpap", [1.0, 0.0])])
    assert isinstance(make_embedder(f"file:{path}"), FileEmbedding)
    for spec in ("word2vec", "hashed-random:7", "hashed-random(7)", "file:", "Onehot"):
        with pytest.raises(ConfigurationError) as exc:
            make_embedder(spec)
        assert exc.value.problems == [f"embedder: must be onehot or file:<path>, got {spec!r}"]


def test_word2vec_header_line_is_skipped(tmp_path):
    rows = [("cpap", [1.0, 0.0, 2.0]), ("vent", [0.0, 1.0, 0.5]), ("sat", [3.0, 1.0, 0.0])]
    plain = FileEmbedding(write_vectors(tmp_path / "plain.txt", rows))
    headed_path = tmp_path / "headed.txt"
    headed_path.write_text("3 3\n" + (tmp_path / "plain.txt").read_text(), encoding="utf-8")
    headed = FileEmbedding(headed_path)
    tokens = ["cpap", "vent", "sat", "unseen"]
    assert np.array_equal(headed.cosines(tokens, tokens), plain.cosines(tokens, tokens))


def test_word2vec_header_with_the_wrong_dimension_names_its_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("\n2 1\ncpap 1.0 0.0 2.0\nvent 0.0 1.0 0.5\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        FileEmbedding(path)
    assert f"{path}:2:" in str(exc.value)
    assert "dimension 1" in str(exc.value)


def test_only_the_first_line_can_be_a_header(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cpap 1.0\n2 1\n", encoding="utf-8")  # "2" is a 1-d vector here
    emb = FileEmbedding(path)
    assert greedy_match_f1(["cpap"], ["2"], emb) == (1.0, 1.0, 1.0)


def test_file_embeddings_load_and_fall_back(tmp_path):
    rows = [("cpap", [2.0, 0.0]), ("vent", [0.0, 1.0])]
    emb = FileEmbedding(write_vectors(tmp_path / "v.txt", rows))
    sims = emb.cosines(["cpap", "vent", "unseen"], ["cpap", "unseen", "other"])
    assert sims.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def test_file_embeddings_reject_bad_rows(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cpap 1.0 zero\n", encoding="utf-8")
    with pytest.raises(ParseError):
        FileEmbedding(path)
    path.write_text("cpap 1.0 2.0\nvent 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        FileEmbedding(path)
    assert ":2" in str(exc.value)


# The stack-normalize-matmul formula the embedder ran per call before it
# kept one table of unit rows: stack each side's vectors (zeros for a token
# without one), normalize the rows, multiply, then set the one-hot rows.
def stacked_cosines(cand, ref, vectors, dim):
    zero = np.zeros(dim)
    c = np.stack([vectors.get(t, zero) for t in cand])
    r = np.stack([vectors.get(t, zero) for t in ref])
    c = c / np.maximum(np.linalg.norm(c, axis=1, keepdims=True), 1e-12)
    r = r / np.maximum(np.linalg.norm(r, axis=1, keepdims=True), 1e-12)
    sims = c @ r.T
    for i, token in enumerate(cand):
        if token not in vectors:
            sims[i] = [token == other for other in ref]
    return sims


def stacked_f1(cand, ref, vectors, dim):
    sims = stacked_cosines(cand, ref, vectors, dim)
    p = float(sims.max(axis=1) @ np.ones(len(cand)) / len(cand))
    r = float(sims.max(axis=0) @ np.ones(len(ref)) / len(ref))
    return p, r, (0.0 if p + r == 0 else 2 * p * r / (p + r))


@pytest.fixture(scope="module")
def random_vectors(tmp_path_factory):
    """700 tokens of 37-d vectors at scales from 1e-3 to 1e3, so the unit
    table spans two normalization blocks and a partial third."""
    rng = np.random.default_rng(7)
    vectors = {
        f"t{i}": rng.normal(size=37) * 10.0 ** rng.integers(-3, 4) for i in range(700)
    }
    path = tmp_path_factory.mktemp("random") / "v.txt"
    path.write_text("".join(f"{t} {' '.join(map(repr, v.tolist()))}\n" for t, v in vectors.items()))
    return FileEmbedding(path), vectors


random_tokens = st.lists(
    st.one_of(st.integers(0, 699).map(lambda i: f"t{i}"), st.sampled_from(["u0", "u1"])),
    min_size=1,
    max_size=40,
)


@given(random_tokens, random_tokens)
def test_unit_table_equals_the_per_call_formula_exactly(random_vectors, cand, ref):
    embedder, vectors = random_vectors
    want = stacked_cosines(cand, ref, vectors, 37)
    assert embedder.cosines(cand, ref).tobytes() == want.tobytes()
    assert greedy_match_f1(cand, ref, embedder) == stacked_f1(cand, ref, vectors, 37)


def test_a_token_listed_twice_keeps_its_last_vector(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cpap 1.0 0.0\nvent 0.0 1.0\ncpap 0.0 2.0\n", encoding="utf-8")
    emb = FileEmbedding(path)
    assert emb.cosines(["cpap"], ["vent", "cpap"]).tolist() == [[1.0, 1.0]]


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("cpap 1.0 2.0\nvent 1.0 zero\n", 2, "non-numeric vector component"),
        ("cpap 0.0 -0.0\n", 1, "vector for 'cpap' is empty, non-finite or zero"),
        ("cpap 1.0 2.0\n\nvent\n", 3, "vector for 'vent' is empty, non-finite or zero"),
        ("cpap 1.0 nan\n", 1, "vector for 'cpap' is empty, non-finite or zero"),
        ("cpap 1.0 2.0\nvent inf 1.0\n", 2, "vector for 'vent' is empty, non-finite or zero"),
        ("cpap 1.0 1e400\n", 1, "vector for 'cpap' is empty, non-finite or zero"),
        ("cpap 1.0 2.0\nvent 1.0\n", 2, "vector for 'vent' has dimension 1, expected 2"),
        ("\n2 3\ncpap 1.0 2.0\n", 2, "header gives dimension 3, vectors have 2"),
        ("cpap 1.0 2.0\nvent 1.0 nan 3.0\n", 2, "vector for 'vent' is empty, non-finite or zero"),
        ("with 1 0 0\npt 1e308 1e308 1e308\n", 2, "vector norm inf is infinite or below 1e-12"),
        ("with 1 0 0\npt 1e-200 0 0\n", 2, "vector norm 0 is infinite or below 1e-12"),
    ],
)
def test_each_load_error_keeps_its_message_and_line(tmp_path, text, line, message):
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        FileEmbedding(path)
    assert str(exc.value) == f"{path}:{line}: {message}"
    assert exc.value.line == line


def test_a_file_of_blank_lines_and_a_header_has_no_vectors(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("\n3 2\n\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="contains no vectors"):
        FileEmbedding(path)
