import io
import sys

import numpy as np
import pytest

from cofactor import corpus
from cofactor.corpus import (RatingDataset, SyntheticConfig, binarize_ratings,
                             generate_synthetic, make_split, parse_clicks,
                             parse_documents, parse_ratings, subsample_ratings)
from cofactor.errors import CofactorError, ParseError, SplitError, ValidationError

from conftest import assert_same_csr, make_ratings, to_scipy
from oracles import (csr_reference, parse_clicks_reference, parse_ratings_reference,
                     split_reference)


class TestParseRatings:
    def test_empty_stream(self):
        ds = parse_ratings(io.StringIO(""))
        assert (ds.n_users, ds.n_items, ds.n_entries) == (0, 0, 0)

    def test_three_lines(self):
        ds = parse_ratings(io.StringIO("u1 i1 4\nu1 i2 7\nu2 i1 9\n"))
        assert (ds.n_users, ds.n_items, ds.n_entries) == (2, 2, 3)
        assert ds.user_index_map == {"u1": 0, "u2": 1}
        assert ds.ratings.tolist() == [4.0, 7.0, 9.0]

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_ratings(io.StringIO("u1 i1 4\nu1 i1 4\n"))

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ratings(io.StringIO("u1 i1 4\nu1 i2\n"))

    def test_non_numeric_rating(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_ratings(io.StringIO("u1 i1 high\n"))

    def test_nonpositive_rating_rejected(self):
        with pytest.raises(ValidationError, match="> 0"):
            parse_ratings(io.StringIO("u1 i1 0\n"))
        with pytest.raises(ValidationError):
            parse_ratings(io.StringIO("u1 i1 -3\n"))

    def test_tab_separated_and_blank_lines(self):
        ds = parse_ratings(io.StringIO("u1\ti1\t4\n\nu2\ti1\t5\n"))
        assert ds.n_entries == 2

    def test_reindex_round_trip(self):
        ds = parse_ratings(io.StringIO("b x 1\na x 2\nb y 3\n"))
        for uid, idx in ds.user_index_map.items():
            assert ds.user_ids[idx] == uid
        for iid, idx in ds.item_index_map.items():
            assert ds.item_ids[idx] == iid


class TestRatingDatasetChecked:
    """A RatingDataset checks its arrays when it is built."""

    @staticmethod
    def build(users, items, ratings):
        """A dataset of 3 users and 2 items."""
        return RatingDataset(np.asarray(users, dtype=np.int64),
                             np.asarray(items, dtype=np.int64),
                             np.asarray(ratings, dtype=np.float64),
                             ("u0", "u1", "u2"), ("i0", "i1"))

    def test_valid_arrays_accepted(self):
        assert self.build([0, 2], [1, 0], [4.0, 5.0]).n_entries == 2

    @pytest.mark.parametrize("arrays, name", [
        (([0, 1], [0, 1], [4.0]), r"'ratings' \(1\)"),
        (([0, 1, 2], [0, 1], [4.0, 5.0]), r"'users' \(3\)"),
        (([0], [0, 1], [4.0]), r"'items' \(2\)"),
    ], ids=["ratings_short", "users_long", "items_long"])
    def test_parallel_arrays_of_different_lengths_rejected(self, arrays, name):
        with pytest.raises(ValidationError, match=f"{name}.* differ in length"):
            self.build(*arrays)

    @pytest.mark.parametrize("users, items, name, bound", [
        ([0, -1], [0, 1], "users", 3), ([0, 3], [0, 1], "users", 3),
        ([0, 1], [-2, 1], "items", 2), ([0, 1], [0, 2], "items", 2),
    ], ids=["negative_user", "user_past_end", "negative_item", "item_past_end"])
    def test_index_outside_rejected(self, users, items, name, bound):
        message = rf"'{name}' has an index outside \[0, {bound}\)"
        with pytest.raises(ValidationError, match=message):
            self.build(users, items, [4.0, 5.0])

    def test_counts_are_the_id_tables(self):
        ds = self.build([0, 2], [1, 0], [4.0, 5.0])
        assert (ds.n_users, ds.n_items) == (3, 2)
        with pytest.raises(AttributeError):
            ds.n_users = 5

    def test_index_past_the_id_table_rejected(self):
        # a count stored beside the id tables let 5 users stand on 1 user id
        with pytest.raises(ValidationError, match=r"'users' has an index outside \[0, 1\)"):
            RatingDataset(np.array([4]), np.array([0]), np.array([4.0]), ("u0",), ("i0", "i1"))

    def test_replaced_entries_checked(self):
        with pytest.raises(ValidationError, match="'items'"):
            self.build([0], [1], [4.0]).replace_entries(np.array([0]), np.array([2]),
                                                        np.array([4.0]))


class TestParseClicks:
    def test_unknown_ids_dropped(self):
        clicks, dropped = parse_clicks(io.StringIO("u1 i1\nu9 i1\nu1 i9\n"),
                                       {"u1": 0}, {"i1": 0})
        assert clicks.nnz == 1
        assert dropped == 2

    def test_duplicates_collapse(self):
        clicks, _ = parse_clicks(io.StringIO("u1 i1\nu1 i1\n"), {"u1": 0}, {"i1": 0})
        assert clicks.nnz == 1


def outcome(parse, open_source):
    """parse(source)'s result, or the type, message and line number of the
    CofactorError it raised."""
    with open_source() as source:
        try:
            return parse(source)
        except CofactorError as exc:
            return type(exc), str(exc), getattr(exc, "line_no", None)


def ratings_outcome(source):
    ds = parse_ratings(source)
    assert (ds.users.dtype, ds.items.dtype, ds.ratings.dtype) == (np.int64, np.int64,
                                                                   np.float64)
    return (ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist(),
            ds.user_ids, ds.item_ids)


CLICK_IDS = ({"u0": 0, "u1": 1, "u2": 2}, {"i0": 0, "i1": 1, "i2": 2})


def clicks_outcome(source):
    clicks, dropped = parse_clicks(source, *CLICK_IDS)
    assert clicks.shape == (3, 3) and clicks.data.tolist() == [1] * clicks.nnz
    return list(zip(clicks.row_ids().tolist(), clicks.indices.tolist())), dropped


# block sizes that cut lines, fields and CRLF pairs at every offset, and the default
BLOCK_SIZES = [1, 2, 3, 5, 8, 13, corpus.BLOCK_CHARS]


def assert_parsers_agree(monkeypatch, open_source, clicks=False):
    """The block parser and the per-line oracle agree at every block size."""
    if clicks:
        expected = outcome(lambda source: parse_clicks_reference(source, *CLICK_IDS),
                           open_source)
    else:
        expected = outcome(parse_ratings_reference, open_source)
    for size in BLOCK_SIZES:
        monkeypatch.setattr(corpus, "BLOCK_CHARS", size)
        got = outcome(clicks_outcome if clicks else ratings_outcome, open_source)
        assert got == expected, size
    return expected


RATING_TEXTS = {
    "empty": "",
    "blank_lines": "\n  \nu1 i1 4\n\n\t\nu2 i1 5\n\n",
    "tabs": "u1\ti1\t4\n\tu2\t\ti2 5.5\t\n",
    "no_final_newline": "u1 i1 4\nu2 i1 5",
    "unicode_whitespace": "u1\u3000i1\x1c4\nu\x85 i\xa0 3\n\u3000\x85\n\u2028u2 i2\u20297\n",
    "wide_ids": "\U0001f600 \u00e9 2\n\U0001f600 i\ud800 3\n",
    "crlf_in_string": "u1 i1 4\r\nu2 i1 5\r\n\r\n",
    "python_float_rules": "u1 i1 1_000\nu1 i2 +2.5E1\nu1 i3 \u0663\n",
    "wrong_width": "u1 i1 4\nu1 i2\n",
    "not_a_number": "u1 i1 4\nu1 i2 high\n",
    "zero": "u1 i1 0\n",
    "negative": "u1 i1 4\nu2 i1 -3\n",
    "infinite": "u1 i1 1e999\n",
    "nan": "u1 i1 nan\n",
    "duplicate": "u1 i1 4\nu2 i1 5\nu1 i1 4\n",
    "duplicate_before_wrong_width": "u1 i1 4\nu1 i1 5\nu1\n",
    "wrong_width_before_duplicate": "u1 i1 4\nu1\nu1 i1 5\n",
    "nan_before_zero": "u1 i1 x\nu2 i1 0\n",
    "zero_before_wrong_width": "u1 i1 4\nu2 i1 0\nu3\n",
    "long_line_then_bad": "u" + "x" * 40 + " i1 4\nu2 i1 4 4\n",
}


class TestBlockParsersMatchLineOracle:
    """parse_ratings and parse_clicks read blocks of whole lines; the per-line
    oracles are the parsers they replaced. Both sides must return the same
    arrays and ids, or raise the same error type, message and line."""

    @pytest.mark.parametrize("name", list(RATING_TEXTS))
    def test_ratings_text(self, monkeypatch, name):
        text = RATING_TEXTS[name]
        assert_parsers_agree(monkeypatch, lambda: io.StringIO(text))

    def test_ratings_file_in_text_mode(self, monkeypatch, tmp_path):
        # universal newlines turn "\r\n" and a lone "\r" into line ends
        path = tmp_path / "ratings.txt"
        path.write_bytes("u1 i1 4\r\n\r\nu2\xa0i1 5\ru3 i2 1\r\nu1 i2 2".encode("utf-8"))
        expected = assert_parsers_agree(
            monkeypatch, lambda: open(path, "r", encoding="utf-8"))
        assert expected[3:] == (("u1", "u2", "u3"), ("i1", "i2"))

    def test_clicks_file_in_text_mode(self, monkeypatch, tmp_path):
        path = tmp_path / "clicks.txt"
        path.write_bytes(b"u0 i1\r\nu9 i1\r\n\r\nu0\ti1\ru2 i2")
        expected = assert_parsers_agree(
            monkeypatch, lambda: open(path, "r", encoding="utf-8"), clicks=True)
        assert expected == ([(0, 1), (2, 2)], 1)

    @pytest.mark.parametrize("text", ["", "\n\n", "u0 i1\nu0 i1\nu1 i0", "u0\u3000i2\x85\n",
                                      "u0 i1\nu2 i0 x\nu1\n", "u0\n"])
    def test_clicks_text(self, monkeypatch, text):
        assert_parsers_agree(monkeypatch, lambda: io.StringIO(text), clicks=True)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_rating_logs(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        seps = [" ", "\t", "  ", "\u3000", "\x1c", "\x85", "\xa0"]
        lines = []
        for pair in rng.choice(100, size=int(rng.integers(5, 40)), replace=False):
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", " ", "\t\x85"])))
            fields = [f"u{pair // 10}", f"i{pair % 10}",
                      str(rng.choice(["1", "2.5", "7", "3e0", "10"]))]
            lines.append(str(rng.choice(seps)).join(fields) + str(rng.choice(["", " "])))
        for _ in range(int(rng.integers(0, 4))):  # bad lines; the earliest must win
            kind = rng.integers(4)
            bad = (str(rng.choice(["u1 i1", "u1 i1 2 3", "u1"])) if kind == 0
                   else f"u9 i9 {rng.choice(['x', '4..', 'one'])}" if kind == 1
                   else f"u8 i8 {rng.choice(['0', '-1', 'inf', '-0.0', 'nan'])}" if kind == 2
                   else lines[rng.integers(len(lines))].strip() or "u0 i0 1\nu0 i0 2")
            lines.insert(int(rng.integers(len(lines) + 1)), bad)
        text = "\n".join(lines) + str(rng.choice(["", "\n"]))
        assert_parsers_agree(monkeypatch, lambda: io.StringIO(text))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_click_logs(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        lines = [f"u{rng.integers(4)}{rng.choice([' ', chr(9), chr(0x3000)])}i{rng.integers(4)}"
                 for _ in range(int(rng.integers(5, 60)))]
        if seed % 2:
            lines.insert(int(rng.integers(len(lines))), "u1 i1 i2")
        assert_parsers_agree(monkeypatch, lambda: io.StringIO("\n".join(lines)), clicks=True)

    def test_whitespace_table_is_str_isspace(self):
        spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert np.flatnonzero(corpus._IS_SPACE).tolist() == spaces


class TestBinarize:
    def test_empty(self):
        clicks = binarize_ratings(make_ratings([]))
        assert clicks.nnz == 0

    def test_definition(self):
        ratings = make_ratings([(0, 0, 4), (1, 2, 9)])
        clicks = binarize_ratings(ratings)
        assert set(zip(clicks.row_ids().tolist(), clicks.indices.tolist())) == {(0, 0), (1, 2)}

    def test_cardinality_preserved(self, rng):
        n = 3000
        pairs = {(int(u), int(i)) for u, i in zip(rng.integers(0, 100, n),
                                                  rng.integers(0, 200, n))}
        ratings = make_ratings([(u, i, 1.0) for u, i in sorted(pairs)])
        assert binarize_ratings(ratings).nnz == len(pairs)


class TestSubsample:
    def test_identity_at_full_fraction(self):
        ratings = make_ratings([(0, 0, 1), (0, 1, 2), (1, 0, 3)])
        out = subsample_ratings(ratings, 1.0, seed=7)
        assert sorted(zip(out.users, out.items, out.ratings)) == \
            sorted(zip(ratings.users, ratings.items, ratings.ratings))

    def test_cardinality(self):
        n = 630_000
        users = np.arange(n, dtype=np.int64) % 1000
        items = np.arange(n, dtype=np.int64) // 1000
        from cofactor.corpus import RatingDataset
        ratings = RatingDataset(users, items, np.ones(n), tuple(map(str, range(1000))),
                                tuple(map(str, range((n // 1000) + 1))))
        assert subsample_ratings(ratings, 0.5, seed=3).n_entries == 315_000

    def test_deterministic(self):
        ratings = make_ratings([(u, i, u + i + 1) for u in range(20) for i in range(20)])
        a = subsample_ratings(ratings, 0.3, seed=11)
        b = subsample_ratings(ratings, 0.3, seed=11)
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.ratings, b.ratings)

    def test_nested_across_fractions(self):
        ratings = make_ratings([(u, i, 1.0) for u in range(30) for i in range(30)])
        small = subsample_ratings(ratings, 0.2, seed=5)
        large = subsample_ratings(ratings, 0.7, seed=5)
        small_pairs = set(zip(small.users.tolist(), small.items.tolist()))
        assert small_pairs <= set(zip(large.users.tolist(), large.items.tolist()))

    def test_subsample_clicks_subset_property(self):
        ratings = make_ratings([(u, i, 1.0) for u in range(15) for i in range(10)])
        sub = subsample_ratings(ratings, 0.4, seed=2)
        assert binarize_ratings(sub).nnz == sub.n_entries
        sub_pairs = set(zip(binarize_ratings(sub).row_ids().tolist(),
                            binarize_ratings(sub).indices.tolist()))
        full_pairs = set(zip(binarize_ratings(ratings).row_ids().tolist(),
                             binarize_ratings(ratings).indices.tolist()))
        assert sub_pairs <= full_pairs

    def test_fraction_out_of_range(self):
        ratings = make_ratings([(0, 0, 1)])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                subsample_ratings(ratings, bad, seed=0)


def _dense_ratings(n_users, n_items, density, seed):
    rng = np.random.default_rng(seed)
    triples = [(u, i, float(rng.integers(1, 11)))
               for u in range(n_users) for i in range(n_items)
               if rng.random() < density]
    return make_ratings(triples, n_users, n_items)


class TestMakeSplit:
    def test_out_of_matrix_holds_out_items(self):
        ratings = _dense_ratings(12, 10, 0.8, seed=1)
        split = make_split(ratings, "out_of_matrix", 0.2, 0.1, seed=4)
        test_items = set(split.test.items.tolist())
        assert len(test_items) == 2
        train_val_items = set(split.train.items.tolist()) | set(split.validation.items.tolist())
        assert test_items.isdisjoint(train_val_items)

    def test_in_matrix_every_test_item_trained(self):
        ratings = _dense_ratings(30, 25, 0.3, seed=2)
        split = make_split(ratings, "in_matrix", 0.2, 0.1, seed=9)
        train_items = set(split.train.items.tolist())
        assert set(split.test.items.tolist()) <= train_items
        assert set(split.validation.items.tolist()) <= train_items

    def test_deterministic(self):
        ratings = _dense_ratings(20, 20, 0.4, seed=3)
        a = make_split(ratings, "in_matrix", 0.2, 0.1, seed=13)
        b = make_split(ratings, "in_matrix", 0.2, 0.1, seed=13)
        for part in ("train", "validation", "test"):
            assert np.array_equal(getattr(a, part).users, getattr(b, part).users)
            assert np.array_equal(getattr(a, part).items, getattr(b, part).items)

    @pytest.mark.parametrize("mode", ["in_matrix", "out_of_matrix"])
    def test_partition(self, mode):
        ratings = _dense_ratings(25, 20, 0.5, seed=5)
        split = make_split(ratings, mode, 0.2, 0.1, seed=21)
        parts = [split.train, split.validation, split.test]
        tagged = []
        for part in parts:
            tagged.extend(zip(part.users.tolist(), part.items.tolist(),
                              part.ratings.tolist()))
        full = list(zip(ratings.users.tolist(), ratings.items.tolist(),
                        ratings.ratings.tolist()))
        assert sorted(tagged) == sorted(full)
        seen = [set(zip(p.users.tolist(), p.items.tolist())) for p in parts]
        assert seen[0].isdisjoint(seen[1]) and seen[0].isdisjoint(seen[2]) \
            and seen[1].isdisjoint(seen[2])

    @pytest.mark.parametrize("mode", ["in_matrix", "out_of_matrix"])
    def test_matches_loop_reference(self, mode):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            ratings = _dense_ratings(int(rng.integers(15, 40)), int(rng.integers(10, 30)),
                                     float(rng.uniform(0.2, 0.6)), seed=100 + seed)
            split = make_split(ratings, mode, 0.2, 0.1, seed=seed)
            expected = split_reference(ratings.items.tolist(), ratings.n_items, mode,
                                       0.2, 0.1, seed)
            for part, idx in zip((split.train, split.validation, split.test), expected):
                assert np.array_equal(part.users, ratings.users[idx])
                assert np.array_equal(part.items, ratings.items[idx])
                assert np.array_equal(part.ratings, ratings.ratings[idx])

    def test_infeasible_split(self):
        ratings = make_ratings([(0, 0, 1), (1, 0, 2)])
        with pytest.raises(SplitError):
            make_split(ratings, "out_of_matrix", 0.2, 0.1, seed=0)

    @pytest.mark.parametrize("mode", ["in_matrix", "out_of_matrix"])
    def test_item_past_the_end_rejected(self, mode):
        # out_of_matrix used to end in an IndexError, in_matrix split it silently
        triples = [(u, i, 1.0 + (u + i) % 5) for u in range(10) for i in range(10)]
        with pytest.raises(ValidationError, match="'items' has an index outside"):
            make_split(make_ratings(triples, n_users=10, n_items=9), mode, 0.2, 0.1, seed=0)

    @pytest.mark.parametrize("fractions", [(float("nan"), 0.1), (0.2, float("nan")),
                                           (float("nan"), float("nan"))])
    def test_non_finite_fractions_rejected(self, fractions):
        # NaN passed the positivity checks and ended in a ValueError from int()
        ratings = _dense_ratings(10, 10, 0.5, seed=6)
        for mode in ("in_matrix", "out_of_matrix"):
            with pytest.raises(SplitError, match="finite and positive"):
                make_split(ratings, mode, *fractions, seed=0)

    def test_bad_fractions(self):
        ratings = _dense_ratings(10, 10, 0.5, seed=6)
        with pytest.raises(SplitError):
            make_split(ratings, "in_matrix", 0.0, 0.1, seed=0)
        with pytest.raises(SplitError):
            make_split(ratings, "in_matrix", 0.6, 0.5, seed=0)


class TestParseDocuments:
    def test_count_scheme_max_normalization(self):
        docs = parse_documents(io.StringIO("i1\ta a b\n"), 10, "count", {"i1": 0})
        assert docs.vocab == ("a", "b")
        assert docs.rows.toarray().tolist() == [[1.0, 0.5]]

    def test_out_of_vocab_document_is_zero_row(self):
        stream = io.StringIO("i1\tcommon common words words\ni2\trare\n")
        docs = parse_documents(stream, 2, "count", {"i1": 0, "i2": 1})
        assert set(docs.vocab) == {"common", "words"}
        assert docs.rows.toarray()[1].tolist() == [0.0, 0.0]

    def test_identical_documents_identical_rows(self):
        stream = io.StringIO("i1\tsame text here\ni2\tsame text here\n")
        docs = parse_documents(stream, 5, "tfidf", {"i1": 0, "i2": 1})
        dense = docs.rows.toarray()
        assert np.array_equal(dense[0], dense[1])

    def test_unknown_item_id(self):
        with pytest.raises(ValidationError, match="unknown item"):
            parse_documents(io.StringIO("i9\ttext\n"), 5, "count", {"i1": 0})

    def test_duplicate_document(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_documents(io.StringIO("i1\ta\ni1\tb\n"), 5, "count", {"i1": 0})

    @pytest.mark.parametrize("vocab_size", [0, -1])
    def test_vocab_size_below_one_rejected(self, vocab_size):
        # -1 would slice off the lowest-ranked term and keep the rest
        with pytest.raises(ValidationError, match="vocab_size"):
            parse_documents(io.StringIO("i1\ta b c\n"), vocab_size, "count", {"i1": 0})

    def test_empty_corpus(self):
        with pytest.raises(ValidationError, match="empty"):
            parse_documents(io.StringIO(""), 5, "count", {"i1": 0})

    def test_missing_document_line_gives_zero_row(self):
        docs = parse_documents(io.StringIO("i1\thello world\n"), 5, "count",
                               {"i1": 0, "i2": 1})
        assert docs.n_items == 2
        assert docs.rows.toarray()[1].sum() == 0.0

    def test_vocab_capped_and_values_in_unit_interval(self):
        lines = [f"i{k}\t" + " ".join(f"w{j}" for j in range(k + 1)) for k in range(6)]
        docs = parse_documents(io.StringIO("\n".join(lines) + "\n"), 3, "tfidf",
                               {f"i{k}": k for k in range(6)})
        assert docs.vocab_size == 3
        dense = docs.rows.toarray()
        assert dense.min() >= 0.0 and dense.max() <= 1.0

    def test_vocabulary_must_match_row_width(self):
        _, _, docs, _ = generate_synthetic(SyntheticConfig(n_users=5, n_items=8, n_factors=2,
                                                           vocab_size=6), seed=1)
        assert docs.rows.shape[1] == 6
        with pytest.raises(ValidationError, match="vocabulary of 3 terms does not match "
                                                  "document rows of 6 columns"):
            corpus.DocTermMatrix(vocab=docs.vocab[:3], rows=docs.rows)

    def test_punctuation_and_case_folding(self):
        docs = parse_documents(io.StringIO("i1\tHello, HELLO! world.\n"), 5,
                               "count", {"i1": 0})
        assert docs.vocab == ("hello", "world")
        assert docs.rows.toarray().tolist() == [[1.0, 0.5]]


def assert_rows_match_scipy_build(rows, rng) -> None:
    """`rows` equals, bit for bit, scipy's CSR of its own nonzero entries
    listed in shuffled order."""
    dense = rows.toarray()
    r, c = np.nonzero(dense)
    order = rng.permutation(len(r))
    assert_same_csr(rows, csr_reference(dense.shape, r[order], c[order], dense[r, c][order]))


class TestDocumentRowsMatchScipyBuild:
    def test_parsed_rows(self, rng):
        words = [f"t{k}" for k in range(30)]
        for scheme in ("tfidf", "count"):
            lines = [f"i{k}\t" + " ".join(rng.choice(words, int(rng.integers(0, 15))))
                     for k in range(40) if rng.random() < 0.8]
            docs = parse_documents(io.StringIO("\n".join(lines) + "\n"), 20, scheme,
                                   {f"i{k}": k for k in range(40)})
            assert docs.rows.nnz > 0
            assert_rows_match_scipy_build(docs.rows, rng)

    def test_synthetic_rows(self, rng):
        _, _, docs, _ = generate_synthetic(SyntheticConfig(n_users=5, n_items=30, n_factors=2,
                                                           vocab_size=25), seed=4)
        assert_rows_match_scipy_build(docs.rows, rng)


class TestGenerateSynthetic:
    def test_zero_noise_ratings_equal_factor_products(self):
        config = SyntheticConfig(n_users=15, n_items=12, n_factors=3,
                                 rating_density=0.5, sigma_rating=0.0,
                                 rating_offset=0.0)
        ratings, _, _, state = generate_synthetic(config, seed=5)
        products = np.einsum("ij,ij->i", state.user_factors[ratings.users],
                             state.item_factors[ratings.items])
        np.testing.assert_allclose(ratings.ratings, products, rtol=0, atol=1e-12)

    def test_deterministic_bitwise(self):
        config = SyntheticConfig(n_users=20, n_items=15, n_factors=4)
        a = generate_synthetic(config, seed=9)
        b = generate_synthetic(config, seed=9)
        assert np.array_equal(a[0].ratings, b[0].ratings)
        assert_same_csr(a[1], to_scipy(b[1]))
        assert (to_scipy(a[2].rows) != to_scipy(b[2].rows)).nnz == 0
        for w_a, w_b in zip(a[3].sdae.weights, b[3].sdae.weights):
            assert np.array_equal(w_a, w_b)

    def test_rating_count_within_three_sigma(self):
        config = SyntheticConfig(n_users=200, n_items=300, n_factors=16,
                                 rating_density=0.02)
        ratings, _, _, _ = generate_synthetic(config, seed=33)
        expected = 200 * 300 * 0.02
        sigma = np.sqrt(200 * 300 * 0.02 * 0.98)
        assert abs(ratings.n_entries - expected) <= 3 * sigma

    def test_click_pairs_unique_and_in_range(self):
        config = SyntheticConfig(n_users=30, n_items=20, n_factors=4,
                                 click_density=0.3)
        _, clicks, _, _ = generate_synthetic(config, seed=2)
        pairs = list(zip(clicks.row_ids().tolist(), clicks.indices.tolist()))
        assert len(pairs) == len(set(pairs))
        assert clicks.shape == (30, 20)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic(SyntheticConfig(n_users=0, n_items=5, n_factors=2), 0)
        with pytest.raises(ValidationError):
            generate_synthetic(
                SyntheticConfig(n_users=5, n_items=5, n_factors=2, rating_density=0.0), 0)
