import io

import numpy as np
import pytest

from cofactor.corpus import (SyntheticConfig, binarize_ratings,
                             generate_synthetic, make_split, parse_clicks,
                             parse_documents, parse_ratings, subsample_ratings)
from cofactor.errors import ParseError, SplitError, ValidationError

from conftest import assert_same_csr, make_ratings, to_scipy
from oracles import csr_reference, split_reference


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


class TestParseClicks:
    def test_unknown_ids_dropped(self):
        clicks, dropped = parse_clicks(io.StringIO("u1 i1\nu9 i1\nu1 i9\n"),
                                       {"u1": 0}, {"i1": 0})
        assert clicks.n_entries == 1
        assert dropped == 2

    def test_duplicates_collapse(self):
        clicks, _ = parse_clicks(io.StringIO("u1 i1\nu1 i1\n"), {"u1": 0}, {"i1": 0})
        assert clicks.n_entries == 1


class TestBinarize:
    def test_empty(self):
        clicks = binarize_ratings(make_ratings([]))
        assert clicks.n_entries == 0

    def test_definition(self):
        ratings = make_ratings([(0, 0, 4), (1, 2, 9)])
        clicks = binarize_ratings(ratings)
        assert set(zip(clicks.users.tolist(), clicks.items.tolist())) == {(0, 0), (1, 2)}

    def test_cardinality_preserved(self, rng):
        n = 3000
        pairs = {(int(u), int(i)) for u, i in zip(rng.integers(0, 100, n),
                                                  rng.integers(0, 200, n))}
        ratings = make_ratings([(u, i, 1.0) for u, i in sorted(pairs)])
        assert binarize_ratings(ratings).n_entries == len(pairs)


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
        ratings = RatingDataset(1000, (n // 1000) + 1, users, items,
                                np.ones(n), tuple(map(str, range(1000))),
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
        assert binarize_ratings(sub).users.shape[0] == sub.n_entries
        sub_pairs = set(zip(binarize_ratings(sub).users.tolist(),
                            binarize_ratings(sub).items.tolist()))
        full_pairs = set(zip(binarize_ratings(ratings).users.tolist(),
                             binarize_ratings(ratings).items.tolist()))
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
        assert np.array_equal(a[1].users, b[1].users)
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
        pairs = list(zip(clicks.users.tolist(), clicks.items.tolist()))
        assert len(pairs) == len(set(pairs))
        assert clicks.users.max() < 30 and clicks.items.max() < 20

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic(SyntheticConfig(n_users=0, n_items=5, n_factors=2), 0)
        with pytest.raises(ValidationError):
            generate_synthetic(
                SyntheticConfig(n_users=5, n_items=5, n_factors=2, rating_density=0.0), 0)
