import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cofactor.corpus import binarize_ratings, parse_clicks
from cofactor.errors import ValidationError
from cofactor.ppmi import CoCounts, build_ppmi, cooccurrence_counts
from cofactor.sparse import CsrMatrix

from conftest import assert_same_csr, from_scipy, make_clicks, make_ratings, to_scipy
from oracles import brute_force_ppmi, cooccurrence_reference, ppmi_reference


def random_clicks(rng, max_users=10, max_items=10):
    n_users = int(rng.integers(1, max_users + 1))
    n_items = int(rng.integers(2, max_items + 1))
    pairs = set()
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < 0.4:
                pairs.add((u, i))
    return make_clicks(sorted(pairs), n_users, n_items)


def clicks_to_user_sets(clicks: CsrMatrix) -> list[set[int]]:
    sets = [set() for _ in range(clicks.shape[0])]
    for u, i in zip(clicks.row_ids().tolist(), clicks.indices.tolist()):
        sets[u].add(i)
    return sets


class TestCooccurrenceCounts:
    def test_hand_example(self):
        # u0 clicks {a, b}; u1 clicks {a, b, c}
        clicks = make_clicks([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
        counts = cooccurrence_counts(clicks)
        assert counts.item_counts.tolist() == [2, 2, 1]
        assert counts.total_pairs == 4
        pairs = to_scipy(counts.pair_counts).todok()
        assert pairs[0, 1] == 2
        assert pairs[0, 2] == 1
        assert pairs[1, 2] == 1
        assert (to_scipy(counts.pair_counts) != to_scipy(counts.pair_counts).T).nnz == 0
        assert counts.pair_counts.nnz == 6  # both triangles, no diagonal

    def test_single_click_users_produce_no_pairs(self):
        clicks = make_clicks([(0, 0), (1, 1), (2, 2)])
        counts = cooccurrence_counts(clicks)
        assert counts.pair_counts.nnz == 0
        assert counts.total_pairs == 0

    def test_duplicate_input_pairs_do_not_change_counts(self):
        base = make_clicks([(0, 0), (0, 1), (1, 0)])
        # user 0 clicks items 0 and 1 twice each, unsorted
        dup_log, _ = parse_clicks(io.StringIO("u0 i1\nu0 i0\nu0 i1\nu1 i0\nu0 i0\n"),
                                  {"u0": 0, "u1": 1}, {"i0": 0, "i1": 1})
        # the same clicks from ratings holding the pair (0, 1) twice
        dup_ratings = binarize_ratings(make_ratings([(0, 1, 3), (0, 0, 2), (0, 1, 5),
                                                     (1, 0, 1)]))
        a = cooccurrence_counts(base)
        for dup in (dup_log, dup_ratings):
            b = cooccurrence_counts(dup)
            assert a.item_counts.tolist() == b.item_counts.tolist()
            assert a.total_pairs == b.total_pairs
            assert (to_scipy(a.pair_counts) != to_scipy(b.pair_counts)).nnz == 0

    def test_pair_count_bounded_by_item_counts(self, rng):
        for _ in range(30):
            counts = cooccurrence_counts(random_clicks(rng))
            coo = to_scipy(counts.pair_counts).tocoo()
            for i, j, c in zip(coo.row, coo.col, coo.data):
                assert c <= min(counts.item_counts[i], counts.item_counts[j])

    def test_monotone_in_added_co_clicker(self):
        base = make_clicks([(0, 0), (0, 1), (1, 0)], n_users=3, n_items=2)
        more = make_clicks([(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)],
                           n_users=3, n_items=2)
        c_base = to_scipy(cooccurrence_counts(base).pair_counts).todok()[0, 1]
        c_more = to_scipy(cooccurrence_counts(more).pair_counts).todok()[0, 1]
        assert c_more >= c_base


class TestBuildPpmi:
    def test_hand_example_values(self):
        clicks = make_clicks([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
        result = build_ppmi(cooccurrence_counts(clicks))
        dok = to_scipy(result.matrix).todok()
        assert dok[0, 1] == pytest.approx(math.log(2), abs=1e-12)
        assert dok[0, 2] == pytest.approx(math.log(2), abs=1e-12)
        assert dok[1, 2] == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_pmi_not_stored(self):
        # 1 * 4 / (2 * 2) = 1 -> PMI exactly 0 -> omitted
        pair = from_scipy(np.array([[0, 1], [1, 0]], dtype=np.int64))
        counts = CoCounts(item_counts=np.array([2, 2]),
                          pair_counts=pair, total_pairs=4)
        assert build_ppmi(counts).matrix.nnz == 0

    @pytest.mark.parametrize("pairs, stored", [
        ([[0, 3, 1], [0, 0, 2], [0, 0, 0]], "3 entries above the diagonal, 0 below it and 0 on it"),
        ([[0, 0, 0], [3, 0, 0], [1, 2, 0]], "0 entries above the diagonal, 3 below it and 0 on it"),
        ([[1, 3, 1], [3, 0, 2], [1, 2, 0]], "3 entries above the diagonal, 3 below it and 1 on it"),
        ([[0, 3, 1], [3, 0, 0], [1, 2, 0]], "2 entries above the diagonal, 3 below it and 0 on it"),
    ])
    def test_pair_counts_not_symmetric_off_diagonal_rejected(self, pairs, stored):
        # one triangle, an entry on the diagonal, or a triangle's entry missing
        # from the other one is refused, not silently read as a PPMI
        counts = CoCounts(item_counts=np.array([4, 4, 4]),
                          pair_counts=from_scipy(np.array(pairs, dtype=np.int64)),
                          total_pairs=12)
        with pytest.raises(ValidationError, match=f"symmetric .*; they store {stored}$"):
            build_ppmi(counts)

    def test_never_co_clicked_absent(self):
        clicks = make_clicks([(0, 0), (0, 1), (1, 2), (1, 3)])
        result = build_ppmi(cooccurrence_counts(clicks))
        dok = to_scipy(result.matrix).todok()
        assert (0, 2) not in dok and (0, 3) not in dok

    def test_no_signal_error(self):
        clicks = make_clicks([(0, 0), (1, 1)])
        with pytest.raises(ValidationError, match="no co-click signal"):
            build_ppmi(cooccurrence_counts(clicks))

    def test_symmetric_positive_no_diagonal(self, rng):
        for _ in range(40):
            clicks = random_clicks(rng)
            counts = cooccurrence_counts(clicks)
            if counts.total_pairs == 0:
                continue
            matrix = to_scipy(build_ppmi(counts).matrix)
            assert (abs(matrix - matrix.T) > 0).nnz == 0
            assert (matrix.data > 0).all()
            assert matrix.diagonal().sum() == 0

    def test_matches_brute_force(self, rng):
        checked = 0
        for _ in range(60):
            clicks = random_clicks(rng)
            counts = cooccurrence_counts(clicks)
            if counts.total_pairs == 0:
                continue
            expected = brute_force_ppmi(clicks_to_user_sets(clicks))
            got = to_scipy(build_ppmi(counts).matrix).todok()
            upper = {(i, j): v for (i, j), v in got.items() if i < j}
            assert set(upper) == set(expected)
            for key, value in expected.items():
                assert upper[key] == pytest.approx(value, abs=1e-12)
            checked += 1
        assert checked > 30


class TestBuildMemory:
    def test_peak_is_a_few_ppmi_copies(self):
        # the counts and the PPMI are built over both triangles in place: no
        # mirrored triplets, no re-sort and no int64 key per entry
        clicks = from_scipy(sp.random(2000, 400, density=0.05, random_state=1, format="csr"))
        tracemalloc.start()
        try:
            matrix = build_ppmi(cooccurrence_counts(clicks)).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ppmi_bytes = matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
        assert matrix.nnz > 100_000
        assert peak < 4 * ppmi_bytes, (peak, ppmi_bytes)


def messy_clicks(rng) -> tuple[CsrMatrix, np.ndarray, np.ndarray]:
    """A random click log parsed by `parse_clicks`, with its (user, item)
    index pairs in log order. The log is in no order and repeats clicks; user 0
    clicks once, user 1 never, and two items nobody clicked."""
    n_users, n_items = int(rng.integers(3, 40)), int(rng.integers(4, 50))
    n = int(rng.integers(0, 6 * n_users))
    users = rng.integers(2, n_users, n)
    items = rng.integers(0, n_items - 2, n)
    users = np.concatenate([users, [0], users[:n // 3]])
    items = np.concatenate([items, rng.integers(0, n_items - 2, 1), items[:n // 3]])
    log = "".join(f"u{u} i{i}\n" for u, i in zip(users, items))
    clicks, _ = parse_clicks(io.StringIO(log), {f"u{u}": u for u in range(n_users)},
                             {f"i{i}": i for i in range(n_items)})
    return clicks, users, items


class TestMatchesScipyOracle:
    def test_counts_and_ppmi_bit_identical(self, rng):
        n_ppmi = 0
        for _ in range(200):
            clicks, users, items = messy_clicks(rng)
            counts = cooccurrence_counts(clicks)
            item_counts, pair_counts, total_pairs = cooccurrence_reference(
                users, items, *clicks.shape)
            assert counts.item_counts.dtype == item_counts.dtype
            np.testing.assert_array_equal(counts.item_counts, item_counts)
            assert counts.total_pairs == total_pairs
            assert_same_csr(counts.pair_counts, pair_counts)
            if total_pairs > 0:
                assert_same_csr(build_ppmi(counts).matrix,
                                ppmi_reference(item_counts, pair_counts, total_pairs))
                n_ppmi += 1
        assert n_ppmi > 150

    @pytest.mark.parametrize("field, value", [("users", -1), ("users", 5), ("items", 4)])
    def test_click_index_outside_rejected(self, field, value):
        # the click matrix refuses the pair when it is built
        pair = (value, 1) if field == "users" else (0, value)
        with pytest.raises(ValidationError, match="index .*outside"):
            make_clicks([(0, 0), pair, (1, 0)], n_users=5, n_items=4)
