import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cofactor.corpus import binarize_ratings, parse_clicks
from cofactor.errors import ValidationError
from cofactor.ppmi import build_ppmi
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
    # the counts behind the PPMI, read through its values: #(i), #(i,j) and |pairs|
    def test_hand_example(self):
        # u0 clicks {a, b}; u1 clicks {a, b, c}: #(a) = #(b) = 2, #(c) = 1,
        # #(a,b) = 2, #(a,c) = #(b,c) = 1 and 4 pairs, so every PMI is log 2
        clicks = make_clicks([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
        matrix = to_scipy(build_ppmi(clicks).matrix)
        assert matrix.nnz == 6  # both triangles, no diagonal
        assert (matrix != matrix.T).nnz == 0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert matrix[i, j] == pytest.approx(math.log(2), abs=1e-12)

    def test_single_click_users_produce_no_pairs(self):
        with pytest.raises(ValidationError, match="no co-click signal"):
            build_ppmi(make_clicks([(0, 0), (1, 1), (2, 2)]))
        # u0 clicks {a, b}, u1 clicks {c, d}: PMI(a, b) = log(1·2 / (1·1));
        # u2's lone click on a raises #(a) to 2 but adds no pair, so PMI(a, b) = 0
        base = [(0, 0), (0, 1), (1, 2), (1, 3)]
        assert to_scipy(build_ppmi(make_clicks(base)).matrix)[0, 1] == pytest.approx(
            math.log(2), abs=1e-12)
        matrix = to_scipy(build_ppmi(make_clicks(base + [(2, 0)])).matrix)
        assert matrix[0, 1] == 0 and matrix[2, 3] == pytest.approx(math.log(2), abs=1e-12)

    def test_duplicate_input_pairs_do_not_change_counts(self):
        # u0 clicks {a, b}, u1 clicks {c, d}; counting a repeated click would
        # change #(i), #(i,j) and |pairs|, and so every value
        base = make_clicks([(0, 0), (0, 1), (1, 2), (1, 3)])
        # user 0 clicks items 0 and 1 twice each, unsorted
        dup_log, _ = parse_clicks(io.StringIO("u0 i1\nu0 i0\nu1 i3\nu0 i1\nu1 i2\nu0 i0\n"),
                                  {"u0": 0, "u1": 1}, {f"i{i}": i for i in range(4)})
        # the same clicks from ratings holding the pair (0, 1) twice
        dup_ratings = binarize_ratings(make_ratings([(0, 1, 3), (0, 0, 2), (0, 1, 5),
                                                     (1, 2, 1), (1, 3, 4)]))
        want = to_scipy(build_ppmi(base).matrix)
        assert want.nnz == 4
        for dup in (dup_log, dup_ratings):
            assert_same_csr(build_ppmi(dup).matrix, want)

    def test_pair_count_bounded_by_item_counts(self, rng):
        # #(i,j) <= min(#(i), #(j)), so PMI(i, j) <= log(|pairs| / max(#(i), #(j)))
        for _ in range(30):
            clicks = random_clicks(rng)
            per_user = np.diff(clicks.indptr)
            total_pairs = int((per_user * (per_user - 1) // 2).sum())
            if total_pairs == 0:
                continue
            item_counts = np.bincount(clicks.indices, minlength=clicks.shape[1])
            coo = to_scipy(build_ppmi(clicks).matrix).tocoo()
            for i, j, value in zip(coo.row, coo.col, coo.data):
                bound = math.log(total_pairs / max(item_counts[i], item_counts[j]))
                assert value <= bound + 1e-12

    def test_monotone_in_added_co_clicker(self):
        # every item clicked twice and 4 pairs in both; a and b share one
        # clicker (PMI log 1 = 0, not stored) or two (PMI log 2)
        one = make_clicks([(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)])
        two = make_clicks([(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 2), (3, 3)])
        assert to_scipy(build_ppmi(one).matrix)[0, 1] == 0
        assert to_scipy(build_ppmi(two).matrix)[0, 1] == pytest.approx(math.log(2), abs=1e-12)


class TestBuildPpmi:
    def test_hand_example_values(self):
        clicks = make_clicks([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
        result = build_ppmi(clicks)
        dok = to_scipy(result.matrix).todok()
        assert dok[0, 1] == pytest.approx(math.log(2), abs=1e-12)
        assert dok[0, 2] == pytest.approx(math.log(2), abs=1e-12)
        assert dok[1, 2] == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_pmi_not_stored(self):
        # #(a) = #(b) = 2, #(a,b) = 1 and 4 pairs: 1 * 4 / (2 * 2) = 1, so
        # PMI(a, b) is exactly 0 and omitted, while the positive pairs stay
        clicks = make_clicks([(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 4), (3, 5)])
        dok = to_scipy(build_ppmi(clicks).matrix).todok()
        assert (0, 1) not in dok and (1, 0) not in dok
        assert sorted((i, j) for i, j in dok.keys() if i < j) == [(0, 2), (1, 3), (4, 5)]

    def test_never_co_clicked_absent(self):
        clicks = make_clicks([(0, 0), (0, 1), (1, 2), (1, 3)])
        result = build_ppmi(clicks)
        dok = to_scipy(result.matrix).todok()
        assert (0, 2) not in dok and (0, 3) not in dok

    def test_no_signal_error(self):
        clicks = make_clicks([(0, 0), (1, 1)])
        with pytest.raises(ValidationError, match="no co-click signal"):
            build_ppmi(clicks)

    def test_symmetric_positive_no_diagonal(self, rng):
        checked = 0
        for _ in range(40):
            clicks = random_clicks(rng)
            if np.diff(clicks.indptr).max() < 2:
                continue
            matrix = to_scipy(build_ppmi(clicks).matrix)
            assert (abs(matrix - matrix.T) > 0).nnz == 0
            assert (matrix.data > 0).all()
            assert matrix.diagonal().sum() == 0
            checked += 1
        assert checked > 20

    def test_matches_brute_force(self, rng):
        checked = 0
        for _ in range(60):
            clicks = random_clicks(rng)
            if np.diff(clicks.indptr).max() < 2:
                continue
            expected = brute_force_ppmi(clicks_to_user_sets(clicks))
            got = to_scipy(build_ppmi(clicks).matrix).todok()
            upper = {(i, j): v for (i, j), v in got.items() if i < j}
            assert set(upper) == set(expected)
            for key, value in expected.items():
                assert upper[key] == pytest.approx(value, abs=1e-12)
            checked += 1
        assert checked > 30


class TestBuildMemory:
    def test_peak_is_a_few_ppmi_copies(self):
        # the PPMI is built over both triangles of the product in place: no
        # mirrored triplets, no re-sort, no int64 key per entry and no
        # diagonal-free copy of the product
        clicks = from_scipy(sp.random(2000, 400, density=0.05, random_state=1, format="csr"))
        tracemalloc.start()
        try:
            matrix = build_ppmi(clicks).matrix
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
            counts = cooccurrence_reference(users, items, *clicks.shape)
            if counts[2] > 0:
                assert_same_csr(build_ppmi(clicks).matrix, ppmi_reference(*counts))
                n_ppmi += 1
            else:
                with pytest.raises(ValidationError, match="no co-click signal"):
                    build_ppmi(clicks)
        assert n_ppmi > 150

    @pytest.mark.parametrize("field, value", [("users", -1), ("users", 5), ("items", 4)])
    def test_click_index_outside_rejected(self, field, value):
        # the click matrix refuses the pair when it is built
        pair = (value, 1) if field == "users" else (0, value)
        with pytest.raises(ValidationError, match="index .*outside"):
            make_clicks([(0, 0), pair, (1, 0)], n_users=5, n_items=4)
