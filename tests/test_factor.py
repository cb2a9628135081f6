import dataclasses
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from cofactor.container import read_container, write_container
from cofactor.corpus import DocTermMatrix, RatingDataset, make_split
from cofactor.errors import TrainingDivergedError, ValidationError
from cofactor.factor import (BATCH_ENTRIES, MIN_BATCH_ROWS, Hyperparams, ModelState,
                             TrainData, _pair_residual_sq, _solve_rows, _solve_spd,
                             load_checkpoint, predict_ratings, run_label, save_checkpoint,
                             train)
from cofactor.ppmi import PpmiMatrix, build_ppmi
from cofactor.sdae import SdaeConfig, encode, init_params, stack_widths
from cofactor.sparse import CHUNK_ROWS, CsrMatrix, from_coo

from conftest import from_scipy, make_ratings, to_scipy
from oracles import (block_gradients, joint_loss_reference, pair_loss_reference,
                     pmf_als_reference, solve_rows_reference)
from worlds import SyntheticConfig, generate_synthetic

import scipy.sparse as sp


def random_instance(rng, n_users=6, n_items=8, k=3, with_anchor=True):
    """Random factors, ratings, symmetric pair values, and an anchor matrix."""
    theta = rng.standard_normal((n_users, k))
    beta = rng.standard_normal((n_items, k))
    alpha = rng.standard_normal((n_items, k))
    pairs = {(int(u), int(i)) for u, i in zip(rng.integers(0, n_users, 12),
                                              rng.integers(0, n_items, 12))}
    users = np.array([p[0] for p in sorted(pairs)], dtype=np.int64)
    items = np.array([p[1] for p in sorted(pairs)], dtype=np.int64)
    values = rng.standard_normal(len(users)) * 2.0
    upper = {(int(i), int(j)) for i, j in zip(rng.integers(0, n_items, 10),
                                              rng.integers(0, n_items, 10)) if i < j}
    s_rows, s_cols, s_values = [], [], []
    for i, j in sorted(upper):
        v = float(rng.random() + 0.05)
        s_rows += [i, j]
        s_cols += [j, i]
        s_values += [v, v]
    anchor = rng.standard_normal((n_items, k)) if with_anchor else np.zeros((n_items, k))
    lambdas = dict(lambda_s=float(rng.random() + 0.2),
                   lambda_user=float(rng.random() + 0.05),
                   lambda_item=float(rng.random() + 0.05),
                   lambda_context=float(rng.random() + 0.05))
    return (theta, beta, alpha, users, items, values,
            np.array(s_rows), np.array(s_cols), np.array(s_values), anchor, lambdas)


def solve_block(block, theta, beta, alpha, users, items, values, s_rows, s_cols,
                s_values, anchor, lambda_s, lambda_user, lambda_item, lambda_context):
    """Solve one whole factor block in place with _solve_rows, as train() does:
    the ratings and the ordered pairs (s_rows[e], s_cols[e]) are its CSR terms."""
    n_users, n_items = theta.shape[0], beta.shape[0]
    if block == "user":
        _solve_rows(theta, lambda_user,
                    [(1.0, from_coo((n_users, n_items), users, items, values), beta)])
    elif block == "item":
        _solve_rows(beta, lambda_item,
                    [(1.0, from_coo((n_items, n_users), items, users, values), theta),
                     (lambda_s, from_coo((n_items, n_items), s_rows, s_cols, s_values), alpha)],
                    anchor)
    else:
        _solve_rows(alpha, lambda_context,
                    [(lambda_s, from_coo((n_items, n_items), s_cols, s_rows, s_values), beta)])


def one_row(indices, values, n_cols) -> CsrMatrix:
    """A one-row CsrMatrix: `values` at the columns `indices`."""
    return from_coo((1, n_cols), np.zeros(len(indices), dtype=np.int64), indices, values)


def assert_block_stationary(rng, block):
    """After a block solve, the joint-loss gradient of every row of the block is zero."""
    for _ in range(20):
        theta, beta, alpha, users, items, values, sr, sc, sv, anchor, lam = random_instance(rng)
        solve_block(block, theta, beta, alpha, users, items, values, sr, sc, sv, anchor, **lam)
        grads = block_gradients(theta, beta, alpha, users, items, values,
                                sr, sc, sv, anchor, **lam)
        grad = grads[("user", "item", "context").index(block)]
        assert np.linalg.norm(grad, axis=1).max() <= 1e-8


class TestUpdateUser:
    """The user block: each user's ratings are the one term of _solve_rows."""

    def test_no_ratings_gives_zero(self):
        # user 1 rates nothing
        theta = np.full((2, 3), 7.0)
        ratings = from_coo((2, 4), [0], [1], [2.0])
        _solve_rows(theta, 0.5, [(1.0, ratings, np.ones((4, 3)))])
        np.testing.assert_array_equal(theta[1], np.zeros(3))
        assert (theta[0] != 0).all()

    def test_scalar_closed_form(self):
        # one rating r=4 on an item with factor 2, ridge 1 -> 8 / 5
        out = np.empty((1, 1))
        _solve_rows(out, 1.0, [(1.0, one_row([0], [4.0], 1), np.array([[2.0]]))])
        assert out[0, 0] == pytest.approx(1.6, abs=1e-12)

    def test_stationary_point(self, rng):
        assert_block_stationary(rng, "user")


class TestUpdateItemFeature:
    """The item-feature block: raters, weighted co-click neighbours and the anchor."""

    def test_isolated_item_collapses_to_anchor(self, rng):
        # item 1 has no rater and no neighbour
        anchor = rng.standard_normal((2, 3))
        beta = np.empty((2, 3))
        _solve_rows(beta, 2.5, [(1.0, from_coo((2, 2), [0], [1], [3.0]), np.ones((2, 3))),
                                (1.0, from_coo((2, 4), [0], [2], [0.5]), np.ones((4, 3)))],
                    anchor)
        np.testing.assert_allclose(beta[1], anchor[1], atol=1e-12)

    def test_reduces_to_plain_ridge_without_clicks_or_text(self, rng):
        # without clicks or text, train() passes the raters alone and no anchor
        theta = rng.standard_normal((5, 3))
        raters = np.array([0, 2, 4])
        values = rng.standard_normal(3)
        out = np.empty((1, 3))
        _solve_rows(out, 0.3, [(1.0, one_row(raters, values, 5), theta)])
        basis = theta[raters]
        expected = np.linalg.solve(basis.T @ basis + 0.3 * np.eye(3), basis.T @ values)
        np.testing.assert_allclose(out[0], expected, atol=1e-10)

    def test_matches_stacked_ridge_solver(self, rng):
        # stack rating rows, sqrt(lambda_s)-scaled context rows, and the
        # sqrt(lambda_item)-scaled identity into one least-squares system
        k = 3
        theta = rng.standard_normal((2, k))
        alpha = rng.standard_normal((2, k))
        r_values = rng.standard_normal(2)
        s_values = rng.random(2) + 0.1
        anchor = rng.standard_normal(k)
        lam_s, lam_b = 0.7, 0.4
        out = np.empty((1, k))
        _solve_rows(out, lam_b, [(1.0, one_row([0, 1], r_values, 2), theta),
                                 (lam_s, one_row([0, 1], s_values, 2), alpha)],
                    anchor[None])
        design = np.vstack([theta, math.sqrt(lam_s) * alpha,
                            math.sqrt(lam_b) * np.eye(k)])
        target = np.concatenate([r_values, math.sqrt(lam_s) * s_values,
                                 math.sqrt(lam_b) * anchor])
        expected, *_ = np.linalg.lstsq(design, target, rcond=None)
        np.testing.assert_allclose(out[0], expected, atol=1e-10)

    def test_stationary_point(self, rng):
        assert_block_stationary(rng, "item")

    def test_singular_system_rejected(self):
        out = np.empty((1, 3))
        with pytest.raises(ValidationError, match="singular"):
            _solve_rows(out, 0.0, [(1.0, one_row([], [], 2), np.zeros((2, 3)))])

    def test_non_finite_system_not_reported_singular(self):
        # a non-finite Gram goes on as a non-finite result for the loss check
        gram = np.array([[1.0, np.inf], [np.inf, 1.0]])
        out = _solve_spd(gram, np.ones(2))
        assert not np.isfinite(out).any()
        out = np.empty((1, 2))
        _solve_rows(out, 0.5, [(1.0, one_row([0], [np.nan], 1), np.ones((1, 2)))])
        assert not np.isfinite(out).any()


class TestUpdateItemContext:
    """The item-context block: weighted co-click neighbours alone."""

    def test_no_neighbors_gives_zero(self):
        # item 1 has no neighbour
        alpha = np.full((2, 2), 7.0)
        _solve_rows(alpha, 0.5, [(1.0, from_coo((2, 3), [0], [2], [1.0]), np.ones((3, 2)))])
        np.testing.assert_array_equal(alpha[1], np.zeros(2))

    def test_scalar_closed_form(self):
        # one neighbor with factor 1, value ln 2, weights 1 -> ln2 / 2
        out = np.empty((1, 1))
        _solve_rows(out, 1.0, [(1.0, one_row([0], [math.log(2.0)], 1), np.array([[1.0]]))])
        assert out[0, 0] == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_stationary_point(self, rng):
        assert_block_stationary(rng, "context")


def random_csr(rng, n_rows, n_cols, density) -> CsrMatrix:
    """CsrMatrix with empty rows and stored exact zeros."""
    mask = rng.random((n_rows, n_cols)) < density
    mask[rng.random(n_rows) < 0.2] = False
    rows, cols = np.nonzero(mask)
    values = rng.standard_normal(len(rows))
    values[rng.random(len(rows)) < 0.1] = 0.0
    return CsrMatrix((n_rows, n_cols), np.searchsorted(rows, np.arange(n_rows + 1)),
                     cols, values)


def csr_with_row_lengths(rng, lengths, n_cols) -> CsrMatrix:
    """CsrMatrix whose row r holds lengths[r] distinct random columns."""
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    cols = [np.sort(rng.choice(n_cols, length, replace=False)) for length in lengths]
    return CsrMatrix((len(lengths), n_cols), indptr, np.concatenate(cols),
                     rng.standard_normal(indptr[-1]))


def dense_ridge_rows(ridge, terms, anchor, n_rows, k):
    """Reference for _solve_rows from dense masks: one np.linalg.solve per row."""
    gram = np.repeat(ridge * np.eye(k)[None], n_rows, axis=0)
    rhs = np.zeros((n_rows, k)) if anchor is None else ridge * anchor
    for weight, matrix, basis in terms:
        rows = matrix.row_ids()
        mask = np.zeros((n_rows, basis.shape[0]))
        mask[rows, matrix.indices] = 1.0
        dense = np.zeros((n_rows, basis.shape[0]))
        dense[rows, matrix.indices] = matrix.data
        gram += weight * np.einsum("rj,jk,jl->rkl", mask, basis, basis)
        rhs += weight * dense @ basis
    return np.array([np.linalg.solve(g, b) for g, b in zip(gram, rhs)])


def assert_same_as_per_row_sums(ridge, terms, anchor, n_rows, k):
    """_solve_rows equals, bit for bit, the per-row accumulation it replaced;
    both are solved by _solve_spd, so only the assembly of the systems differs."""
    got, want = np.empty((n_rows, k)), np.empty((n_rows, k))
    _solve_rows(got, ridge, terms, anchor)
    solve_rows_reference(want, ridge, terms, anchor, _solve_spd, CHUNK_ROWS)
    assert np.array_equal(got, want)


# n_factors of the benchmark workloads
BENCH_K = 32


class TestSolveRows:
    """The batched block solver against a dense reference that solves each row alone."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("block", ["user", "item", "context"])
    def test_matches_per_row_updates(self, rng, k, block):
        n_rows = CHUNK_ROWS + 37  # crosses a chunk boundary
        n_other = 40
        theta = rng.standard_normal((n_other, k))
        alpha = rng.standard_normal((n_rows, k))
        anchor = rng.standard_normal((n_rows, k))
        ratings = random_csr(rng, n_rows, n_other, 0.1)
        pairs = random_csr(rng, n_rows, n_rows, 0.03)
        lam_s, ridge = 0.7, 0.4
        if block == "user":
            terms, row_anchor = [(1.0, ratings, theta)], None
        elif block == "item":
            terms, row_anchor = [(1.0, ratings, theta), (lam_s, pairs, alpha)], anchor
        else:
            terms, row_anchor = [(lam_s, pairs, alpha)], None
        got = np.empty((n_rows, k))
        _solve_rows(got, ridge, terms, row_anchor)
        reference = dense_ridge_rows(ridge, terms, row_anchor, n_rows, k)
        scale = np.abs(reference).max()
        np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-10 * scale)

    def test_lone_rank_deficient_system_in_stack_rejected(self, rng):
        # K=3, no ridge: rows with 4 neighbors are full rank, row 2 has one
        basis = rng.standard_normal((6, 3))
        indices = np.array([0, 1, 2, 3, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0, 1, 3, 5])
        indptr = np.array([0, 4, 8, 9, 13, 17])
        values = rng.standard_normal(len(indices))
        out = np.empty((5, 3))
        with pytest.raises(ValidationError, match="singular"):
            _solve_rows(out, 0.0, [(1.0, CsrMatrix((5, 6), indptr, indices, values), basis)])
        grams = np.repeat(np.eye(3)[None], 4, axis=0)
        grams[2] = np.outer(basis[0], basis[0])
        with pytest.raises(ValidationError, match="singular"):
            _solve_spd(grams, np.ones((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_comes_back_nan(self, rng, bad):
        grams = np.stack([np.eye(3) * (r + 1) for r in range(4)])
        rhs = rng.standard_normal((4, 3))
        grams[1, 0, 2] = grams[1, 2, 0] = bad
        out = _solve_spd(grams, rhs)
        assert np.isnan(out[1]).all()
        keep = [0, 2, 3]
        np.testing.assert_allclose(out[keep], rhs[keep] / np.array([1.0, 3.0, 4.0])[:, None],
                                   rtol=1e-15)
        values = np.array([1.0, bad, 2.0])
        out = np.empty((3, 2))
        with np.errstate(invalid="ignore"):  # inf * 0.0 in the right-hand side
            _solve_rows(out, 0.5, [(1.0, CsrMatrix((3, 2), np.array([0, 1, 2, 3]),
                                                   np.array([0, 1, 0]), values), np.eye(2))])
        assert np.isnan(out[1]).all() and np.isfinite(out[[0, 2]]).all()

    @pytest.mark.parametrize("with_anchor", [False, True])
    def test_one_term_of_weight_one_is_bit_identical(self, rng, with_anchor):
        n_rows = CHUNK_ROWS + 37
        anchor = rng.standard_normal((n_rows, BENCH_K)) if with_anchor else None
        terms = [(1.0, random_csr(rng, n_rows, 90, 0.3), rng.standard_normal((90, BENCH_K)))]
        assert_same_as_per_row_sums(0.4, terms, anchor, n_rows, BENCH_K)

    def test_rows_empty_in_one_term_only(self, rng):
        # items with co-click neighbours but no ratings, and items with ratings only
        n_rows, n_users = CHUNK_ROWS + 37, 70
        ratings = random_csr(rng, n_rows, n_users, 0.4)
        pairs = random_csr(rng, n_rows, n_rows, 0.15)
        rated, paired = np.diff(ratings.indptr) > 0, np.diff(pairs.indptr) > 0
        assert (rated & ~paired).any() and (paired & ~rated).any()
        terms = [(1.0, ratings, rng.standard_normal((n_users, BENCH_K))),
                 (0.7, pairs, rng.standard_normal((n_rows, BENCH_K)))]
        assert_same_as_per_row_sums(0.4, terms, rng.standard_normal((n_rows, BENCH_K)),
                                    n_rows, BENCH_K)

    @pytest.mark.parametrize("weight", [0.7, 3.0])
    def test_one_term_of_other_weight(self, rng, weight):
        n_rows = CHUNK_ROWS + 37
        terms = [(weight, random_csr(rng, n_rows, n_rows, 0.2),
                  rng.standard_normal((n_rows, BENCH_K)))]
        assert_same_as_per_row_sums(0.1, terms, None, n_rows, BENCH_K)

    def test_equal_length_rows_in_batches_across_the_cap_and_chunks(self, rng):
        # a handful of lengths, each more rows per chunk than one batch takes
        lengths = [2, 5, 40, 150]
        n_rows = 2 * CHUNK_ROWS + 37
        matrix = csr_with_row_lengths(rng, rng.choice(lengths, n_rows), 300)
        first = np.diff(matrix.indptr[:CHUNK_ROWS + 1])
        for length in lengths:
            assert (first == length).sum() > BATCH_ENTRIES // max(length, BENCH_K)
        terms = [(1.0, matrix, rng.standard_normal((300, BENCH_K))),
                 (0.7, random_csr(rng, n_rows, 90, 0.2), rng.standard_normal((90, BENCH_K)))]
        assert_same_as_per_row_sums(0.4, terms, rng.standard_normal((n_rows, BENCH_K)),
                                    n_rows, BENCH_K)

    def test_long_rows_beside_short_ones_and_empty_rows_between_equal_ones(self, rng):
        # rows too long to share a batch, of one length and of distinct lengths,
        # among short rows of one length and empty rows; the second chunk's empty
        # rows sit in stack slots that the first chunk's rows filled
        longest_shared = BATCH_ENTRIES // MIN_BATCH_ROWS
        n_rows = CHUNK_ROWS + 37
        lengths = np.where(np.arange(n_rows) % 3 == 0, 0, 6)
        lengths[1::9] = longest_shared + 1
        lengths[2::27] = BATCH_ENTRIES + 1 + np.arange(len(lengths[2::27]))
        matrix = csr_with_row_lengths(rng, lengths, 2 * BATCH_ENTRIES)
        terms = [(1.0, matrix, rng.standard_normal((2 * BATCH_ENTRIES, BENCH_K)))]
        assert_same_as_per_row_sums(0.4, terms, None, n_rows, BENCH_K)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_row_makes_exactly_its_rows_nan(self, rng, bad):
        # every row has 3 entries, so whole chunks share batches; some touch column 0
        n_rows = CHUNK_ROWS + 37
        matrix = csr_with_row_lengths(rng, np.full(n_rows, 3), 12)
        basis = rng.standard_normal((12, BENCH_K))
        basis[0] = bad
        touched = np.zeros(n_rows, dtype=bool)
        touched[matrix.row_ids()[matrix.indices == 0]] = True
        assert 0 < touched.sum() < n_rows
        got, want = np.empty((n_rows, BENCH_K)), np.empty((n_rows, BENCH_K))
        with np.errstate(invalid="ignore"):  # inf * 0.0 and inf − inf in the Grams
            _solve_rows(got, 0.4, [(1.0, matrix, basis)])
            solve_rows_reference(want, 0.4, [(1.0, matrix, basis)], None, _solve_spd,
                                 CHUNK_ROWS)
        assert np.isnan(got[touched]).all() and np.isfinite(got[~touched]).all()
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("case", ["one term", "two terms"])
    def test_residuals_match_direct_sums(self, rng, case):
        # more than one chunk, stored zeros and, with two terms, rows empty in one term only
        n_rows, n_users = CHUNK_ROWS + 37, 70
        ratings = random_csr(rng, n_rows, n_users, 0.4)
        assert (ratings.data == 0.0).any()
        terms, anchor = [(1.0, ratings, rng.standard_normal((n_users, BENCH_K)))], None
        if case == "two terms":
            pairs = random_csr(rng, n_rows, n_rows, 0.15)
            rated, paired = np.diff(ratings.indptr) > 0, np.diff(pairs.indptr) > 0
            assert (rated & ~paired).any() and (paired & ~rated).any()
            terms.append((0.7, pairs, rng.standard_normal((n_rows, BENCH_K))))
            anchor = rng.standard_normal((n_rows, BENCH_K))
        out = np.empty((n_rows, BENCH_K))
        residuals = _solve_rows(out, 0.4, terms, anchor)
        assert len(residuals) == len(terms)
        for got, (weight, matrix, basis) in zip(residuals, terms):
            resid = matrix.data - np.einsum("ij,ij->i", out[matrix.row_ids()],
                                            basis[matrix.indices])
            want = weight * float(resid @ resid)
            assert abs(got - want) <= 1e-12 * weight * float(matrix.data @ matrix.data)


class TestSolveSpd:
    """The solve from the Cholesky factor against numpy's LU solve."""

    @staticmethod
    def assert_matches_lu(grams, rhs):
        want = np.linalg.solve(grams, rhs[..., None])[..., 0]
        got = _solve_spd(grams, rhs)
        assert got.shape == rhs.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)

    @pytest.mark.parametrize("k", [1, 3, 32])
    def test_matches_numpy_solve_on_a_stack(self, rng, k):
        factors = rng.standard_normal((CHUNK_ROWS + 5, 3 * k, k))
        grams = factors.transpose(0, 2, 1) @ factors + np.eye(k)
        self.assert_matches_lu(grams, rng.standard_normal((CHUNK_ROWS + 5, k)))

    def test_single_system(self, rng):
        factor = rng.standard_normal((9, 4))
        self.assert_matches_lu(factor.T @ factor + 0.5 * np.eye(4), rng.standard_normal(4))

    def test_empty_stack(self):
        assert _solve_spd(np.empty((0, 5, 5)), np.empty((0, 5))).shape == (0, 5)


class TestTotalLoss:
    """The joint loss around block solutions, by the per-entry reference."""

    def test_block_updates_never_increase_reference_loss(self, rng):
        # random perturbations around each block solution stay worse
        for _ in range(10):
            theta, beta, alpha, users, items, values, sr, sc, sv, anchor, lam = \
                random_instance(rng)
            solve_block("user", theta, beta, alpha, users, items, values, sr, sc, sv,
                        anchor, **lam)
            u = int(rng.integers(0, theta.shape[0]))
            base = joint_loss_reference(theta, beta, alpha, users, items, values,
                                        sr, sc, sv, anchor, **lam)
            for _ in range(20):
                probe = theta.copy()
                probe[u] += 1e-3 * rng.standard_normal(theta.shape[1])
                loss = joint_loss_reference(probe, beta, alpha, users, items, values,
                                            sr, sc, sv, anchor, **lam)
                assert loss >= base - 1e-12


def random_symmetric_ppmi(rng, n_items, density):
    """Symmetric CSR with the given off-diagonal density, about a tenth of the
    items without any entry, and some stored exact zeros."""
    upper = np.triu(rng.random((n_items, n_items)) < density, k=1)
    lonely = rng.random(n_items) < 0.1
    upper[lonely] = False
    upper[:, lonely] = False
    rows, cols = np.nonzero(upper)
    values = rng.random(len(rows)) + 0.05
    values[rng.random(len(rows)) < 0.05] = 0.0
    matrix = sp.csr_matrix((np.concatenate([values, values]),
                            (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                           shape=(n_items, n_items))
    return PpmiMatrix(matrix=from_scipy(matrix))


class TestPairTerm:
    """The row-chunked pair term, which train() evaluates once for the start
    state, against the per-entry gather."""

    @pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
    def test_matches_gather_reference(self, rng, density):
        n_items, k = CHUNK_ROWS + 37, 5  # crosses a chunk boundary
        ppmi = random_symmetric_ppmi(rng, n_items, density)
        assert (ppmi.matrix.data == 0.0).any()
        assert (np.diff(ppmi.matrix.indptr) == 0).any()
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        got = _pair_residual_sq(ppmi.matrix, beta, alpha)
        assert got == pytest.approx(pair_loss_reference(ppmi.matrix, beta, alpha), rel=1e-12)

    def test_empty_chunks_contribute_nothing(self, rng):
        n_items, k = CHUNK_ROWS + 37, 3
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        empty = PpmiMatrix(from_scipy(sp.csr_matrix((n_items, n_items))))
        assert _pair_residual_sq(empty.matrix, beta, alpha) == 0.0
        # entries only between items of the second chunk
        tail = random_symmetric_ppmi(rng, 37, 0.5).matrix
        matrix = from_scipy(sp.block_diag([sp.csr_matrix((CHUNK_ROWS, CHUNK_ROWS)),
                                           to_scipy(tail)], format="csr"))
        got = _pair_residual_sq(matrix, beta, alpha)
        want = pair_loss_reference(tail, beta[CHUNK_ROWS:], alpha[CHUNK_ROWS:])
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_ppmi", [5, 3])
    def test_wrong_size_ppmi_rejected(self, n_ppmi):
        data = synthetic_train_data(n_items=4, with_text=False, with_clicks=False)
        ppmi = PpmiMatrix(from_scipy(np.ones((n_ppmi, n_ppmi)) - np.eye(n_ppmi)))
        hyper = Hyperparams(n_factors=2, lambda_s=1.0, sdae=None, max_epochs=1)
        with pytest.raises(ValidationError, match=rf"\({n_ppmi}, {n_ppmi}\).* 4 items"):
            train(dataclasses.replace(data, ppmi=ppmi), hyper)

    def test_memory_is_a_chunk_not_a_gather(self, rng):
        n_items, k = 600, 16
        ppmi = PpmiMatrix(from_scipy(np.ones((n_items, n_items)) - np.eye(n_items)))
        assert ppmi.matrix.nnz == 359_400  # 0.998 dense
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        gathered_copy = ppmi.matrix.nnz * k * 8
        tracemalloc.start()
        try:
            _pair_residual_sq(ppmi.matrix, beta, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gathered_copy / 4, f"peak {peak / 1e6:.1f} MB"


class TestRatingGatherMemory:
    """θ_u·β_i over the ratings is gathered a chunk of entries at a time: when
    the ratings double, the extra peak grows by the one output vector only,
    not by two gathered n_entries × K copies."""

    N_USERS, N_ITEMS, K, VOCAB = 500, 300, 16, 20

    def world(self, rng):
        theta = rng.standard_normal((self.N_USERS, self.K))
        beta = rng.standard_normal((self.N_ITEMS, self.K))
        docs = DocTermMatrix(tuple(f"t{j}" for j in range(self.VOCAB)), from_scipy(
            sp.random(self.N_ITEMS, self.VOCAB, density=0.3, random_state=1, format="csr")))
        sdae = init_params(stack_widths(self.VOCAB, [], self.K), rng)
        return ModelState(theta, beta, np.zeros_like(beta), sdae, rating_offset=0.5), docs

    def ratings(self, rng, n_entries):
        return RatingDataset(rng.integers(0, self.N_USERS, n_entries),
                             rng.integers(0, self.N_ITEMS, n_entries),
                             rng.standard_normal(n_entries),
                             tuple(map(str, range(self.N_USERS))),
                             tuple(map(str, range(self.N_ITEMS))))

    @staticmethod
    def extra_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("call", ["in_matrix", "out_of_matrix"])
    def test_peak_grows_by_one_vector_when_ratings_double(self, rng, call):
        state, docs = self.world(rng)
        peaks = []
        for n_entries in (40_000, 80_000):
            ratings = self.ratings(rng, n_entries)
            peaks.append(self.extra_peak(lambda: predict_ratings(state, ratings, call, docs)))
        # 8 bytes per added entry for the output; 16 leaves room for scratch,
        # and the whole gathers would add 2·K·8 = 256
        assert peaks[1] - peaks[0] < 16 * 40_000, peaks


def synthetic_train_data(seed=7, n_users=40, n_items=30, k=3, density=0.25,
                         with_text=True, with_clicks=True):
    config = SyntheticConfig(n_users=n_users, n_items=n_items, n_factors=k,
                             vocab_size=12, rating_density=density,
                             click_density=0.25, rating_offset=4.0,
                             encoder_hidden=(6,))
    ratings, clicks, docs, _ = generate_synthetic(config, seed=seed)
    split = make_split(ratings, "in_matrix", 0.2, 0.1, seed=seed)
    ppmi = build_ppmi(clicks) if with_clicks else None
    return TrainData(split=split, ppmi=ppmi, docs=docs if with_text else None)


class TestTrain:
    def test_loss_non_increasing_across_blocks(self):
        data = synthetic_train_data()
        sdae = SdaeConfig(hidden_widths=[6], pretrain_epochs=5)
        hyper = Hyperparams(n_factors=3, lambda_s=0.5, lambda_user=0.05,
                            lambda_item=1.0, lambda_context=0.05,
                            lambda_recon=1.0, lambda_decay=1e-4, sdae=sdae,
                            max_epochs=6, patience=0, seed=3)
        _, trace = train(data, hyper)
        assert len(trace.epochs) == 6
        for e in trace.epochs:
            assert e.loss_after_items <= e.loss_after_users + 1e-9
            assert e.loss_after_contexts <= e.loss_after_items + 1e-9

    def test_pmf_degenerate_matches_reference(self):
        data = synthetic_train_data(with_text=False, with_clicks=False)
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, lambda_user=0.1,
                            lambda_item=0.2, lambda_context=0.01, sdae=None,
                            max_epochs=6, patience=0, seed=11)
        state, trace = train(data, hyper)
        tr = data.split.train
        val = data.split.validation
        losses, val_rmses, theta_ref, beta_ref = pmf_als_reference(
            tr.users, tr.items, tr.ratings, tr.n_users, tr.n_items, 3,
            lambda_user=0.1, lambda_item=0.2, seed=11, n_epochs=6,
            val_users=val.users, val_items=val.items, val_values=val.ratings)
        for epoch_stats, ref_loss, ref_rmse in zip(trace.epochs, losses, val_rmses):
            assert epoch_stats.loss_epoch_end == pytest.approx(ref_loss, abs=1e-8)
            assert epoch_stats.validation_rmse == pytest.approx(ref_rmse, abs=1e-8)
        # returned state is from the best-validation epoch; rerun the reference there
        _, _, theta_ref, beta_ref = pmf_als_reference(
            tr.users, tr.items, tr.ratings, tr.n_users, tr.n_items, 3,
            lambda_user=0.1, lambda_item=0.2, seed=11, n_epochs=trace.best_epoch,
            val_users=val.users, val_items=val.items, val_values=val.ratings)
        np.testing.assert_allclose(state.user_factors, theta_ref, atol=1e-8)
        np.testing.assert_allclose(state.item_factors, beta_ref, atol=1e-8)
        assert run_label(hyper) == "pmf-degenerate"

    def test_returns_best_validation_state(self):
        data = synthetic_train_data()
        hyper = Hyperparams(n_factors=3, lambda_s=0.2, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=10, patience=2, seed=9)
        state, trace = train(data, hyper)
        best = min(trace.epochs, key=lambda e: e.validation_rmse)
        assert trace.best_epoch == best.epoch
        assert state.epoch == best.epoch
        assert trace.best_validation_rmse == best.validation_rmse

    def test_early_stopping_respects_patience(self):
        # weak regularization on sparse data overfits fast, forcing a stop
        data = synthetic_train_data(density=0.12, k=6)
        hyper = Hyperparams(n_factors=6, lambda_s=0.0, lambda_user=1e-4,
                            lambda_item=1e-4, lambda_context=0.05, sdae=None,
                            max_epochs=60, patience=2, seed=9)
        _, trace = train(data, hyper)
        stopped_at = len(trace.epochs)
        assert stopped_at < 60
        assert trace.best_epoch == stopped_at - 2
        tail = trace.epochs[-2:]
        assert all(e.validation_rmse >= trace.best_validation_rmse for e in tail)

    def test_divergence_reports_epoch(self):
        data = synthetic_train_data(with_text=False, with_clicks=False)
        tr = data.split.train
        poisoned = tr.replace_entries(tr.users, tr.items,
                                      np.where(np.arange(tr.n_entries) == 0,
                                               np.nan, tr.ratings))
        data = TrainData(split=dataclasses.replace(data.split, train=poisoned),
                         ppmi=None, docs=None)
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, sdae=None, max_epochs=3,
                            seed=1)
        with pytest.raises(TrainingDivergedError) as err:
            train(data, hyper)
        assert err.value.epoch == 1 and err.value.term == "rating"

    def test_repeated_rating_pair_rejected(self):
        # parse_ratings refuses a repeated (user, item) pair, but a hand-edited
        # ratings.bin can hold one; training on both copies would weigh it twice
        data = synthetic_train_data(with_text=False, with_clicks=False)
        tr = data.split.train
        k = int(np.flatnonzero(tr.users != tr.items)[0])
        repeated = tr.replace_entries(np.append(tr.users, tr.users[k]),
                                      np.append(tr.items, tr.items[k]),
                                      np.append(tr.ratings, 1.0))
        data = TrainData(split=dataclasses.replace(data.split, train=repeated))
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, sdae=None, max_epochs=1, seed=1)
        # the row names the user, so the error comes from the ratings grouped by user
        with pytest.raises(ValidationError,
                           match=rf"'indices' repeats a column .* in row {tr.users[k]}$"):
            train(data, hyper)

    def test_blow_up_reported_as_divergence_not_singular(self):
        # ratings of 1e60: every ridge is positive, so each block system is
        # positive definite, but the Gram entries swamp the ridge in float64
        rng = np.random.default_rng(0)
        ratings = make_ratings([(u, int(i), float(rng.integers(1, 6)) * 1e60)
                                for u in range(50) for i in rng.choice(40, 10, replace=False)])
        data = TrainData(split=make_split(ratings, "in_matrix", 0.2, 0.1, seed=0))
        hyper = Hyperparams(n_factors=64, lambda_s=0.0, lambda_user=0.01, sdae=None,
                            max_epochs=3, seed=0)
        with pytest.raises(TrainingDivergedError, match="too large to factor") as err:
            train(data, hyper)
        assert err.value.epoch == 1 and err.value.term in ("user", "item", "context")
        assert str(err.value).startswith(f"diverged at epoch 1: the {err.value.term} block")

    def test_zero_item_ridge_still_reported_singular(self):
        # lambda_item = 0 leaves an item with fewer ratings than K a singular system
        ratings = make_ratings([(u, i, 1.0 + (u + i) % 5) for u in range(12)
                                for i in range(8) if (u + i) % 3 or i == 7])
        data = TrainData(split=make_split(ratings, "in_matrix", 0.2, 0.1, seed=0))
        hyper = Hyperparams(n_factors=12, lambda_s=0.0, lambda_item=0.0, sdae=None,
                            max_epochs=2, seed=0)
        with pytest.raises(ValidationError, match="singular"):
            train(data, hyper)

    def test_centering_round_trip(self):
        data = synthetic_train_data()
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=4, patience=0, seed=4, center_ratings=True)
        state, _ = train(data, hyper)
        assert state.rating_offset == pytest.approx(data.split.train.ratings.mean())

    @pytest.mark.parametrize("text", [True, False])
    def test_trace_losses_equal_from_scratch_losses(self, monkeypatch, text):
        # train() reads the rating and pair terms off its block solves; each
        # traced loss must still equal the joint loss evaluated per entry, at
        # the state after each block and after the autoencoder step
        import cofactor.factor as factor
        live, forward, moments = [], [], []

        def capture_state(*args):
            live.append(ModelState(*args))
            return live[-1]

        def snapshot():
            state = live[0]     # the state train() solves in place; later ones are copies
            moments.append((state.user_factors.copy(), state.item_factors.copy(),
                            state.context_factors.copy(), *(forward[-1] if text else (0, 0)),
                            state.sdae.squared_norm() if text else 0.0))

        def spy(original, before=False):
            def call(*args, **kwargs):
                if before:
                    snapshot()
                result = original(*args, **kwargs)
                if not before:
                    snapshot()
                return result
            return call

        def spy_forward(params, x0, xc, *rest, **kwargs):
            result = sdae_pass(params, x0, xc, *rest, **kwargs)
            if not rest:        # a forward pass, not the gradient pass
                forward.append((result[0].copy(), result[1]))
            return result

        sdae_pass = factor.sdae_pass
        monkeypatch.setattr(factor, "ModelState", capture_state)
        monkeypatch.setattr(factor, "sdae_pass", spy_forward)
        monkeypatch.setattr(factor, "_solve_rows", spy(factor._solve_rows))
        monkeypatch.setattr(factor, "predict_ratings", spy(factor.predict_ratings, before=True))
        data = synthetic_train_data(with_text=text, with_clicks=text)
        sdae = SdaeConfig(hidden_widths=[6], pretrain_epochs=3,
                          learning_rate=0.5) if text else None
        lambdas = dict(lambda_s=0.5 if text else 0.0, lambda_user=0.05, lambda_item=1.0,
                       lambda_context=0.05)
        hyper = Hyperparams(n_factors=3, lambda_recon=1.0, lambda_decay=1e-4, sdae=sdae,
                            max_epochs=4, patience=0, seed=3, **lambdas)
        _, trace = train(data, hyper)
        traced = [loss for e in trace.epochs
                  for loss in (e.loss_after_users, e.loss_after_items,
                               e.loss_after_contexts, e.loss_epoch_end)]
        # per epoch: after the user, item and (with clicks) context solves, and
        # at validation, which follows the autoencoder step
        assert len(traced) == 16 and len(moments) == (16 if text else 12)
        if not text:    # no context block or step: those losses read the validated state
            moments = [m for e in range(4)
                       for m in moments[3 * e:3 * e + 3] + [moments[3 * e + 2]]]
        tr = data.split.train
        pairs = to_scipy(data.ppmi.matrix).tocoo() if text else sp.coo_matrix((30, 30))
        for got, (theta, beta, alpha, encoding, recon_sq, decay_sq) in zip(traced, moments):
            anchor = encoding if text else np.zeros_like(beta)
            want = (joint_loss_reference(theta, beta, alpha, tr.users, tr.items, tr.ratings,
                                         pairs.row, pairs.col, pairs.data, anchor, **lambdas)
                    + 0.5 * hyper.lambda_recon * recon_sq + 0.5 * hyper.lambda_decay * decay_sq)
            assert got == pytest.approx(want, rel=1e-9)

    def test_pair_term_evaluated_directly_once_per_run(self, monkeypatch):
        # the blocks report every later pair term; only the start state's is evaluated
        import cofactor.factor as factor
        calls = []
        original = factor._pair_residual_sq
        monkeypatch.setattr(factor, "_pair_residual_sq",
                            lambda *args: calls.append(args) or original(*args))
        data = synthetic_train_data(with_text=False)
        hyper = Hyperparams(n_factors=3, lambda_s=0.5, sdae=None, max_epochs=4, patience=0,
                            seed=3)
        _, trace = train(data, hyper)
        assert len(trace.epochs) == 4 and len(calls) == 1

    def test_click_term_without_ppmi_rejected(self):
        # used to train plain PMF, bit for bit the lambda_s 0 run, labelled "joint"
        data = synthetic_train_data(with_text=False, with_clicks=False)
        hyper = Hyperparams(n_factors=3, lambda_s=5.0, sdae=None, max_epochs=2, seed=0)
        with pytest.raises(ValidationError, match="lambda_s"):
            train(data, hyper)

    def test_out_of_matrix_requires_text(self):
        config = SyntheticConfig(n_users=30, n_items=25, n_factors=3,
                                 rating_density=0.4, rating_offset=4.0)
        ratings, _, _, _ = generate_synthetic(config, seed=2)
        split = make_split(ratings, "out_of_matrix", 0.2, 0.1, seed=2)
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, sdae=None, max_epochs=2, seed=0)
        with pytest.raises(ValidationError, match="text model"):
            train(TrainData(split=split), hyper)


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        data = synthetic_train_data()
        sdae = SdaeConfig(hidden_widths=[6], pretrain_epochs=2)
        hyper = Hyperparams(n_factors=3, lambda_s=0.3, sdae=sdae, max_epochs=2,
                            patience=0, seed=6, lambda_user=0.05,
                            lambda_context=0.05)
        state, trace = train(data, hyper)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, hyper,
                        user_ids=data.split.train.user_ids,
                        item_ids=data.split.train.item_ids,
                        vocab=data.docs.vocab, config_fingerprint="abc123",
                        best_validation_rmse=trace.best_validation_rmse)
        loaded, hyper2, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.user_factors, state.user_factors)
        np.testing.assert_array_equal(loaded.item_factors, state.item_factors)
        np.testing.assert_array_equal(loaded.context_factors, state.context_factors)
        for a, b in zip(loaded.sdae.weights, state.sdae.weights):
            np.testing.assert_array_equal(a, b)
        assert hyper2 == hyper
        assert meta["config_fingerprint"] == "abc123"
        assert loaded.epoch == state.epoch

    def test_same_content_same_bytes(self, tmp_path, rng):
        state = ModelState(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)),
                           rng.standard_normal((4, 2)), None, epoch=5)
        hyper = Hyperparams(n_factors=2, sdae=None)
        for name in ("a.bin", "b.bin"):
            save_checkpoint(tmp_path / name, state, hyper,
                            user_ids=("u1", "u2", "u3"),
                            item_ids=("i1", "i2", "i3", "i4"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_version_and_shape_validation(self, tmp_path, rng):
        state = ModelState(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                           rng.standard_normal((2, 2)), None)
        hyper = Hyperparams(n_factors=2, sdae=None)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, hyper, user_ids=("a", "b"), item_ids=("c", "d"))
        blob = path.read_bytes()
        corrupted = blob.replace(b'"format_version":1', b'"format_version":9')
        bad = tmp_path / "bad.bin"
        bad.write_bytes(corrupted)
        from cofactor.errors import CheckpointError
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field, value", [("seed", -1), ("lambda_user", -1.0),
                                              ("n_factors", 2.5), ("max_epochs", 2.5),
                                              ("sdae", 5), ("sdae", "x"), ("sdae", [])])
    def test_unusable_hyperparameter_names_the_file(self, tmp_path, rng, field, value):
        from cofactor.errors import CheckpointError
        state = ModelState(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                           rng.standard_normal((2, 2)), None)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, Hyperparams(n_factors=2, sdae=None),
                        user_ids=("a", "b"), item_ids=("c", "d"))
        meta, arrays = read_container(path)
        write_container(path, {**meta, "hyper": {**meta["hyper"], field: value}}, arrays)
        with pytest.raises(CheckpointError, match=f"{path}: bad hyperparameters: .*{field}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden", [5, ["a"], [0]])
    def test_unusable_hidden_widths_name_the_file(self, tmp_path, rng, hidden):
        # the loader reads the autoencoder's layer count from them
        from cofactor.errors import CheckpointError
        state = ModelState(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                           rng.standard_normal((2, 2)), init_params(stack_widths(3, [], 2), rng))
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, Hyperparams(n_factors=2, sdae=SdaeConfig([])),
                        user_ids=("a", "b"), item_ids=("c", "d"))
        meta, arrays = read_container(path)
        hyper = {**meta["hyper"], "sdae": {**meta["hyper"]["sdae"], "hidden_widths": hidden}}
        write_container(path, {**meta, "hyper": hyper}, arrays)
        with pytest.raises(CheckpointError,
                           match=f"{re.escape(str(path))}: bad hyperparameters: hidden_widths"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["user", "item"])
    def test_id_count_must_match_factor_rows(self, tmp_path, rng, kind):
        # 5 user ids for 30 factor rows used to load, and eval scored the model
        from cofactor.errors import CheckpointError
        state = ModelState(rng.standard_normal((30, 2)), rng.standard_normal((20, 2)),
                           rng.standard_normal((20, 2)), None)
        ids = {"user_ids": tuple(f"u{k}" for k in range(30)),
               "item_ids": tuple(f"i{k}" for k in range(20))}
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, Hyperparams(n_factors=2, sdae=None), **ids)
        meta, arrays = read_container(path)
        write_container(path, {**meta, f"{kind}_ids": meta[f"{kind}_ids"][:5]}, arrays)
        rows = 30 if kind == "user" else 20
        with pytest.raises(CheckpointError,
                           match=f"{re.escape(str(path))}: 5 {kind} ids for {rows} {kind}"):
            load_checkpoint(path)

    def test_manifest_stores_no_size(self, tmp_path, rng):
        # the container header records every array's shape
        sdae = init_params(stack_widths(7, [4], 2), rng)
        state = ModelState(rng.standard_normal((3, 2)), rng.standard_normal((5, 2)),
                           rng.standard_normal((5, 2)), sdae)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, Hyperparams(n_factors=2, sdae=SdaeConfig([4])),
                        user_ids=("a", "b", "c"), item_ids=tuple("vwxyz"))
        assert sorted(read_container(path)[0]) == [
            "best_validation_rmse", "config_fingerprint", "epoch", "format_version",
            "hyper", "item_ids", "rating_offset", "split", "user_ids", "vocab"]
        loaded = load_checkpoint(path)[0]
        assert [w.shape for w in loaded.sdae.weights] == [(7, 4), (4, 2), (2, 4), (4, 7)]

    SAVE_REFUSALS = {
        "too_few_user_ids": (dict(user_ids=("a", "b")), "2 user ids for 3 user factor rows"),
        "too_many_item_ids": (dict(item_ids=tuple("uvwxyz")), "6 item ids for 5 item"),
        "wrong_k": (dict(hyper=Hyperparams(n_factors=3, sdae=None)), "factor shapes"),
        "context_rows": (dict(context_rows=4), "factor shapes"),
        "autoencoder_without_hyper_sdae": (dict(sdae=[4]), "exactly when hyper.sdae"),
        "hyper_sdae_without_autoencoder": (
            dict(hyper=Hyperparams(n_factors=2, sdae=SdaeConfig([4]))), "exactly when"),
        "layers_of_other_hidden_widths": (
            dict(sdae=[4], hyper=Hyperparams(n_factors=2, sdae=SdaeConfig([3]))),
            "autoencoder layer shapes"),
    }

    @pytest.mark.parametrize("case", sorted(SAVE_REFUSALS))
    def test_save_refuses_what_load_refuses(self, tmp_path, rng, case):
        # save_checkpoint used to write files that load_checkpoint refuses
        from cofactor.errors import CheckpointError
        edits, message = self.SAVE_REFUSALS[case]
        n_context = edits.get("context_rows", 5)
        sdae = init_params(stack_widths(7, edits["sdae"], 2), rng) if "sdae" in edits else None
        state = ModelState(rng.standard_normal((3, 2)), rng.standard_normal((5, 2)),
                           rng.standard_normal((n_context, 2)), sdae)
        path = tmp_path / "model.bin"
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: .*{message}"):
            save_checkpoint(path, state, edits.get("hyper", Hyperparams(n_factors=2, sdae=None)),
                            user_ids=edits.get("user_ids", ("a", "b", "c")),
                            item_ids=edits.get("item_ids", tuple("vwxyz")))
        assert not path.exists()

    @pytest.mark.parametrize("layer, shape", [(1, (4, 3)), (3, (4, 6)), (0, (0, 4))])
    def test_autoencoder_layer_that_does_not_fit_names_the_file(self, tmp_path, rng,
                                                                 layer, shape):
        from cofactor.errors import CheckpointError
        state = ModelState(rng.standard_normal((3, 2)), rng.standard_normal((5, 2)),
                           rng.standard_normal((5, 2)), init_params(stack_widths(7, [4], 2), rng))
        path = tmp_path / "model.bin"
        save_checkpoint(path, state, Hyperparams(n_factors=2, sdae=SdaeConfig([4])),
                        user_ids=("a", "b", "c"), item_ids=tuple("vwxyz"))
        meta, arrays = read_container(path)
        write_container(path, meta, {**arrays, f"sdae_w_{layer}": np.zeros(shape)})
        with pytest.raises(CheckpointError,
                           match=f"{re.escape(str(path))}: autoencoder layer shapes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_refused_at_save(self, tmp_path, rng, bad):
        # load_checkpoint refuses such a file, so save_checkpoint must not write one
        from cofactor.errors import CheckpointError
        state = ModelState(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                           rng.standard_normal((2, 2)), None)
        state.item_factors[1, 0] = bad
        path = tmp_path / "model.bin"
        with pytest.raises(CheckpointError, match="'item_factors'"):
            save_checkpoint(path, state, Hyperparams(n_factors=2, sdae=None),
                            user_ids=("a", "b"), item_ids=("c", "d"))
        assert not path.exists()


class TestContainer:
    ARRAYS = {"f8": np.arange(6.0).reshape(2, 3),
              "f4_strided": np.arange(8.0, dtype=np.float32)[::2],
              "i4": np.arange(5, dtype=np.int32),
              "u2_2d": np.arange(6, dtype=np.uint16).reshape(3, 2),
              "empty": np.zeros((0, 4))}

    def test_layout_is_header_then_each_array_in_order(self, tmp_path):
        # magic, header length, sorted compact JSON header, then the arrays'
        # little-endian bytes back to back: the format every earlier file has
        path = tmp_path / "c.bin"
        write_container(path, {"b": 1, "a": [2]}, self.ARRAYS)
        payloads = [np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8")
                    for a in self.ARRAYS.values()]
        offsets = np.cumsum([0] + [p.nbytes for p in payloads])
        header = json.dumps({"meta": {"b": 1, "a": [2]}, "arrays": {
            name: {"offset": int(offset), "shape": list(p.shape), "dtype": p.dtype.str}
            for name, p, offset in zip(self.ARRAYS, payloads, offsets)}},
            sort_keys=True, separators=(",", ":")).encode()
        assert path.read_bytes() == (b"COFACTR1" + struct.pack("<Q", len(header)) + header
                                     + b"".join(p.tobytes() for p in payloads))
        meta, arrays = read_container(path)
        assert meta == {"b": 1, "a": [2]}
        for name, p in zip(self.ARRAYS, payloads):
            assert arrays[name].dtype == p.dtype and np.array_equal(arrays[name], p), name

    @pytest.mark.parametrize("shape", [[-1], [2, -3]])
    def test_negative_shape_refused(self, tmp_path, shape):
        # numpy reads a -1 dimension as "whatever is left", which would read
        # the bytes of the arrays after this one
        from cofactor.errors import CheckpointError
        path = tmp_path / "c.bin"
        write_container(path, {}, self.ARRAYS)
        meta, arrays = read_container(path)
        blob = path.read_bytes()
        start = 16 + struct.unpack_from("<Q", blob, 8)[0]
        header = json.loads(blob[16:start])
        header["arrays"]["f8"]["shape"] = shape
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[start:])
        with pytest.raises(CheckpointError, match="truncated or corrupt .*'f8'"):
            read_container(path)

    def test_arrays_entry_not_an_object_refused(self, tmp_path):
        from cofactor.errors import CheckpointError
        path = tmp_path / "c.bin"
        raw = json.dumps({"meta": {}, "arrays": ["x"]}).encode()
        path.write_bytes(b"COFACTR1" + struct.pack("<Q", len(raw)) + raw)
        with pytest.raises(CheckpointError, match="c.bin: truncated or corrupt container"):
            read_container(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_manifest_number_refused(self, tmp_path, value):
        from cofactor.errors import CheckpointError
        path = tmp_path / "c.bin"
        with pytest.raises(CheckpointError, match="c.bin: the manifest holds a non-finite"):
            write_container(path, {"offset": value}, self.ARRAYS)
        assert not path.exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_header_refused(self, tmp_path, constant):
        # Python's json reads these three words, which JSON does not define
        from cofactor.errors import CheckpointError
        path = tmp_path / "c.bin"
        write_container(path, {"offset": 1234567.5}, self.ARRAYS)
        path.write_bytes(path.read_bytes().replace(b"1234567.5", constant.encode().ljust(9)))
        with pytest.raises(CheckpointError, match=f"c.bin: .*holds {constant}"):
            read_container(path)


class TestScaling:
    def test_epoch_time_scales_linearly_with_size(self):
        """Two disjoint copies of the same world double every input size
        (users, items, ratings, stored pairs) exactly; epoch time should at
        most double, with 2.6x headroom for scheduler noise."""
        import time

        config = SyntheticConfig(n_users=400, n_items=600, n_factors=16,
                                 vocab_size=10, rating_density=40.0 / 600,
                                 click_density=30.0 / 600, sigma_rating=0.3,
                                 rating_offset=0.0, encoder_hidden=(4,))
        ratings, clicks, _, _ = generate_synthetic(config, seed=3)
        ppmi_small = build_ppmi(clicks)

        from cofactor.corpus import RatingDataset
        n, m = ratings.n_users, ratings.n_items
        doubled = RatingDataset(
            np.concatenate([ratings.users, ratings.users + n]),
            np.concatenate([ratings.items, ratings.items + m]),
            np.concatenate([ratings.ratings, ratings.ratings]),
            ratings.user_ids + tuple(f"{u}~2" for u in ratings.user_ids),
            ratings.item_ids + tuple(f"{i}~2" for i in ratings.item_ids))
        ppmi_big = PpmiMatrix(from_scipy(sp.block_diag([to_scipy(ppmi_small.matrix)] * 2,
                                                       format="csr")))

        hyper = Hyperparams(n_factors=16, lambda_s=0.2, lambda_user=0.1,
                            lambda_item=0.1, lambda_context=0.1, sdae=None,
                            max_epochs=2, patience=0, seed=3)
        runs = [TrainData(split=make_split(ds, "in_matrix", 0.2, 0.08, seed=3), ppmi=pm)
                for ds, pm in ((ratings, ppmi_small), (doubled, ppmi_big))]
        # the sizes take turns, so a burst of machine load slows both alike
        best = [float("inf")] * len(runs)
        for _ in range(3):
            for k, data in enumerate(runs):
                start = time.perf_counter()
                train(data, hyper)
                best[k] = min(best[k], time.perf_counter() - start)
        small, large = best
        assert large / small <= 2.6, f"doubling ratio {large / small:.2f}"


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Hyperparams(n_factors=0)
        with pytest.raises(ValidationError):
            Hyperparams(lambda_user=0.0)
        with pytest.raises(ValidationError):
            Hyperparams(lambda_s=-1.0)
        for name in ("lambda_s", "lambda_user", "lambda_item", "lambda_context",
                     "lambda_recon", "lambda_decay"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValidationError, match=name):
                    Hyperparams(**{name: bad})
        # each of these used to end in a raw TypeError inside train()
        for name, bad in (("n_factors", 2.5), ("n_factors", True), ("max_epochs", 2.5),
                          ("patience", 1.5), ("seed", 1.5)):
            with pytest.raises(ValidationError, match=f"{name} must be an integer"):
                Hyperparams(**{name: bad})

    def test_negative_seed_rejected(self):
        # it would otherwise reach np.random.default_rng inside train()
        with pytest.raises(ValidationError, match="seed"):
            Hyperparams(seed=-1)

    def test_checked_again_when_replaced(self):
        with pytest.raises(ValidationError, match="lambda_s"):
            dataclasses.replace(Hyperparams(), lambda_s=-1.0)

    def test_scaling_consistency(self):
        # lambda ratios are what the updates see: scaling every variance by c
        # leaves each lambda = sigma_R^2 / sigma_x^2 unchanged
        sigmas = dict(rating=0.5, user=1.0, item=2.0, context=0.7, s=1.5)
        lam = {k: sigmas["rating"] ** 2 / v ** 2 for k, v in sigmas.items() if k != "rating"}
        scaled = {k: (2.0 * sigmas["rating"]) ** 2 / (2.0 * v) ** 2
                  for k, v in sigmas.items() if k != "rating"}
        assert lam == pytest.approx(scaled, rel=1e-15)


class TestSdaeLearningRate:
    def test_halves_exactly_when_the_step_raised_the_loss(self):
        # a rate large enough that some gradient steps overshoot
        sdae = SdaeConfig(hidden_widths=[6], pretrain_epochs=2,
                          learning_rate=20.0)
        hyper = Hyperparams(n_factors=3, lambda_s=0.5, lambda_user=0.05,
                            lambda_item=1.0, lambda_context=0.05,
                            lambda_recon=1.0, lambda_decay=1e-4, sdae=sdae,
                            max_epochs=10, patience=0, seed=3)
        _, trace = train(synthetic_train_data(), hyper)
        assert len(trace.epochs) == 10
        rates = [sdae.learning_rate] + [e.sdae_lr for e in trace.epochs]
        raised = [e.loss_epoch_end > e.loss_after_contexts for e in trace.epochs]
        assert any(raised) and not all(raised)
        for before, after, halve in zip(rates, rates[1:], raised):
            assert after == (0.5 * before if halve else before)
