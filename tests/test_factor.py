import math
import tracemalloc

import numpy as np
import pytest

from cofactor.corpus import SyntheticConfig, generate_synthetic, make_split
from cofactor.errors import TrainingDivergedError, ValidationError
from cofactor.factor import (_CHUNK_ROWS, Hyperparams, ModelState,
                             NonFiniteLossError, TrainData, _solve_rows,
                             _solve_spd, load_checkpoint, run_label,
                             save_checkpoint, total_loss, train,
                             update_item_context, update_item_feature,
                             update_user)
from cofactor.ppmi import PpmiMatrix, build_ppmi, cooccurrence_counts
from cofactor.sdae import SdaeConfig, encode

from conftest import from_scipy, make_ratings, to_scipy
from oracles import (block_gradients, joint_loss_reference, pair_loss_reference,
                     pmf_als_reference)

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


class TestUpdateUser:
    def test_no_ratings_gives_zero(self):
        out = update_user(np.array([], dtype=np.int64), np.array([]),
                          np.zeros((4, 3)), lambda_user=0.5)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_scalar_closed_form(self):
        # one rating r=4 on an item with factor 2, ridge 1 -> 8 / 5
        out = update_user(np.array([0]), np.array([4.0]),
                          np.array([[2.0]]), lambda_user=1.0)
        assert out[0] == pytest.approx(1.6, abs=1e-12)

    def test_stationary_point(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            theta, beta, alpha, users, items, values, sr, sc, sv, anchor, lam = inst
            u = int(rng.integers(0, theta.shape[0]))
            mask = users == u
            theta = theta.copy()
            theta[u] = update_user(items[mask], values[mask], beta, lam["lambda_user"])
            g_theta, _, _ = block_gradients(theta, beta, alpha, users, items, values,
                                            sr, sc, sv, anchor, **lam)
            assert np.linalg.norm(g_theta[u]) <= 1e-8


class TestUpdateItemFeature:
    def test_isolated_item_collapses_to_anchor(self, rng):
        anchor = rng.standard_normal(3)
        out = update_item_feature(np.array([], dtype=np.int64), np.array([]),
                                  np.zeros((2, 3)), np.zeros((4, 3)),
                                  np.array([], dtype=np.int64), np.array([]),
                                  lambda_s=1.0, lambda_item=2.5, text_anchor=anchor)
        np.testing.assert_allclose(out, anchor, atol=1e-12)

    def test_reduces_to_plain_ridge_without_clicks_or_text(self, rng):
        theta = rng.standard_normal((5, 3))
        raters = np.array([0, 2, 4])
        values = rng.standard_normal(3)
        out = update_item_feature(raters, values, theta, np.zeros((6, 3)),
                                  np.array([], dtype=np.int64), np.array([]),
                                  lambda_s=0.0, lambda_item=0.3, text_anchor=None)
        basis = theta[raters]
        expected = np.linalg.solve(basis.T @ basis + 0.3 * np.eye(3), basis.T @ values)
        np.testing.assert_allclose(out, expected, atol=1e-10)

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
        out = update_item_feature(np.array([0, 1]), r_values, theta, alpha,
                                  np.array([0, 1]), s_values,
                                  lambda_s=lam_s, lambda_item=lam_b,
                                  text_anchor=anchor)
        design = np.vstack([theta, math.sqrt(lam_s) * alpha,
                            math.sqrt(lam_b) * np.eye(k)])
        target = np.concatenate([r_values, math.sqrt(lam_s) * s_values,
                                 math.sqrt(lam_b) * anchor])
        expected, *_ = np.linalg.lstsq(design, target, rcond=None)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_stationary_point(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            theta, beta, alpha, users, items, values, sr, sc, sv, anchor, lam = inst
            i = int(rng.integers(0, beta.shape[0]))
            mask = items == i
            s_mask = sr == i
            beta = beta.copy()
            beta[i] = update_item_feature(users[mask], values[mask], theta, alpha,
                                          sc[s_mask], sv[s_mask], lam["lambda_s"],
                                          lam["lambda_item"], anchor[i])
            _, g_beta, _ = block_gradients(theta, beta, alpha, users, items, values,
                                           sr, sc, sv, anchor, **lam)
            assert np.linalg.norm(g_beta[i]) <= 1e-8

    def test_singular_system_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            update_item_feature(np.array([], dtype=np.int64), np.array([]),
                                np.zeros((2, 3)), np.zeros((2, 3)),
                                np.array([], dtype=np.int64), np.array([]),
                                lambda_s=0.0, lambda_item=0.0, text_anchor=None)

    def test_non_finite_system_not_reported_singular(self):
        # a non-finite Gram goes on as a non-finite result for the loss check
        gram = np.array([[1.0, np.inf], [np.inf, 1.0]])
        out = _solve_spd(gram, np.ones(2))
        assert not np.isfinite(out).any()
        out = update_user(np.array([0]), np.array([np.nan]), np.ones((1, 2)), 0.5)
        assert not np.isfinite(out).any()


class TestUpdateItemContext:
    def test_no_neighbors_gives_zero(self):
        out = update_item_context(np.array([], dtype=np.int64), np.array([]),
                                  np.zeros((3, 2)), lambda_s=1.0, lambda_context=0.5)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_scalar_closed_form(self):
        # one neighbor with factor 1, value ln 2, weights 1 -> ln2 / 2
        out = update_item_context(np.array([0]), np.array([math.log(2.0)]),
                                  np.array([[1.0]]), lambda_s=1.0, lambda_context=1.0)
        assert out[0] == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_stationary_point(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            theta, beta, alpha, users, items, values, sr, sc, sv, anchor, lam = inst
            j = int(rng.integers(0, alpha.shape[0]))
            s_mask = sc == j
            alpha = alpha.copy()
            alpha[j] = update_item_context(sr[s_mask], sv[s_mask], beta,
                                           lam["lambda_s"], lam["lambda_context"])
            _, _, g_alpha = block_gradients(theta, beta, alpha, users, items, values,
                                            sr, sc, sv, anchor, **lam)
            assert np.linalg.norm(g_alpha[j]) <= 1e-8


def random_csr(rng, n_rows, n_cols, density):
    """CSR view (indptr, indices, values) with empty rows and stored exact zeros."""
    mask = rng.random((n_rows, n_cols)) < density
    mask[rng.random(n_rows) < 0.2] = False
    rows, cols = np.nonzero(mask)
    values = rng.standard_normal(len(rows))
    values[rng.random(len(rows)) < 0.1] = 0.0
    return np.searchsorted(rows, np.arange(n_rows + 1)), cols, values


def dense_ridge_rows(ridge, terms, anchor, n_rows, k):
    """Reference for _solve_rows from dense masks: one np.linalg.solve per row."""
    gram = np.repeat(ridge * np.eye(k)[None], n_rows, axis=0)
    rhs = np.zeros((n_rows, k)) if anchor is None else ridge * anchor
    for weight, indptr, indices, values, basis in terms:
        rows = np.repeat(np.arange(n_rows), np.diff(indptr))
        mask = np.zeros((n_rows, basis.shape[0]))
        mask[rows, indices] = 1.0
        dense = np.zeros((n_rows, basis.shape[0]))
        dense[rows, indices] = values
        gram += weight * np.einsum("rj,jk,jl->rkl", mask, basis, basis)
        rhs += weight * dense @ basis
    return np.array([np.linalg.solve(g, b) for g, b in zip(gram, rhs)])


class TestSolveRows:
    """The batched block solver against the one-row updates and a dense reference."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("block", ["user", "item", "context"])
    def test_matches_per_row_updates(self, rng, k, block):
        n_rows = _CHUNK_ROWS + 37  # crosses a chunk boundary
        n_other = 40
        theta = rng.standard_normal((n_other, k))
        alpha = rng.standard_normal((n_rows, k))
        anchor = rng.standard_normal((n_rows, k))
        r_view = random_csr(rng, n_rows, n_other, 0.1)
        s_view = random_csr(rng, n_rows, n_rows, 0.03)
        lam_s, ridge = 0.7, 0.4

        def row(view, r):
            lo, hi = view[0][r], view[0][r + 1]
            return view[1][lo:hi], view[2][lo:hi]

        if block == "user":
            terms, row_anchor = [(1.0, *r_view, theta)], None
            want = [update_user(*row(r_view, r), theta, ridge) for r in range(n_rows)]
        elif block == "item":
            terms = [(1.0, *r_view, theta), (lam_s, *s_view, alpha)]
            row_anchor = anchor
            want = [update_item_feature(*row(r_view, r), theta, alpha, *row(s_view, r),
                                        lam_s, ridge, anchor[r]) for r in range(n_rows)]
        else:
            terms, row_anchor = [(lam_s, *s_view, alpha)], None
            want = [update_item_context(*row(s_view, r), alpha, lam_s, ridge)
                    for r in range(n_rows)]
        want = np.array(want)
        got = np.empty((n_rows, k))
        _solve_rows(got, ridge, terms, row_anchor)
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        reference = dense_ridge_rows(ridge, terms, row_anchor, n_rows, k)
        np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-10 * scale)

    def test_lone_rank_deficient_system_in_stack_rejected(self, rng):
        # K=3, no ridge: rows with 4 neighbors are full rank, row 2 has one
        basis = rng.standard_normal((6, 3))
        indices = np.array([0, 1, 2, 3, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0, 1, 3, 5])
        indptr = np.array([0, 4, 8, 9, 13, 17])
        values = rng.standard_normal(len(indices))
        out = np.empty((5, 3))
        with pytest.raises(ValidationError, match="singular"):
            _solve_rows(out, 0.0, [(1.0, indptr, indices, values, basis)])
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
            _solve_rows(out, 0.5, [(1.0, np.array([0, 1, 2, 3]), np.array([0, 1, 0]),
                                    values, np.eye(2))])
        assert np.isnan(out[1]).all() and np.isfinite(out[[0, 2]]).all()


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
        factors = rng.standard_normal((_CHUNK_ROWS + 5, 3 * k, k))
        grams = factors.transpose(0, 2, 1) @ factors + np.eye(k)
        self.assert_matches_lu(grams, rng.standard_normal((_CHUNK_ROWS + 5, k)))

    def test_single_system(self, rng):
        factor = rng.standard_normal((9, 4))
        self.assert_matches_lu(factor.T @ factor + 0.5 * np.eye(4), rng.standard_normal(4))

    def test_empty_stack(self):
        assert _solve_spd(np.empty((0, 5, 5)), np.empty((0, 5))).shape == (0, 5)


def _state_and_inputs(theta, beta, alpha, users, items, values):
    ratings = make_ratings(list(zip(users.tolist(), items.tolist(), values.tolist())),
                           n_users=theta.shape[0], n_items=beta.shape[0])
    return ModelState(theta, beta, alpha, None), ratings


def _ppmi_from_arrays(n_items, s_rows, s_cols, s_values) -> PpmiMatrix:
    matrix = from_scipy(sp.csr_matrix((s_values, (s_rows, s_cols)), shape=(n_items, n_items)))
    return PpmiMatrix(n_items=n_items, matrix=matrix)


class TestTotalLoss:
    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(15):
            theta, beta, alpha, users, items, values, sr, sc, sv, _, lam = \
                random_instance(rng, with_anchor=False)
            state, ratings = _state_and_inputs(theta, beta, alpha, users, items, values)
            ppmi = _ppmi_from_arrays(beta.shape[0], sr, sc, sv)
            hyper = Hyperparams(n_factors=theta.shape[1], sdae=None, **lam)
            got = total_loss(state, ratings, ppmi, None, None, hyper)
            want = joint_loss_reference(theta, beta, alpha, users, items, values,
                                        sr, sc, sv, np.zeros_like(beta), **lam)
            assert got == pytest.approx(want, rel=1e-12)

    def test_hand_computed_zero_state(self):
        # 2 users x 2 items, all-zero factors: only the data terms survive
        ratings = make_ratings([(0, 0, 2.0), (0, 1, 3.0), (1, 0, 1.0)])
        state = ModelState(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), None)
        s = math.log(2.0)
        ppmi = _ppmi_from_arrays(2, np.array([0, 1]), np.array([1, 0]),
                                 np.array([s, s]))
        hyper = Hyperparams(n_factors=2, lambda_s=0.5, lambda_user=1.0,
                            lambda_item=1.0, lambda_context=1.0, sdae=None)
        expected = 0.5 * (4.0 + 9.0 + 1.0) + 0.5 * 0.5 * (2 * s * s)
        got = total_loss(state, ratings, ppmi, None, None, hyper)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_perfect_fit_has_zero_data_terms(self, rng):
        theta = rng.standard_normal((4, 2))
        beta = rng.standard_normal((3, 2))
        alpha = rng.standard_normal((3, 2))
        users = np.array([0, 1, 2, 3], dtype=np.int64)
        items = np.array([0, 1, 2, 0], dtype=np.int64)
        values = np.einsum("ij,ij->i", theta[users], beta[items])
        pairs = [(0, 1), (1, 2)]
        sr = np.array([i for i, j in pairs] + [j for i, j in pairs])
        sc = np.array([j for i, j in pairs] + [i for i, j in pairs])
        sv = np.einsum("ij,ij->i", beta[sr], alpha[sc])
        state, ratings = _state_and_inputs(theta, beta, alpha, users, items, values)
        # exact-fit pair values may be nonpositive; inject them directly
        ppmi = _ppmi_from_arrays(3, sr, sc, sv)
        hyper = Hyperparams(n_factors=2, lambda_s=2.0, lambda_user=1e-12,
                            lambda_item=1e-12, lambda_context=1e-12, sdae=None)
        assert total_loss(state, ratings, ppmi, None, None, hyper) < 1e-9

    def test_summation_order_invariant(self, rng):
        theta, beta, alpha, users, items, values, sr, sc, sv, _, lam = \
            random_instance(rng, with_anchor=False)
        state, ratings = _state_and_inputs(theta, beta, alpha, users, items, values)
        ppmi = _ppmi_from_arrays(beta.shape[0], sr, sc, sv)
        hyper = Hyperparams(n_factors=theta.shape[1], sdae=None, **lam)
        base = total_loss(state, ratings, ppmi, None, None, hyper)
        order = rng.permutation(len(values))
        shuffled = ratings.replace_entries(users[order], items[order], values[order])
        assert total_loss(state, shuffled, ppmi, None, None, hyper) == \
            pytest.approx(base, abs=1e-9)
        # identical inputs reduce bit-exactly
        assert total_loss(state, ratings, ppmi, None, None, hyper) == base

    def test_non_finite_term_is_named(self):
        ratings = make_ratings([(0, 0, 1.0)])
        state = ModelState(np.array([[np.nan]]), np.zeros((1, 1)),
                           np.zeros((1, 1)), None)
        hyper = Hyperparams(n_factors=1, sdae=None)
        with pytest.raises(NonFiniteLossError, match="rating"):
            total_loss(state, ratings, None, None, None, hyper)

    def test_block_updates_never_increase_reference_loss(self, rng):
        # random perturbations around each block solution stay worse
        for _ in range(10):
            theta, beta, alpha, users, items, values, sr, sc, sv, anchor, lam = \
                random_instance(rng)
            u = int(rng.integers(0, theta.shape[0]))
            mask = users == u
            theta[u] = update_user(items[mask], values[mask], beta, lam["lambda_user"])
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
    return PpmiMatrix(n_items=n_items, matrix=from_scipy(matrix))


class TestPairTerm:
    """The row-chunked pair term of total_loss against the per-entry gather."""

    @staticmethod
    def pair_only_loss(ppmi, beta, alpha, lambda_s):
        """total_loss with every other term zero: no ratings, no regularizers."""
        n_items, k = beta.shape
        state = ModelState(np.zeros((1, k)), beta, alpha, None)
        hyper = Hyperparams(n_factors=k, lambda_s=lambda_s, lambda_user=0.0,
                            lambda_item=0.0, lambda_context=0.0, sdae=None)
        return total_loss(state, make_ratings([], n_users=1, n_items=n_items), ppmi,
                          None, None, hyper)

    @pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
    def test_matches_gather_reference(self, rng, density):
        n_items, k = _CHUNK_ROWS + 37, 5  # crosses a chunk boundary
        ppmi = random_symmetric_ppmi(rng, n_items, density)
        assert (ppmi.matrix.data == 0.0).any()
        assert (np.diff(ppmi.matrix.indptr) == 0).any()
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        got = self.pair_only_loss(ppmi, beta, alpha, 0.7)
        want = 0.5 * 0.7 * pair_loss_reference(ppmi.matrix, beta, alpha)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_chunks_contribute_nothing(self, rng):
        n_items, k = _CHUNK_ROWS + 37, 3
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        empty = PpmiMatrix(n_items, from_scipy(sp.csr_matrix((n_items, n_items))))
        assert self.pair_only_loss(empty, beta, alpha, 1.0) == 0.0
        # entries only between items of the second chunk
        tail = random_symmetric_ppmi(rng, 37, 0.5).matrix
        matrix = from_scipy(sp.block_diag([sp.csr_matrix((_CHUNK_ROWS, _CHUNK_ROWS)),
                                           to_scipy(tail)], format="csr"))
        got = self.pair_only_loss(PpmiMatrix(n_items, matrix), beta, alpha, 1.0)
        want = 0.5 * pair_loss_reference(tail, beta[_CHUNK_ROWS:], alpha[_CHUNK_ROWS:])
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_ppmi", [5, 3])
    def test_wrong_size_ppmi_rejected(self, n_ppmi):
        ppmi = PpmiMatrix(n_ppmi, from_scipy(np.ones((n_ppmi, n_ppmi)) - np.eye(n_ppmi)))
        with pytest.raises(ValidationError, match=rf"\({n_ppmi}, {n_ppmi}\).* 4 items"):
            self.pair_only_loss(ppmi, np.ones((4, 2)), np.ones((4, 2)), 1.0)

    def test_memory_is_a_chunk_not_a_gather(self, rng):
        n_items, k = 600, 16
        ppmi = PpmiMatrix(n_items, from_scipy(np.ones((n_items, n_items)) - np.eye(n_items)))
        assert ppmi.matrix.nnz == 359_400  # 0.998 dense
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        gathered_copy = ppmi.matrix.nnz * k * 8
        tracemalloc.start()
        try:
            self.pair_only_loss(ppmi, beta, alpha, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gathered_copy / 4, f"peak {peak / 1e6:.1f} MB"


def synthetic_train_data(seed=7, n_users=40, n_items=30, k=3, density=0.25,
                         with_text=True, with_clicks=True):
    config = SyntheticConfig(n_users=n_users, n_items=n_items, n_factors=k,
                             vocab_size=12, rating_density=density,
                             click_density=0.25, rating_offset=4.0,
                             encoder_hidden=(6,))
    ratings, clicks, docs, _ = generate_synthetic(config, seed=seed)
    split = make_split(ratings, "in_matrix", 0.2, 0.1, seed=seed)
    ppmi = build_ppmi(cooccurrence_counts(clicks)) if with_clicks else None
    return TrainData(split=split, ppmi=ppmi, docs=docs if with_text else None)


class TestTrain:
    def test_loss_non_increasing_across_blocks(self):
        data = synthetic_train_data()
        sdae = SdaeConfig(layer_widths=[12, 6, 3, 6, 12], pretrain_epochs=5)
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

    def test_item_block_order_independent(self):
        data = synthetic_train_data()
        hyper = Hyperparams(n_factors=3, lambda_s=0.5, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=3, patience=0, seed=5)
        state_a, _ = train(data, hyper, threads=1)
        state_b, _ = train(data, hyper, threads=3)
        np.testing.assert_array_equal(state_a.user_factors, state_b.user_factors)
        np.testing.assert_array_equal(state_a.item_factors, state_b.item_factors)
        np.testing.assert_array_equal(state_a.context_factors, state_b.context_factors)

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
        data = TrainData(split=type(data.split)(poisoned, data.split.validation,
                                                data.split.test, "in_matrix", 0),
                         ppmi=None, docs=None)
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, sdae=None, max_epochs=3,
                            seed=1)
        with pytest.raises(TrainingDivergedError) as err:
            train(data, hyper)
        assert err.value.epoch == 1

    def test_centering_round_trip(self):
        data = synthetic_train_data()
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=4, patience=0, seed=4, center_ratings=True)
        state, _ = train(data, hyper)
        assert state.rating_offset == pytest.approx(data.split.train.ratings.mean())

    @pytest.mark.parametrize("text", [True, False])
    def test_trace_losses_equal_from_scratch_losses(self, monkeypatch, text):
        # train() passes total_loss the terms no block has changed since they
        # were computed; each traced loss must still equal a full evaluation
        import cofactor.factor as factor
        original = factor.total_loss
        from_scratch, reused = [], []

        def spy(state, ratings, ppmi, encoding, recon_sq, hyper, *, known):
            from_scratch.append(original(state, ratings, ppmi, encoding, recon_sq, hyper))
            reused.append(len(known))
            return original(state, ratings, ppmi, encoding, recon_sq, hyper, known=known)

        monkeypatch.setattr(factor, "total_loss", spy)
        data = synthetic_train_data(with_text=text, with_clicks=text)
        sdae = SdaeConfig(layer_widths=[12, 6, 3, 6, 12], pretrain_epochs=3,
                          learning_rate=0.5) if text else None
        hyper = Hyperparams(n_factors=3, lambda_s=0.5 if text else 0.0, lambda_user=0.05,
                            lambda_item=1.0, lambda_context=0.05, lambda_recon=1.0,
                            lambda_decay=1e-4, sdae=sdae, max_epochs=4, patience=0, seed=3)
        _, trace = train(data, hyper)
        traced = [loss for e in trace.epochs
                  for loss in (e.loss_after_users, e.loss_after_items,
                               e.loss_after_contexts, e.loss_epoch_end)]
        assert len(traced) == 16
        assert traced == from_scratch
        assert reused[0] == 0 and min(reused[1:]) > 0

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
        sdae = SdaeConfig(layer_widths=[12, 6, 3, 6, 12], pretrain_epochs=2)
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
        ppmi_small = build_ppmi(cooccurrence_counts(clicks))

        from cofactor.corpus import RatingDataset
        n, m = ratings.n_users, ratings.n_items
        doubled = RatingDataset(
            2 * n, 2 * m,
            np.concatenate([ratings.users, ratings.users + n]),
            np.concatenate([ratings.items, ratings.items + m]),
            np.concatenate([ratings.ratings, ratings.ratings]),
            ratings.user_ids + tuple(f"{u}~2" for u in ratings.user_ids),
            ratings.item_ids + tuple(f"{i}~2" for i in ratings.item_ids))
        ppmi_big = PpmiMatrix(
            n_items=2 * m,
            matrix=from_scipy(sp.block_diag([to_scipy(ppmi_small.matrix)] * 2,
                                            format="csr")))

        def timed(ds, pm):
            split = make_split(ds, "in_matrix", 0.2, 0.08, seed=3)
            hyper = Hyperparams(n_factors=16, lambda_s=0.2, lambda_user=0.1,
                                lambda_item=0.1, lambda_context=0.1, sdae=None,
                                max_epochs=2, patience=0, seed=3)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                train(TrainData(split=split, ppmi=pm), hyper)
                best = min(best, time.perf_counter() - start)
            return best

        small = timed(ratings, ppmi_small)
        large = timed(doubled, ppmi_big)
        assert large / small <= 2.6, f"doubling ratio {large / small:.2f}"


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Hyperparams(n_factors=0).validate()
        with pytest.raises(ValidationError):
            Hyperparams(lambda_user=0.0).validate()
        with pytest.raises(ValidationError):
            Hyperparams(lambda_s=-1.0).validate()
        for name in ("lambda_s", "lambda_user", "lambda_item", "lambda_context",
                     "lambda_recon", "lambda_decay"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValidationError, match=name):
                    Hyperparams(**{name: bad}).validate()
        with pytest.raises(ValidationError):
            Hyperparams(n_factors=4,
                        sdae=SdaeConfig(layer_widths=[10, 3, 10])).validate()

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
        sdae = SdaeConfig(layer_widths=[12, 6, 3, 6, 12], pretrain_epochs=2,
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
