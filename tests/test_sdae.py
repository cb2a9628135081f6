import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from cofactor.errors import ValidationError
from cofactor.sdae import (SdaeConfig, SdaeParams, _sigmoid, corrupt, encode,
                           init_params, pretrain, sdae_pass, stack_widths)
from cofactor.sparse import CHUNK_ROWS, CsrMatrix

from conftest import assert_same_csr, from_scipy, to_scipy
from oracles import (masked_reference, numeric_gradient, pretrain_reference,
                     sdae_pass_reference)


def tiny_net():
    """V=2 -> K=1 -> 1 toy chain: encode gives sigmoid(x1 + x2), the output
    sigmoid(encode)."""
    return SdaeParams(weights=[np.array([[1.0], [1.0]]), np.array([[1.0]])],
                      biases=[np.zeros(1), np.zeros(1)])


def random_net(rng, widths):
    params = init_params(widths, rng)
    for w in params.weights:
        w += 0.1 * rng.standard_normal(w.shape)
    for b in params.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    return params


class TestCorrupt:
    def test_zero_rate_is_identity(self, rng):
        x = rng.random(50)
        np.testing.assert_array_equal(corrupt(x, 0.0, 1), x)

    def test_zeroed_fraction_within_three_sigma(self):
        x = np.ones(10_000)
        out = corrupt(x, 0.3, rng_seed=123)
        zeroed = int((out == 0).sum())
        sigma = np.sqrt(10_000 * 0.3 * 0.7)
        assert abs(zeroed - 3000) <= 3 * sigma

    def test_all_zero_input_stays_zero(self):
        x = np.zeros(100)
        np.testing.assert_array_equal(corrupt(x, 0.7, 5), x)

    def test_masking_never_raises_values(self, rng):
        x = rng.random(200)
        out = corrupt(x, 0.4, 7)
        assert (out <= x).all() and (out >= 0).all()

    def test_deterministic_under_seed(self, rng):
        x = rng.random(64)
        np.testing.assert_array_equal(corrupt(x, 0.5, 99), corrupt(x, 0.5, 99))

    def test_sparse_matches_masking_semantics(self, rng):
        dense = (rng.random((10, 8)) < 0.5) * rng.random((10, 8))
        sparse = from_scipy(dense)
        out = corrupt(sparse, 0.4, 11)
        assert isinstance(out, CsrMatrix)
        back = out.toarray()
        assert ((back == 0) | (back == dense)).all()

    def test_bad_rate(self):
        with pytest.raises(ValidationError):
            corrupt(np.ones(3), 1.0, 0)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
    def test_sparse_mask_equals_oracle(self, rng, rate):
        for seed in range(5):
            dense = (rng.random((40, 25)) < 0.3) * rng.random((40, 25))
            dense[3] = 0.0
            got = corrupt(from_scipy(dense), rate, seed)
            assert_same_csr(got, masked_reference(to_scipy(from_scipy(dense)), rate,
                                                  np.random.default_rng(seed)))

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_stored_zeros_draw_a_mask_value_and_are_dropped(self, rng, rate):
        rows = from_scipy((rng.random((40, 25)) < 0.3) * rng.random((40, 25)))
        data = np.where(rng.random(rows.nnz) < 0.2, 0.0, rows.data)
        rows = CsrMatrix(rows.shape, rows.indptr, rows.indices, data)
        assert (rows.data == 0).any()
        got = corrupt(rows, rate, 5)
        assert_same_csr(got, masked_reference(to_scipy(rows), rate, np.random.default_rng(5)))


class TestSigmoid:
    def test_within_two_ulps_of_expit(self, rng):
        # expit is the same formula on the C library's exp; numpy's vectorized
        # exp may differ from that by 1 ulp, which reaches the result as up to 2
        x = np.concatenate([10 * rng.standard_normal(200_000),
                            rng.uniform(-700, 700, 20_000), [0.0, -0.0]])
        got, want = _sigmoid(x), expit(x)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))  # both positive
        assert ulps.max() <= 2
        assert (ulps > 0).mean() < 0.05

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(np.array([-800.0, 800.0, -1e308, 1e308]))
        assert out.tolist() == [0.0, 1.0, 0.0, 1.0]


def recon_sq(x0, xc, params):
    return sdae_pass(params, x0, xc)[1]


class TestForward:
    def test_zero_params_give_half(self):
        params = SdaeParams(weights=[np.zeros((4, 2)), np.zeros((2, 4))],
                            biases=[np.zeros(2), np.zeros(4)])
        x = np.array([[0.3, 0.9, 0.0, 1.0]])
        np.testing.assert_allclose(encode(x, params), 0.5)
        encoding, error, grads = sdae_pass(params, x, np.full((1, 4), 0.5))
        np.testing.assert_array_equal(encoding, encode(x, params))
        assert error == 0.0 and grads is None  # every output is exactly 0.5

    def test_tiny_net_encode_value(self):
        value = encode(np.array([1.0, 1.0]), tiny_net())
        assert value[0] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-12)
        assert value[0] == pytest.approx(0.8808, abs=5e-5)

    def test_tiny_net_reconstruct_value(self):
        # against a zero clean row the error is the squared output
        value = np.sqrt(recon_sq(np.array([[1.0, 1.0]]), np.zeros((1, 1)), tiny_net()))
        inner = 1.0 / (1.0 + np.exp(-2.0))
        assert value == pytest.approx(1.0 / (1.0 + np.exp(-inner)), abs=1e-12)
        assert value == pytest.approx(0.7070, abs=5e-4)

    def test_sigmoid_range(self, rng):
        # a one-wide output o lies in (0, 1) exactly when (o − ½)² < ¼
        params = random_net(rng, [6, 3, 2, 3, 1])
        for row in rng.random((7, 6)):
            assert recon_sq(row[None], np.full((1, 1), 0.5), params) < 0.25

    def test_encode_deterministic_and_matches_prefix(self, rng):
        params = random_net(rng, [5, 3, 2, 3, 5])
        x = rng.random((4, 5))
        np.testing.assert_array_equal(encode(x, params), sdae_pass(params, x, x)[0])
        np.testing.assert_array_equal(encode(x, params), encode(x, params))

    def test_sparse_input_equals_dense(self, rng):
        params = random_net(rng, [8, 4, 2, 4, 8])
        x = (rng.random((5, 8)) < 0.4) * rng.random((5, 8))
        np.testing.assert_allclose(encode(from_scipy(x), params),
                                   encode(x, params), atol=1e-14)
        sparse_enc, sparse_sq, _ = sdae_pass(params, from_scipy(x), from_scipy(x))
        dense_enc, dense_sq, _ = sdae_pass(params, x, x)
        np.testing.assert_allclose(sparse_enc, dense_enc, atol=1e-14)
        assert sparse_sq == pytest.approx(dense_sq, rel=1e-14)

    def test_shape_mismatch(self, rng):
        params = random_net(rng, [5, 2, 5])
        with pytest.raises(ValidationError):
            encode(np.ones(4), params)
        with pytest.raises(ValidationError):
            sdae_pass(params, np.ones((2, 5)), np.ones((3, 5)))


def _scalar_loss(params, x0, xc, beta, lam_a, lam_x, lam_w):
    encoding, error, _ = sdae_pass(params, x0, xc)
    return (0.5 * lam_a * float(((beta - encoding) ** 2).sum())
            + 0.5 * lam_x * error + 0.5 * lam_w * params.squared_norm())


def sdae_gradients(params, x0, xc, beta, **lambdas):
    return sdae_pass(params, x0, xc, beta, **lambdas)[2]


class TestGradients:
    def test_pure_decay_when_data_terms_off(self, rng):
        params = random_net(rng, [4, 2, 4])
        x0 = rng.random((3, 4))
        grads_w, grads_b = sdae_gradients(params, x0, x0, rng.random((3, 2)),
                                          lambda_anchor=0.0, lambda_recon=0.0,
                                          lambda_decay=0.25)
        for layer in range(2):
            np.testing.assert_allclose(grads_w[layer], 0.25 * params.weights[layer])
            np.testing.assert_allclose(grads_b[layer], 0.25 * params.biases[layer])

    def test_anchor_at_encoding_contributes_nothing(self, rng):
        params = random_net(rng, [5, 3, 5])
        x0 = rng.random((4, 5))
        beta = np.asarray(encode(x0, params))
        with_term, _ = sdae_gradients(params, x0, x0, beta, lambda_anchor=3.0,
                                      lambda_recon=0.0, lambda_decay=0.0)
        without, _ = sdae_gradients(params, x0, x0, beta, lambda_anchor=0.0,
                                    lambda_recon=0.0, lambda_decay=0.0)
        for a, b in zip(with_term, without):
            np.testing.assert_allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("widths", [[5, 2, 5], [6, 3, 2, 3, 6]])
    def test_matches_central_finite_differences(self, rng, widths):
        params = random_net(rng, widths)
        n_rows = 4
        x0 = rng.random((n_rows, widths[0]))
        xc = rng.random((n_rows, widths[0]))
        beta = rng.standard_normal((n_rows, widths[len(widths) // 2]))
        lam = dict(lambda_anchor=0.7, lambda_recon=1.3, lambda_decay=0.05)
        grads_w, grads_b = sdae_gradients(params, x0, xc, beta, **lam)
        for layer in range(params.n_layers):
            def loss_of_w(w, layer=layer):
                probe = params.copy()
                probe.weights[layer] = w
                return _scalar_loss(probe, x0, xc, beta, 0.7, 1.3, 0.05)

            def loss_of_b(b, layer=layer):
                probe = params.copy()
                probe.biases[layer] = b
                return _scalar_loss(probe, x0, xc, beta, 0.7, 1.3, 0.05)

            num_w = numeric_gradient(loss_of_w, params.weights[layer].copy())
            num_b = numeric_gradient(loss_of_b, params.biases[layer].copy())
            denom_w = np.maximum(np.abs(num_w), 1e-6)
            denom_b = np.maximum(np.abs(num_b), 1e-6)
            assert (np.abs(grads_w[layer] - num_w) / denom_w).max() < 1e-4
            assert (np.abs(grads_b[layer] - num_b) / denom_b).max() < 1e-4

    def test_sparse_input_gradients_match_dense(self, rng):
        params = random_net(rng, [6, 2, 6])
        x0 = (rng.random((5, 6)) < 0.5) * rng.random((5, 6))
        xc = rng.random((5, 6))
        beta = rng.standard_normal((5, 2))
        dense_w, dense_b = sdae_gradients(params, x0, xc, beta, lambda_anchor=1.0,
                                          lambda_recon=1.0, lambda_decay=0.1)
        sparse_w, sparse_b = sdae_gradients(params, from_scipy(x0), from_scipy(xc),
                                            beta, lambda_anchor=1.0, lambda_recon=1.0,
                                            lambda_decay=0.1)
        for a, b in zip(dense_w, sparse_w):
            np.testing.assert_allclose(a, b, atol=1e-12)
        for a, b in zip(dense_b, sparse_b):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_non_finite_inputs_rejected(self, rng):
        params = random_net(rng, [4, 2, 4])
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValidationError):
            sdae_gradients(params, np.ones((2, 4)), np.ones((2, 4)), bad,
                           lambda_anchor=1.0, lambda_recon=1.0, lambda_decay=0.0)


class TestConfig:
    def test_valid(self):
        SdaeConfig(hidden_widths=[4])

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="learning_rate"):
            SdaeConfig(hidden_widths=[], learning_rate=rate)

    @pytest.mark.parametrize("epochs", [2.5, True, "3"])
    def test_pretrain_epochs_must_be_an_integer(self, epochs):
        with pytest.raises(ValidationError, match="pretrain_epochs must be an integer"):
            SdaeConfig(hidden_widths=[4], pretrain_epochs=epochs)

    @pytest.mark.parametrize("hidden", [[0], [4, -2], ["a"], [2.5], 5, "4", [True]])
    def test_hidden_widths_must_be_positive_integers(self, hidden):
        with pytest.raises(ValidationError, match="hidden_widths"):
            SdaeConfig(hidden_widths=hidden)


class TestStackWidths:
    @pytest.mark.parametrize("hidden,expected", [
        ([], [10, 2, 10]),
        ([4], [10, 4, 2, 4, 10]),
        ((6, 4), [10, 6, 4, 2, 4, 6, 10]),
    ])
    def test_symmetric_around_the_latent_layer(self, hidden, expected):
        assert stack_widths(10, hidden, 2) == expected

    @pytest.mark.parametrize("n_inputs,hidden,latent", [(0, [4], 2), (10, [4, 0], 2),
                                                        (10, [-1], 2), (10, [4], 0)])
    def test_nonpositive_width_rejected(self, n_inputs, hidden, latent):
        with pytest.raises(ValidationError, match="positive"):
            stack_widths(n_inputs, hidden, latent)


class TestPretrain:
    def _rows(self, rng, n=40, v=12):
        return (rng.random((n, v)) < 0.3) * rng.random((n, v))

    def test_zero_epochs_returns_initialization(self, rng):
        rows = self._rows(rng)
        config = SdaeConfig(hidden_widths=[6], pretrain_epochs=0)
        params, _ = pretrain(rows, config, 3, seed=3)
        reference = init_params([12, 6, 3, 6, 12], np.random.default_rng(3))
        for a, b in zip(params.weights, reference.weights):
            np.testing.assert_array_equal(a, b)
        for b_got, b_ref in zip(params.biases, reference.biases):
            np.testing.assert_array_equal(b_got, b_ref)

    def test_reconstruction_improves(self, rng):
        rows = self._rows(rng)
        config = SdaeConfig(hidden_widths=[6], pretrain_epochs=40,
                            learning_rate=0.5, noise_rate=0.2)
        before = init_params([12, 6, 3, 6, 12], np.random.default_rng(11))
        after, _ = pretrain(rows, config, 3, seed=11)
        assert recon_sq(rows, rows, after) <= recon_sq(rows, rows, before)

    def test_deterministic(self, rng):
        rows = self._rows(rng)
        config = SdaeConfig(hidden_widths=[], pretrain_epochs=5)
        a, _ = pretrain(rows, config, 4, seed=21)
        b, _ = pretrain(rows, config, 4, seed=21)
        for w_a, w_b in zip(a.weights, b.weights):
            np.testing.assert_array_equal(w_a, w_b)

    def test_accepts_sparse_rows(self, rng):
        rows = from_scipy(self._rows(rng))
        config = SdaeConfig(hidden_widths=[], pretrain_epochs=3)
        params, _ = pretrain(rows, config, 4, seed=1)
        assert params.n_layers == 2

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("hidden,latent", [([], 5), ([6], 3)],
                             ids=["one-depth", "two-depths"])
    @pytest.mark.parametrize("epochs", [0, 2])
    def test_encoding_is_encode_of_the_stack(self, rng, sparse, hidden, latent, epochs):
        rows = _text_rows(rng, sparse)
        config = SdaeConfig(hidden_widths=hidden, pretrain_epochs=epochs, learning_rate=0.5)
        params, encoding = pretrain(rows, config, latent, seed=7)
        want = encode(rows, params)
        assert encoding.dtype == want.dtype and encoding.shape == want.shape
        assert encoding.tobytes() == want.tobytes()


def _text_rows(rng, sparse, n=30, v=12):
    rows = (rng.random((n, v)) < 0.3) * rng.random((n, v))
    return from_scipy(rows) if sparse else rows


class TestSdaeForward:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_equals_encode_and_reconstruction_error(self, rng, sparse):
        params = random_net(rng, [12, 6, 3, 6, 12])
        xc = _text_rows(rng, sparse)
        x0 = corrupt(xc, 0.3, 5)
        encoding, error, grads = sdae_pass(params, x0, xc)
        _, want, _, _ = sdae_pass_reference(params.weights, params.biases,
                                            to_scipy(x0) if sparse else x0,
                                            to_scipy(xc) if sparse else xc, 0.0, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(encoding, encode(x0, params))
        assert error == pytest.approx(want, rel=1e-14)
        assert grads is None


def assert_within_1e12_relative(got, want):
    assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()


class TestSdaePassMatchesReference:
    """The row-chunked pass against a whole-batch dense backpropagation."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("widths", [[12, 5, 12], [12, 6, 3, 6, 12]],
                             ids=["one-depth", "two-depths"])
    def test_within_1e12_relative(self, rng, sparse, widths):
        n_rows = 2 * CHUNK_ROWS + 37     # three chunks, the last one short
        params = random_net(rng, widths)
        xc = _text_rows(rng, sparse, n=n_rows, v=widths[0])
        x0 = corrupt(xc, 0.3, 5)
        beta = rng.random((n_rows, widths[len(widths) // 2]))
        lam = dict(lambda_anchor=0.7, lambda_recon=1.3, lambda_decay=0.05)
        encoding, error, (grads_w, grads_b) = sdae_pass(params, x0, xc, beta, **lam)
        want_enc, want_sq, want_w, want_b = sdae_pass_reference(
            params.weights, params.biases, to_scipy(x0) if sparse else x0,
            to_scipy(xc) if sparse else xc, beta, *lam.values())
        assert_within_1e12_relative(encoding, want_enc)
        assert_within_1e12_relative(error, want_sq)
        for got, want in zip(grads_w + grads_b, want_w + want_b):
            assert_within_1e12_relative(got, want)
        forward = sdae_pass(params, x0, xc)
        np.testing.assert_array_equal(forward[0], encoding)
        assert forward[1] == error and forward[2] is None

    def test_non_finite_clean_row_rejected(self, rng):
        params = random_net(rng, [4, 2, 4])
        xc = from_scipy(np.array([[0.5, 0.0, np.inf, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        with pytest.raises(ValidationError, match="non-finite"):
            sdae_pass(params, xc, xc, 0.0, lambda_recon=1.0)


class TestSdaePassChunkViews:
    """The pass reads each chunk of rows as a view; it equals, bit for bit, the
    passes over the same chunks taken outside the package (scipy's CSR row
    slice, or the dense rows), summed in order."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_bit_identical_to_gathered_chunks(self, rng, sparse):
        n_rows, widths = 2 * CHUNK_ROWS + 37, [12, 6, 3, 6, 12]
        params = random_net(rng, widths)
        xc = _text_rows(rng, sparse, n=n_rows, v=widths[0])
        x0 = corrupt(xc, 0.3, 5)
        beta = rng.random((n_rows, 3))
        lam = dict(lambda_anchor=0.7, lambda_recon=1.3)
        encoding, error, (grads_w, grads_b) = sdae_pass(params, x0, xc, beta,
                                                        lambda_decay=0.05, **lam)
        parts, want_sq = [], 0.0
        want = [np.zeros_like(value) for value in params.weights + params.biases]

        def chunk(x, rows):
            return from_scipy(to_scipy(x)[rows]) if sparse else x[rows]

        for start in range(0, n_rows, CHUNK_ROWS):
            rows = np.arange(start, min(start + CHUNK_ROWS, n_rows))
            part, sq, (part_w, part_b) = sdae_pass(params, chunk(x0, rows), chunk(xc, rows),
                                                   beta[rows], **lam)
            parts.append(part)
            want_sq += sq
            for total, grad in zip(want, part_w + part_b):
                total += grad
        for total, value in zip(want, params.weights + params.biases):
            total += 0.05 * value
        np.testing.assert_array_equal(encoding, np.concatenate(parts))
        assert error == want_sq
        for got, total in zip(grads_w + grads_b, want):
            np.testing.assert_array_equal(got, total)


def sparse_text_rows(rng, n_rows, vocab, terms):
    """n_rows CsrMatrix rows of `terms` distinct columns each, values in (0, 1]."""
    cols = np.sort(np.argsort(rng.random((n_rows, vocab)), axis=1)[:, :terms], axis=1)
    return CsrMatrix((n_rows, vocab), np.arange(0, n_rows * terms + 1, terms),
                     cols.ravel(), 1.0 - rng.random(n_rows * terms))


class TestSdaePassMemory:
    def test_each_pass_peaks_below_one_dense_copy_of_the_rows(self, rng):
        n_rows, vocab = 2000, 4000
        xc = sparse_text_rows(rng, n_rows, vocab, 100)
        x0 = corrupt(xc, 0.3, 1)
        params = init_params(stack_widths(vocab, [200], 32), rng)
        beta = rng.random((n_rows, 32))
        dense_bytes = n_rows * vocab * 8
        peaks = []
        tracemalloc.start()
        try:
            for args, lam in (((), {}), ((beta,), dict(lambda_anchor=1.0, lambda_recon=1.0,
                                                       lambda_decay=0.1))):
                tracemalloc.reset_peak()
                result = sdae_pass(params, x0, xc, *args, **lam)
                peaks.append(tracemalloc.get_traced_memory()[1])
                del result
        finally:
            tracemalloc.stop()
        assert max(peaks) < dense_bytes, (peaks, dense_bytes)


class TestPretrainMatchesReference:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("hidden,latent", [([], 5), ([6], 3)],
                             ids=["one-depth", "two-depths"])
    def test_within_1e12_relative(self, rng, sparse, hidden, latent):
        rows = _text_rows(rng, sparse)
        config = SdaeConfig(hidden_widths=hidden, noise_rate=0.3, pretrain_epochs=6,
                            learning_rate=0.5)
        got, _ = pretrain(rows, config, latent, seed=13)
        widths = stack_widths(rows.shape[1], hidden, latent)
        ref_weights, ref_biases = pretrain_reference(to_scipy(rows) if sparse else rows,
                                                     widths, 0.3, 6, 0.5, seed=13)
        initial = init_params(widths, np.random.default_rng(13))
        for layer, (w, ref) in enumerate(zip(got.weights, ref_weights)):
            assert not np.array_equal(ref, initial.weights[layer])
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()
        for b, ref in zip(got.biases, ref_biases):
            assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()
