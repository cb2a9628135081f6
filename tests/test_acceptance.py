"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Configurations for the statistical criteria were fixed ahead of time;
every tolerance is stated inline.
"""

import numpy as np
import pytest

from cofactor.corpus import make_split, subsample_ratings
from cofactor.factor import (Hyperparams, TrainData, load_checkpoint,
                             predict_ratings, save_checkpoint, train)
from cofactor.ppmi import build_ppmi
from cofactor.predict_eval import evaluate, sweep_lambda_s
from cofactor.sdae import SdaeConfig, sdae_pass

from conftest import make_clicks, to_scipy
from oracles import (block_gradients, brute_force_ppmi, joint_loss_reference,
                     numeric_gradient, pmf_als_reference)
from test_cli import write_config, write_fixture
from test_factor import solve_block
from test_ppmi import clicks_to_user_sets
from worlds import SyntheticConfig, generate_synthetic
from cofactor.cli import main as cli_main


def _announce(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: PASS — {message}")


def test_criterion_1_ppmi_matches_brute_force():
    """500 random click matrices (<=10x10): entries match enumeration to 1e-12."""
    rng = np.random.default_rng(101)
    n_compared = 0
    n_entries = 0
    for _ in range(500):
        n_users = int(rng.integers(1, 11))
        n_items = int(rng.integers(2, 11))
        pairs = sorted({(int(u), int(i))
                        for u in range(n_users) for i in range(n_items)
                        if rng.random() < 0.45})
        clicks = make_clicks(pairs, n_users, n_items)
        if np.diff(clicks.indptr).max(initial=0) < 2:  # no user clicked two items
            continue
        expected = brute_force_ppmi(clicks_to_user_sets(clicks))
        matrix = to_scipy(build_ppmi(clicks).matrix)
        assert (abs(matrix - matrix.T) > 0).nnz == 0, "not symmetric"
        assert (matrix.data > 0).all(), "stored zero or negative entry"
        got = {(int(i), int(j)): v for (i, j), v in matrix.todok().items() if i < j}
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-12
        n_compared += 1
        n_entries += len(expected)
    assert n_compared >= 400
    _announce(1, f"{n_compared} matrices, {n_entries} entries, max error <= 1e-12")


def test_criterion_2_als_block_stationarity():
    """100 random instances, K in {1,3,8}: after each whole-block solve the
    gradient of every row of the block is <= 1e-8, and no perturbation of a
    solved row attains lower loss."""
    rng = np.random.default_rng(202)
    for trial in range(100):
        k = (1, 3, 8)[trial % 3]
        n_users, n_items = 5, 6
        theta = rng.standard_normal((n_users, k))
        beta = rng.standard_normal((n_items, k))
        alpha = rng.standard_normal((n_items, k))
        pairs = sorted({(int(u), int(i)) for u, i in
                        zip(rng.integers(0, n_users, 14), rng.integers(0, n_items, 14))})
        users = np.array([p[0] for p in pairs], dtype=np.int64)
        items = np.array([p[1] for p in pairs], dtype=np.int64)
        values = 2.0 * rng.standard_normal(len(pairs))
        upper = sorted({(int(i), int(j)) for i, j in
                        zip(rng.integers(0, n_items, 10), rng.integers(0, n_items, 10))
                        if i < j})
        s_rows = np.array([p[0] for p in upper] + [p[1] for p in upper], dtype=np.int64)
        s_cols = np.array([p[1] for p in upper] + [p[0] for p in upper], dtype=np.int64)
        s_vals = np.concatenate([rng.random(len(upper)) + 0.05] * 2) if upper \
            else np.zeros(0)
        anchor = rng.standard_normal((n_items, k))
        lam = dict(lambda_s=float(rng.random() + 0.1),
                   lambda_user=float(rng.random() + 0.05),
                   lambda_item=float(rng.random() + 0.05),
                   lambda_context=float(rng.random() + 0.05))

        # each block is the exact minimizer GIVEN the state it solved against,
        # so check stationarity and perturbations right after each block solve
        def loss_now():
            return joint_loss_reference(theta, beta, alpha, users, items, values,
                                        s_rows, s_cols, s_vals, anchor, **lam)

        def assert_perturbations_worse(block, row):
            base = loss_now()
            for _ in range(7):
                bump = 1e-3 * rng.standard_normal(k)
                block[row] += bump
                assert loss_now() >= base - 1e-12
                block[row] -= bump

        for index, (name, block, n_rows) in enumerate(
                [("user", theta, n_users), ("item", beta, n_items), ("context", alpha, n_items)]):
            row = int(rng.integers(0, n_rows))
            solve_block(name, theta, beta, alpha, users, items, values,
                        s_rows, s_cols, s_vals, anchor, **lam)
            grad = block_gradients(theta, beta, alpha, users, items, values,
                                   s_rows, s_cols, s_vals, anchor, **lam)[index]
            assert np.linalg.norm(grad, axis=1).max() <= 1e-8
            assert_perturbations_worse(block, row)
    _announce(2, "100 instances: every row's block gradient <= 1e-8, 21 perturbations "
                 "per instance all worse")


def test_criterion_3_sdae_gradients_match_finite_differences():
    """Analytic vs central differences (step 1e-5) on nets up to [20,8,4,8,20]."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for widths in ([6, 3, 6], [10, 4, 2, 4, 10], [20, 8, 4, 8, 20]):
        from cofactor.sdae import init_params
        params = init_params(widths, rng)
        for w in params.weights:
            w += 0.1 * rng.standard_normal(w.shape)
        for b in params.biases:
            b += 0.1 * rng.standard_normal(b.shape)
        n_rows = 3
        x0 = rng.random((n_rows, widths[0]))
        xc = rng.random((n_rows, widths[0]))
        mid = widths[len(widths) // 2]
        beta = rng.standard_normal((n_rows, mid))
        lam_a, lam_x, lam_w = 0.8, 1.1, 0.05

        def scalar_loss(probe):
            encoding, recon_sq, _ = sdae_pass(probe, x0, xc)
            a = beta - encoding
            return (0.5 * lam_a * float((a ** 2).sum()) + 0.5 * lam_x * recon_sq
                    + 0.5 * lam_w * probe.squared_norm())

        _, _, (grads_w, grads_b) = sdae_pass(params, x0, xc, beta, lambda_anchor=lam_a,
                                             lambda_recon=lam_x, lambda_decay=lam_w)
        for layer in range(params.n_layers):
            def w_loss(w, layer=layer):
                probe = params.copy()
                probe.weights[layer] = w
                return scalar_loss(probe)

            def b_loss(b, layer=layer):
                probe = params.copy()
                probe.biases[layer] = b
                return scalar_loss(probe)

            for analytic, numeric in ((grads_w[layer],
                                       numeric_gradient(w_loss, params.weights[layer].copy())),
                                      (grads_b[layer],
                                       numeric_gradient(b_loss, params.biases[layer].copy()))):
                denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
                rel = (np.abs(analytic - numeric) / denom).max()
                worst = max(worst, rel)
                assert rel <= 1e-4
    _announce(3, f"all layers of 3 nets, worst relative error {worst:.2e} <= 1e-4")


def _recovery_world(seed=42):
    config = SyntheticConfig(n_users=200, n_items=300, n_factors=16, vocab_size=30,
                             rating_density=0.4, sigma_rating=0.1,
                             rating_offset=0.0, sigma_beta=0.3,
                             click_density=0.15, encoder_hidden=(12,))
    ratings, clicks, docs, _ = generate_synthetic(config, seed=seed)
    split = make_split(ratings, "in_matrix", 0.2, 0.08, seed=seed)
    ppmi = build_ppmi(clicks)
    return split, ppmi, docs


def test_criterion_4_loss_monotone_across_blocks():
    """N=200, M=300, K=16: within every epoch the loss sampled after each
    exact block is non-increasing, tolerance 1e-9."""
    split, ppmi, docs = _recovery_world()
    sdae = SdaeConfig(hidden_widths=[12], pretrain_epochs=5)
    hyper = Hyperparams(n_factors=16, lambda_s=0.1, lambda_user=0.05,
                        lambda_item=1.0, lambda_context=0.05, lambda_recon=1.0,
                        lambda_decay=1e-4, sdae=sdae, max_epochs=10, patience=0,
                        seed=4)
    _, trace = train(TrainData(split=split, ppmi=ppmi, docs=docs), hyper)
    assert len(trace.epochs) == 10
    worst = -np.inf
    for e in trace.epochs:
        worst = max(worst, e.loss_after_items - e.loss_after_users,
                    e.loss_after_contexts - e.loss_after_items)
        assert e.loss_after_items <= e.loss_after_users + 1e-9
        assert e.loss_after_contexts <= e.loss_after_items + 1e-9
    _announce(4, f"30 block transitions, worst increase {worst:.2e} <= 1e-9")


def test_criterion_5_pmf_degenerate_equals_reference():
    """lambda_s=0, text off: per-epoch losses, validation RMSEs, and the final
    test RMSE match an independently coded PMF ALS to 1e-8 (shared seed)."""
    config = SyntheticConfig(n_users=200, n_items=300, n_factors=16, vocab_size=20,
                             rating_density=0.1, sigma_rating=0.3,
                             rating_offset=0.0, encoder_hidden=(8,))
    ratings, _, _, _ = generate_synthetic(config, seed=55)
    split = make_split(ratings, "in_matrix", 0.2, 0.08, seed=55)
    hyper = Hyperparams(n_factors=16, lambda_s=0.0, lambda_user=0.5,
                        lambda_item=0.5, lambda_context=0.05, sdae=None,
                        max_epochs=8, patience=0, seed=17)
    state, trace = train(TrainData(split=split), hyper)
    tr, val, test = split.train, split.validation, split.test
    losses, val_rmses, _, _ = pmf_als_reference(
        tr.users, tr.items, tr.ratings, tr.n_users, tr.n_items, 16,
        lambda_user=0.5, lambda_item=0.5, seed=17, n_epochs=8,
        val_users=val.users, val_items=val.items, val_values=val.ratings)
    for stats, ref_loss, ref_rmse in zip(trace.epochs, losses, val_rmses):
        assert abs(stats.loss_epoch_end - ref_loss) <= 1e-8 * max(1.0, abs(ref_loss))
        assert abs(stats.validation_rmse - ref_rmse) <= 1e-8
    _, _, theta_ref, beta_ref = pmf_als_reference(
        tr.users, tr.items, tr.ratings, tr.n_users, tr.n_items, 16,
        lambda_user=0.5, lambda_item=0.5, seed=17, n_epochs=trace.best_epoch,
        val_users=val.users, val_items=val.items, val_values=val.ratings)
    got_rmse = evaluate(state, split).rmse
    ref_err = test.ratings - np.einsum("ij,ij->i", theta_ref[test.users],
                                       beta_ref[test.items])
    ref_rmse = float(np.sqrt(np.mean(ref_err ** 2)))
    assert abs(got_rmse - ref_rmse) <= 1e-8
    _announce(5, f"8 epochs of losses and RMSEs agree with the reference to 1e-8 "
                 f"(final test RMSE {got_rmse:.4f})")


def test_criterion_6_synthetic_recovery():
    """Generative-process data with sigma_R=0.1: held-out in-matrix RMSE <= 0.2
    within 50 epochs, for both the text-anchored joint run and the degenerate one."""
    split, ppmi, docs = _recovery_world()
    sdae = SdaeConfig(hidden_widths=[12], pretrain_epochs=5)
    joint = Hyperparams(n_factors=16, lambda_s=0.001, lambda_user=0.05,
                        lambda_item=0.05, lambda_context=0.05, lambda_recon=1.0,
                        lambda_decay=1e-4, sdae=sdae, max_epochs=50, patience=5,
                        seed=1)
    state, trace = train(TrainData(split=split, ppmi=ppmi, docs=docs), joint)
    joint_rmse = evaluate(state, split, docs).rmse
    assert len(trace.epochs) <= 50
    assert joint_rmse <= 0.2
    degenerate = Hyperparams(n_factors=16, lambda_s=0.0, lambda_user=0.05,
                             lambda_item=0.05, lambda_context=0.05, sdae=None,
                             max_epochs=50, patience=5, seed=1)
    state, _ = train(TrainData(split=split), degenerate)
    pmf_rmse = evaluate(state, split).rmse
    assert pmf_rmse <= 0.2
    _announce(6, f"test RMSE joint {joint_rmse:.4f}, degenerate {pmf_rmse:.4f}, "
                 f"both <= 0.2 = 2x noise floor")


def test_criterion_7_lambda_s_curve_is_u_shaped():
    """Sparse ratings with informative clicks: test RMSE over the lambda_s grid
    has an interior minimum with both endpoints >= 2% worse."""
    config = SyntheticConfig(n_users=200, n_items=300, n_factors=8, vocab_size=30,
                             rating_density=0.03, sigma_rating=0.3,
                             rating_offset=6.0, click_density=0.25,
                             click_noise=1.0, encoder_hidden=(12,))
    ratings, clicks, docs, _ = generate_synthetic(config, seed=7)
    split = make_split(ratings, "in_matrix", 0.2, 0.08, seed=7)
    ppmi = build_ppmi(clicks)
    hyper = Hyperparams(n_factors=8, lambda_user=0.05, lambda_item=0.1,
                        lambda_context=0.05, sdae=None, max_epochs=30,
                        patience=4, seed=7)
    grid = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
    points = sweep_lambda_s(TrainData(split=split, ppmi=ppmi), hyper, grid)
    rmses = [p.test_rmse for p in points]
    best = int(np.argmin(rmses))
    assert 0 < best < len(grid) - 1, f"minimum at endpoint: {rmses}"
    assert rmses[0] >= 1.02 * rmses[best]
    assert rmses[-1] >= 1.02 * rmses[best]
    _announce(7, f"min at lambda_s={grid[best]}; endpoints worse by "
                 f"{rmses[0] / rmses[best] - 1:.0%} and {rmses[-1] / rmses[best] - 1:.0%}")


def test_criterion_8_sparsity_trend_and_gap():
    """Nested 10/20/50/80% subsets: RMSE non-increasing in density (<=1
    inversion of <=1%), joint beats degenerate everywhere, largest gap at 10%."""
    config = SyntheticConfig(n_users=200, n_items=300, n_factors=8, vocab_size=30,
                             rating_density=0.1, sigma_rating=0.3,
                             rating_offset=6.0, click_density=0.2,
                             click_noise=1.0, clicks_include_rated=False,
                             encoder_hidden=(12,))
    ratings, clicks, docs, _ = generate_synthetic(config, seed=11)
    ppmi = build_ppmi(clicks)
    sdae = SdaeConfig(hidden_widths=[12], pretrain_epochs=5)
    joint_h = Hyperparams(n_factors=8, lambda_s=0.5, lambda_user=0.05,
                          lambda_item=1.0, lambda_context=0.05, lambda_recon=1.0,
                          lambda_decay=1e-4, sdae=sdae, max_epochs=30,
                          patience=4, seed=11)
    pmf_h = Hyperparams(n_factors=8, lambda_s=0.0, lambda_user=2.0,
                        lambda_item=2.0, lambda_context=0.05, sdae=None,
                        max_epochs=30, patience=4, seed=11)
    joint_curve, pmf_curve = [], []
    for pct in (10, 20, 50, 80):
        sub = subsample_ratings(ratings, pct / 100.0, seed=11)
        split = make_split(sub, "in_matrix", 0.2, 0.08, seed=11)
        state, _ = train(TrainData(split=split, ppmi=ppmi, docs=docs), joint_h)
        joint_curve.append(evaluate(state, split, docs).rmse)
        state, _ = train(TrainData(split=split), pmf_h)
        pmf_curve.append(evaluate(state, split).rmse)

    def check_monotone(curve, label):
        inversions = [b / a - 1 for a, b in zip(curve, curve[1:]) if b > a]
        assert len(inversions) <= 1, f"{label}: {curve}"
        assert all(size <= 0.01 for size in inversions), f"{label}: {curve}"

    check_monotone(joint_curve, "joint")
    check_monotone(pmf_curve, "degenerate")
    gaps = [p - j for j, p in zip(joint_curve, pmf_curve)]
    assert all(g > 0 for g in gaps), f"joint not uniformly better: {gaps}"
    assert gaps[0] == max(gaps), f"largest gap not at 10%: {gaps}"
    _announce(8, "joint " + "/".join(f"{r:.3f}" for r in joint_curve)
              + " vs degenerate " + "/".join(f"{r:.3f}" for r in pmf_curve)
              + f"; gaps {'/'.join(f'{g:+.3f}' for g in gaps)}")


def test_criterion_9_out_of_matrix_reads_only_user_and_text(tmp_path):
    """Held-out item predictions are bit-identical whether the item/context
    rows of the model reloaded from its checkpoint are intact or poisoned.
    A checkpoint cannot hold the NaN poison itself: loading rejects it."""
    config = SyntheticConfig(n_users=60, n_items=50, n_factors=4, vocab_size=16,
                             rating_density=0.3, rating_offset=5.0,
                             encoder_hidden=(8,))
    ratings, clicks, docs, _ = generate_synthetic(config, seed=14)
    split = make_split(ratings, "out_of_matrix", 0.2, 0.1, seed=14)
    ppmi = build_ppmi(clicks)
    sdae = SdaeConfig(hidden_widths=[8], pretrain_epochs=5)
    hyper = Hyperparams(n_factors=4, lambda_s=0.2, lambda_user=0.05,
                        lambda_item=1.0, lambda_context=0.05, lambda_recon=1.0,
                        lambda_decay=1e-4, sdae=sdae, max_epochs=8, patience=0,
                        seed=14)
    state, _ = train(TrainData(split=split, ppmi=ppmi, docs=docs), hyper)
    held_out = np.unique(split.test.items)
    first_pairs = split.test.replace_entries(split.test.users[:40], split.test.items[:40],
                                             split.test.ratings[:40])

    def predictions(model):
        return predict_ratings(model, first_pairs, "out_of_matrix", docs)

    base = predictions(state)
    path = tmp_path / "model.bin"
    save_checkpoint(path, state, hyper, user_ids=ratings.user_ids,
                    item_ids=ratings.item_ids, vocab=docs.vocab)
    reloaded, _, _ = load_checkpoint(path)
    reloaded.item_factors[held_out] = np.nan
    reloaded.context_factors[held_out] = np.nan
    assert np.array_equal(base, predictions(reloaded))
    report_base = evaluate(state, split, docs)
    report_poisoned = evaluate(reloaded, split, docs)
    assert report_base.rmse == report_poisoned.rmse
    _announce(9, f"{len(base)} cold-item predictions bit-identical with item and "
                 f"context rows poisoned (test RMSE {report_base.rmse:.4f})")


def test_criterion_10_cli_end_to_end_determinism(tmp_path):
    """Two `train` runs with the same config and --deterministic produce
    byte-identical checkpoints, traces, and evaluation reports."""
    paths = write_fixture(tmp_path)
    config = write_config(tmp_path, paths)
    assert cli_main(["ingest", "--config", str(config)]) == 0
    out = tmp_path / "out"
    artifacts = {}
    for attempt in range(2):
        assert cli_main(["train", "--config", str(config), "--deterministic"]) == 0
        assert cli_main(["eval", "--config", str(config), "--checkpoint",
                         str(out / "checkpoint.bin")]) == 0
        blobs = {name: (out / name).read_bytes()
                 for name in ("checkpoint.bin", "trace.csv", "report.txt",
                              "report.csv")}
        if attempt == 0:
            artifacts = blobs
        else:
            for name, blob in blobs.items():
                assert blob == artifacts[name], f"{name} differs between runs"
    _announce(10, "checkpoint, trace, and both reports byte-identical across runs")
