import dataclasses
import io

import numpy as np
import pytest
import scipy.sparse as sp

from cofactor.corpus import DocTermMatrix, EvalSplit, make_split
from cofactor import predict_eval
from cofactor.errors import ValidationError
from cofactor.factor import Hyperparams, ModelState, TrainData, train
from cofactor.predict_eval import (EvalReport, evaluate, rmse, sweep_lambda_s,
                                   sweep_sparsity, write_trace_csv)

from conftest import from_scipy, to_scipy
from test_factor import synthetic_train_data
from worlds import SyntheticConfig, generate_synthetic


class TestRmse:
    def test_perfect_fit(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rmse([2.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_permutation_invariant(self, rng):
        p, t = rng.random(20), rng.random(20)
        order = rng.permutation(20)
        assert rmse(p, t) == pytest.approx(rmse(p[order], t[order]), rel=1e-12)

    def test_symmetric_in_arguments(self, rng):
        p, t = rng.random(15), rng.random(15)
        assert rmse(p, t) == rmse(t, p)

    def test_empty_and_mismatched(self):
        with pytest.raises(ValidationError):
            rmse([], [])
        with pytest.raises(ValidationError):
            rmse([1.0], [1.0, 2.0])


def _true_state_split(seed=3):
    config = SyntheticConfig(n_users=25, n_items=20, n_factors=3,
                             rating_density=0.5, sigma_rating=0.0,
                             rating_offset=5.0)
    ratings, _, docs, state = generate_synthetic(config, seed=seed)
    return ratings, docs, state


class TestEvaluate:
    def test_memorization_on_zero_noise_fit(self):
        ratings, docs, state = _true_state_split()
        split = EvalSplit(train=ratings, validation=ratings, test=ratings, mode="in_matrix")
        report = evaluate(state, split, docs)
        assert report.rmse < 1e-6
        assert report.n_predictions == ratings.n_entries

    def test_test_user_past_the_end_rejected(self):
        # used to end in an IndexError inside the prediction
        ratings, docs, state = _true_state_split()
        with pytest.raises(ValidationError, match="'users' has an index outside"):
            test = ratings.replace_entries(np.array([ratings.n_users]), np.array([0]),
                                           np.array([4.0]))
            evaluate(state, EvalSplit(train=ratings, validation=ratings, test=test,
                                      mode="in_matrix"), docs)

    def test_out_of_matrix_ignores_item_and_context_factors(self):
        data = synthetic_train_data(seed=12)
        config = SyntheticConfig(n_users=40, n_items=30, n_factors=3,
                                 vocab_size=12, rating_density=0.3,
                                 rating_offset=4.0, encoder_hidden=(6,))
        ratings, _, docs, _ = generate_synthetic(config, seed=12)
        split = make_split(ratings, "out_of_matrix", 0.2, 0.1, seed=12)
        from cofactor.sdae import SdaeConfig
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, lambda_user=0.05,
                            lambda_item=1.0, lambda_context=0.05,
                            lambda_recon=1.0,
                            sdae=SdaeConfig(hidden_widths=[6],
                                            pretrain_epochs=3),
                            max_epochs=3, patience=0, seed=12)
        state, _ = train(TrainData(split=split, docs=docs), hyper)
        report = evaluate(state, split, docs)
        poisoned = state.copy()
        poisoned.item_factors[:] = np.nan
        poisoned.context_factors[:] = np.nan
        report_poisoned = evaluate(poisoned, split, docs)
        assert report.rmse == report_poisoned.rmse

    def test_cold_users_counted_and_predicted_at_offset(self):
        ratings, docs, state = _true_state_split()
        # hold user 0's ratings out of train entirely
        keep = ratings.users != 0
        train_ds = ratings.replace_entries(ratings.users[keep], ratings.items[keep],
                                           ratings.ratings[keep])
        test_ds = ratings.replace_entries(ratings.users[~keep], ratings.items[~keep],
                                          ratings.ratings[~keep])
        split = EvalSplit(train=train_ds, validation=train_ds, test=test_ds, mode="in_matrix")
        cold_state = state.copy()
        cold_state.user_factors[0] = 0.0
        report = evaluate(cold_state, split, docs)
        assert report.n_cold_user_predictions == test_ds.n_entries

    def test_missing_text_counted(self):
        ratings, docs, state = _true_state_split()
        blank = to_scipy(docs.rows).tolil()
        blank[3, :] = 0
        docs_blank = dataclasses.replace(docs, rows=from_scipy(blank.tocsr()))
        mask = ratings.items == 3
        test_ds = ratings.replace_entries(ratings.users[mask], ratings.items[mask],
                                          ratings.ratings[mask])
        keep = ~mask
        train_ds = ratings.replace_entries(ratings.users[keep], ratings.items[keep],
                                           ratings.ratings[keep])
        split = EvalSplit(train=train_ds, validation=train_ds, test=test_ds,
                          mode="out_of_matrix")
        report = evaluate(state, split, docs_blank)
        assert report.n_missing_text_items == 1
        assert np.isfinite(report.rmse)

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_user_and_missing_text_counts_match_sets(self, seed):
        # out of matrix, with users lacking a training rating, rated more than
        # once in test, and test items without text (some tested twice or more)
        ratings, docs, state = _true_state_split(seed)
        rng = np.random.default_rng(seed)
        split = make_split(ratings, "out_of_matrix", 0.3, 0.1, seed=seed)
        cold_users = rng.choice(ratings.n_users, size=4, replace=False)
        keep = ~np.isin(split.train.users, cold_users)
        train_ds = split.train.replace_entries(split.train.users[keep],
                                               split.train.items[keep],
                                               split.train.ratings[keep])
        no_text = rng.choice(np.unique(split.test.items), size=2, replace=False)
        blank = to_scipy(docs.rows).tolil()
        blank[no_text, :] = 0
        docs_blank = dataclasses.replace(docs, rows=from_scipy(blank.tocsr()))
        report = evaluate(state, dataclasses.replace(split, train=train_ds), docs_blank)
        trained_users = set(train_ds.users.tolist())
        textless = {i for i in range(docs.n_items) if docs_blank.rows[i:i + 1].nnz == 0}
        assert report.n_cold_user_predictions == sum(
            u not in trained_users for u in split.test.users.tolist()) > 0
        assert report.n_missing_text_items == len(set(split.test.items.tolist()) & textless) >= 2

    def test_clamping(self):
        state = ModelState(np.array([[10.0]]), np.array([[10.0]]),
                           np.zeros((1, 1)), None)
        from conftest import make_ratings
        ds = make_ratings([(0, 0, 8.0)])
        split = EvalSplit(train=ds, validation=ds, test=ds, mode="in_matrix")
        raw = evaluate(state, split)
        clamped = evaluate(state, split, clamp=(1.0, 10.0))
        assert raw.rmse == pytest.approx(92.0)
        assert clamped.rmse == pytest.approx(2.0)

    def test_deterministic(self):
        ratings, docs, state = _true_state_split()
        split = EvalSplit(train=ratings, validation=ratings, test=ratings, mode="in_matrix")
        assert evaluate(state, split, docs) == evaluate(state, split, docs)

    def test_report_serialization(self, tmp_path):
        report = EvalReport(mode="in_matrix", rmse=1.25, n_predictions=10,
                            n_cold_user_predictions=1, n_missing_text_items=0,
                            config_fingerprint="deadbeef")
        sink = io.StringIO()
        report.write_text(sink)
        text = sink.getvalue()
        assert "rmse: 1.25" in text and "mode: in_matrix" in text
        sink = io.StringIO()
        report.write_csv(sink, lambda_s=0.5, epoch=7)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "mode,lambda_s,epoch,rmse,n_predictions,config"
        assert lines[1].startswith("in_matrix,0.5,7,1.25,10,deadbeef")


class TestTableSizes:
    """The predictor reads one user-table row per user and one item-table row
    per item of the ratings. A smaller table used to end in a raw IndexError,
    a larger one to be scored without complaint."""

    @staticmethod
    def split(mode):
        ratings, docs, state = _true_state_split()
        return EvalSplit(train=ratings, validation=ratings, test=ratings, mode=mode), docs, state

    @staticmethod
    def resized(table, change):
        if change < 0:
            return table[:change]
        return np.concatenate([table, np.zeros((change, table.shape[1]))])

    @pytest.mark.parametrize("change", [-3, 2])
    @pytest.mark.parametrize("mode, table", [("in_matrix", "user_factors"),
                                             ("in_matrix", "item_factors"),
                                             ("out_of_matrix", "user_factors")])
    def test_factor_table_of_another_size_rejected(self, mode, table, change):
        split, docs, state = self.split(mode)
        bad = dataclasses.replace(state, **{table: self.resized(getattr(state, table), change)})
        with pytest.raises(ValidationError, match=table.replace("_", " ") + " have"):
            evaluate(bad, split, docs)

    @pytest.mark.parametrize("change", [-3, 2])
    def test_document_rows_of_another_size_rejected(self, change):
        split, docs, state = self.split("out_of_matrix")
        rows = to_scipy(docs.rows)
        rows = (rows[:change] if change < 0
                else sp.vstack([rows, sp.csr_matrix((change, rows.shape[1]))], format="csr"))
        bad = DocTermMatrix(docs.vocab, from_scipy(rows))
        with pytest.raises(ValidationError, match="document rows have"):
            evaluate(state, split, bad)


class TestSweep:
    def test_single_point_equals_direct_train(self):
        data = synthetic_train_data(seed=21)
        hyper = Hyperparams(n_factors=3, lambda_s=0.4, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=4, patience=0, seed=21)
        points = sweep_lambda_s(data, hyper, [0.4])
        state, trace = train(data, hyper)
        direct = evaluate(state, data.split, data.docs)
        assert len(points) == 1
        assert points[0].lambda_s == 0.4
        assert points[0].validation_rmse == pytest.approx(trace.best_validation_rmse)
        assert points[0].test_rmse == pytest.approx(direct.rmse)

    def test_zero_entry_is_the_degenerate_run(self):
        data = synthetic_train_data(seed=22)
        hyper = Hyperparams(n_factors=3, lambda_s=5.0, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=4, patience=0, seed=22)
        points = sweep_lambda_s(data, hyper, [0.0, 1.0])
        degenerate = dataclasses.replace(hyper, lambda_s=0.0)
        state, _ = train(data, degenerate)
        direct = evaluate(state, data.split, data.docs)
        assert points[0].test_rmse == pytest.approx(direct.rmse, rel=1e-12)

    @pytest.mark.parametrize("lambda_s, with_clicks, trains", [
        (0.0, False, 1),    # the joint model is the ratings-only model
        (0.0, True, 1),     # the same: at lambda_s 0 train() reads no PPMI
        (0.4, True, 2),     # another model
    ])
    def test_sparsity_trains_ratings_only_model_once_when_it_is_the_joint_one(
            self, monkeypatch, lambda_s, with_clicks, trains):
        data = synthetic_train_data(seed=25, with_text=False, with_clicks=with_clicks)
        hyper = Hyperparams(n_factors=3, lambda_s=lambda_s, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=3, patience=0, seed=25)
        counted = []

        def counting_train(*args):
            counted.append(args)
            return train(*args)

        monkeypatch.setattr(predict_eval, "train", counting_train)
        points = sweep_sparsity(lambda fraction: data, hyper, [100])
        assert len(counted) == trains
        pmf_hyper = dataclasses.replace(hyper, lambda_s=0.0)
        state, _ = train(TrainData(split=data.split), pmf_hyper)
        assert points[0].pmf_test_rmse == evaluate(state, data.split).rmse

    def test_empty_grid_rejected(self):
        data = synthetic_train_data(seed=23)
        with pytest.raises(ValidationError):
            sweep_lambda_s(data, Hyperparams(n_factors=3, sdae=None), [])

    def test_errors_tagged_with_lambda(self):
        data = synthetic_train_data(seed=24)
        from cofactor.errors import CofactorError
        with pytest.raises(CofactorError, match="lambda_s=-2.0"):
            sweep_lambda_s(data, Hyperparams(n_factors=3, sdae=None), [-2.0])


class TestTraceCsv:
    def test_header_labels_run_and_rows_parse(self):
        data = synthetic_train_data(seed=25, with_text=False, with_clicks=False)
        hyper = Hyperparams(n_factors=3, lambda_s=0.0, lambda_user=0.05,
                            lambda_item=0.5, lambda_context=0.05, sdae=None,
                            max_epochs=3, patience=0, seed=25)
        _, trace = train(data, hyper)
        sink = io.StringIO()
        write_trace_csv(trace, sink, config_fingerprint="cafe01")
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "# run: pmf-degenerate, config: cafe01"
        assert lines[1].split(",")[0] == "epoch"
        assert len(lines) == 2 + len(trace.epochs)
        table = np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",", skiprows=2)
        assert table.shape == (3, 7)
