"""The scratch buffer that a training run's row-chunked loops share.

Every phase writes its chunk temporaries into views of one Scratch, so what a
phase returns must be a new array: a later call, which writes over the same
buffer, must not change it. Each result below is also checked bit for bit
against the same computation done without a shared buffer.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cofactor.corpus import DocTermMatrix, RatingDataset, binarize_ratings, make_split
from cofactor.factor import (Hyperparams, ModelState, TrainData, _solve_rows, _solve_spd,
                             predict_ratings, train)
from cofactor.ppmi import build_ppmi
from cofactor.scratch import Scratch
from cofactor.sdae import SdaeConfig, SdaeParams, corrupt, encode, init_params, sdae_pass
from cofactor.sparse import CHUNK_ROWS, CsrMatrix

from conftest import from_scipy, to_scipy
from oracles import solve_rows_reference


class TestScratch:
    def test_views_overlap_nothing_still_taken_and_frames_give_them_back(self):
        scratch = Scratch()
        with scratch.frame():
            scratch.take((64,))     # sizes the buffer for all the takes below
        with scratch.frame():
            a, b = scratch.take((3, 5), (7,))
            with scratch.frame():
                (flags,) = scratch.take((9,), dtype=bool)
                assert not any(np.shares_memory(flags, view) for view in (a, b))
            (c,) = scratch.take((4,))
            assert np.shares_memory(c, flags)   # flags was given back
            assert not any(np.shares_memory(c, view) for view in (a, b))
        (d,) = scratch.take((16,))
        assert np.shares_memory(d, a)
        for view in (a, b, flags, c, d):
            assert view.flags.c_contiguous and view.ctypes.data % 16 == 0

    def test_a_take_that_does_not_fit_leaves_earlier_views_intact(self):
        scratch = Scratch()
        (a,) = scratch.take((10,))
        a[:] = 1.0
        (b,) = scratch.take((100_000,))
        b[:] = 2.0
        assert (a == 1.0).all() and not np.shares_memory(a, b)
        assert scratch.size >= 100_000


def random_net(rng, widths):
    params = init_params(widths, rng)
    for w in params.weights:
        w += 0.1 * rng.standard_normal(w.shape)
    for b in params.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    return params


def text_rows(rng, sparse, n, v):
    rows = (rng.random((n, v)) < 0.3) * rng.random((n, v))
    return from_scipy(rows) if sparse else rows


def gathered_chunks_pass(params, x0, xc, beta, lam, decay):
    """sdae_pass as separate calls on copies of each chunk of rows, summed in
    order, then the decay term, as in test_sdae.py::TestSdaePassChunkViews."""
    sparse = isinstance(x0, CsrMatrix)

    def chunk(x, rows):
        return from_scipy(to_scipy(x)[rows]) if sparse else x[rows].copy()

    parts, total_sq = [], 0.0
    grads = None if beta is None else [np.zeros_like(v) for v in params.weights + params.biases]
    for start in range(0, x0.shape[0], CHUNK_ROWS):
        rows = np.arange(start, min(start + CHUNK_ROWS, x0.shape[0]))
        args = () if beta is None else (beta[rows],)
        part, sq, part_grads = sdae_pass(params, chunk(x0, rows), chunk(xc, rows), *args,
                                         **({} if beta is None else lam))
        parts.append(part)
        total_sq += sq
        if grads is not None:
            for total, grad in zip(grads, part_grads[0] + part_grads[1]):
                total += grad
    if grads is not None:
        for total, value in zip(grads, params.weights + params.biases):
            total += decay * value
    return np.concatenate(parts), total_sq, grads


def assert_owned_and_apart(results):
    """Each result owns its memory, and no two share any."""
    for i, a in enumerate(results):
        assert a.base is None
        for b in results[i + 1:]:
            assert not np.shares_memory(a, b)


class TestResultsDoNotAliasTheScratch:
    """Autoencoder passes of the full stack and of pretrain's layer pairs, block
    solves and rating predictions take turns on one Scratch. Every result
    equals its reference right after its call and after all later calls, and
    shares no memory with the buffer or with another result."""

    @pytest.mark.parametrize("n_rows", [1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 37])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_interleaved_calls_on_one_scratch(self, rng, n_rows, sparse):
        v, h, k = 12, 6, 3
        lam, decay = dict(lambda_anchor=0.7, lambda_recon=1.3), 0.05
        deep = random_net(rng, [v, h, k, h, v])         # hidden widths [h]
        shallow = random_net(rng, [v, k, v])            # hidden widths []
        outer = SdaeParams([deep.weights[0], deep.weights[3]], [deep.biases[0], deep.biases[3]])
        inner = SdaeParams([deep.weights[1], deep.weights[2]], [deep.biases[1], deep.biases[2]])
        xc = text_rows(rng, sparse, n_rows, v)
        x0 = corrupt(xc, 0.3, 5)
        hidden = encode(xc, outer)      # the rows pretrain's inner pair trains on
        hidden_noisy = corrupt(hidden, 0.3, 6)
        passes = [  # pretrain's pairs between passes of the full stacks, with and without β
            (deep, x0, xc, rng.random((n_rows, k))),
            (outer, x0, xc, 0.0),
            (inner, hidden_noisy, hidden, 0.0),
            (deep, x0, xc, None),
            (shallow, x0, xc, rng.random((n_rows, k))),
            (outer, x0, xc, None),
            (shallow, x0, xc, None),
        ]
        scratch = Scratch()
        results, wanted = [], []
        for params, noisy, clean, beta in passes:
            args = () if beta is None else (beta,)
            kwargs = {} if beta is None else dict(lam, lambda_decay=decay)
            encoding, error, grads = sdae_pass(params, noisy, clean, *args, scratch=scratch,
                                               **kwargs)
            want_enc, want_sq, want_grads = gathered_chunks_pass(
                params, noisy, clean, None if beta is None else
                np.broadcast_to(beta, encoding.shape), lam, decay)
            assert error == want_sq
            results.append(encoding)
            wanted.append(want_enc)
            if grads is not None:
                results += grads[0] + grads[1]
                wanted += want_grads
        # block solves of both shapes and predictions, on the same scratch
        for n_terms in (1, 2):
            terms = [(1.0, random_csr(rng, n_rows, 40, 0.2), rng.standard_normal((40, 8)))]
            if n_terms == 2:
                terms.append((0.7, random_csr(rng, n_rows, n_rows, 0.1),
                              rng.standard_normal((n_rows, 8))))
            anchor = rng.standard_normal((n_rows, 8)) if n_terms == 2 else None
            solved, want = np.empty((n_rows, 8)), np.empty((n_rows, 8))
            _solve_rows(solved, 0.4, terms, anchor, scratch)
            solve_rows_reference(want, 0.4, terms, anchor, _solve_spd, CHUNK_ROWS)
            results.append(solved)
            wanted.append(want)
        state = ModelState(rng.standard_normal((n_rows, k)), rng.standard_normal((n_rows, k)),
                           np.zeros((n_rows, k)), shallow, rating_offset=0.5)
        ratings = RatingDataset(rng.integers(0, n_rows, 3 * n_rows),
                                rng.integers(0, n_rows, 3 * n_rows),
                                rng.standard_normal(3 * n_rows),
                                tuple(map(str, range(n_rows))), tuple(map(str, range(n_rows))))
        docs = DocTermMatrix(tuple(f"t{j}" for j in range(v)),
                             xc if sparse else from_scipy(xc))
        for mode, table in (("in_matrix", state.item_factors),
                            ("out_of_matrix", encode(docs.rows, shallow))):
            results.append(predict_ratings(state, ratings, mode, docs, scratch))
            wanted.append(np.einsum("ij,ij->i", state.user_factors[ratings.users],
                                    table[ratings.items]) + 0.5)
        snapshots = [result.copy() for result in results]
        sdae_pass(deep, x0, xc, rng.random((n_rows, k)), scratch=scratch, **lam)  # writes it all
        for result, snapshot, want in zip(results, snapshots, wanted):
            np.testing.assert_array_equal(snapshot, want)
            np.testing.assert_array_equal(result, snapshot)
            assert not np.shares_memory(result, scratch._buffer)
        assert_owned_and_apart(results)


def random_csr(rng, n_rows, n_cols, density) -> CsrMatrix:
    mask = rng.random((n_rows, n_cols)) < density
    rows, cols = np.nonzero(mask)
    return CsrMatrix((n_rows, n_cols), np.searchsorted(rows, np.arange(n_rows + 1)),
                     cols, rng.standard_normal(len(rows)))


def coldstart_shaped_world(seed):
    """Training data shaped like the benchmark's coldstart-text world: 1000
    users, 900 items, 24,000 ratings, a 40-term document over 900 words per
    item, whole items held out, and the PPMI of the binarized training ratings;
    with its config (K 32, no hidden layer, 3 epochs, 5 pretraining epochs)."""
    rng = np.random.default_rng(seed)
    n_users, n_items, vocab, terms = 1000, 900, 900, 40
    pairs = rng.choice(n_users * n_items, 24_000, replace=False)
    ratings = RatingDataset(pairs // n_items, pairs % n_items,
                            rng.integers(1, 6, len(pairs)).astype(np.float64),
                            tuple(f"u{u}" for u in range(n_users)),
                            tuple(f"i{i}" for i in range(n_items)))
    cols = np.sort(np.argsort(rng.random((n_items, vocab)), axis=1)[:, :terms], axis=1)
    docs = DocTermMatrix(tuple(f"w{j}" for j in range(vocab)), CsrMatrix(
        (n_items, vocab), np.arange(0, n_items * terms + 1, terms), cols.ravel(),
        rng.random(n_items * terms)))
    split = make_split(ratings, "out_of_matrix", 0.2, 0.08, seed)
    data = TrainData(split=split, ppmi=build_ppmi(binarize_ratings(split.train)), docs=docs)
    hyper = Hyperparams(n_factors=32, lambda_s=1.0, lambda_user=5.0, lambda_item=50.0,
                        lambda_context=0.1, lambda_recon=1.0, lambda_decay=1e-4,
                        sdae=SdaeConfig(hidden_widths=[], noise_rate=0.3, pretrain_epochs=5,
                                        learning_rate=1.0),
                        max_epochs=3, patience=0, seed=seed, center_ratings=True)
    return data, hyper


def state_arrays(state):
    return [state.user_factors, state.item_factors, state.context_factors,
            *state.sdae.weights, *state.sdae.biases]


@pytest.fixture(scope="module")
def coldstart_world():
    return coldstart_shaped_world(3)


class TestTrainInOneProcess:
    def test_a_later_train_changes_no_returned_array(self, coldstart_world):
        data, hyper = coldstart_world
        first, _ = train(data, hyper)
        snapshot = [array.copy() for array in state_arrays(first)]
        other, _ = train(data, dataclasses.replace(hyper, seed=4, max_epochs=2))
        again, _ = train(data, hyper)
        assert_owned_and_apart(state_arrays(first) + state_arrays(other) + state_arrays(again))
        for array, kept, repeated in zip(state_arrays(first), snapshot, state_arrays(again)):
            np.testing.assert_array_equal(array, kept)
            np.testing.assert_array_equal(array, repeated)


# Run in a child, through the CLI as `cofactor train` runs it: how often a
# chunk's temporaries are mapped afresh depends on what the process freed
# before, so a pytest process full of other tests' arrays would not show it.
FAULTS_CHILD = """
import resource, sys
from cofactor import cli
faults, train = [], cli.train
def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = train(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return result
cli.train = counted
for command in ("ingest", "train", "train"):
    assert cli.main([command, "--config", sys.argv[1]]) == 0
print(faults[-1])
"""


def write_coldstart_shaped_inputs(tmp_path, seed=3):
    """Text inputs and a config shaped like the benchmark's coldstart-text
    world (see coldstart_shaped_world); returns the config's path."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(1000 * 900, 24_000, replace=False)
    (tmp_path / "ratings.txt").write_text("".join(
        f"u{p // 900} i{p % 900} {value:.4f}\n"
        for p, value in zip(pairs.tolist(), rng.uniform(1, 7, len(pairs)).tolist())))
    (tmp_path / "docs.txt").write_text("".join(
        f"i{i}\t" + " ".join(f"w{w}" for w in rng.integers(0, 900, 40).tolist()) + "\n"
        for i in range(900)))
    config = {"paths": {"ratings": "ratings.txt", "clicks": None, "documents": "docs.txt",
                        "output_dir": "out"},
              "seed": seed,
              "split": {"mode": "out_of_matrix", "test_fraction": 0.2,
                        "validation_fraction": 0.08},
              "hyper": {"n_factors": 32, "lambda_s": 1.0, "lambda_user": 5.0,
                        "lambda_item": 50.0, "lambda_context": 0.1, "lambda_recon": 1.0,
                        "lambda_decay": 1e-4, "max_epochs": 3, "patience": 0,
                        "center_ratings": True},
              "text": {"enabled": True, "vocab_size": 900, "bow_scheme": "tfidf",
                       "hidden_widths": [], "noise_rate": 0.3, "pretrain_epochs": 5,
                       "learning_rate": 1.0},
              "sweep": {"lambda_s_grid": [0.1], "sparsity_grid": []}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestTrainFaults:
    def test_second_train_in_a_process_stays_under_a_minor_fault_budget(self, tmp_path):
        # Measured on this world (2-vCPU Xeon, one BLAS thread): 1.2k minor
        # faults with the scratch buffer, 16.7k when every chunk temporary
        # was a new array (25.5k on the benchmark's own seed-3 world).
        resource = pytest.importorskip("resource")
        if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
            pytest.skip("this platform does not count minor faults")
        config = write_coldstart_shaped_inputs(tmp_path)
        child = subprocess.run([sys.executable, "-c", FAULTS_CHILD, str(config)],
                               cwd=tmp_path, capture_output=True, text=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert child.returncode == 0, child.stderr
        faults = int(child.stdout.split()[-1])
        assert faults < 6000, faults
