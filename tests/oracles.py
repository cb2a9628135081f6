"""Independent oracles the tests check the production code against.

Everything here is deliberately written the slow, obvious way (python sets,
per-entry loops, finite differences) and shares no code with the package; the
line parsers raise the package's error types, whose messages they must match.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from cofactor.errors import ParseError, ValidationError


def brute_force_ppmi(user_clicks: list[set[int]]) -> dict[tuple[int, int], float]:
    """PPMI by direct enumeration of users per item pair. Keys are (i, j), i < j."""
    item_users: dict[int, set[int]] = {}
    for user, items in enumerate(user_clicks):
        for item in items:
            item_users.setdefault(item, set()).add(user)
    total_pairs = sum(len(items) * (len(items) - 1) // 2 for items in user_clicks)
    result: dict[tuple[int, int], float] = {}
    all_items = sorted(item_users)
    for a_pos, i in enumerate(all_items):
        for j in all_items[a_pos + 1:]:
            both = len(item_users[i] & item_users[j])
            if both == 0 or total_pairs == 0:
                continue
            value = math.log(both * total_pairs / (len(item_users[i]) * len(item_users[j])))
            if value > 0:
                result[(i, j)] = value
    return result


def csr_reference(shape, rows, cols, data) -> sp.csr_matrix:
    """scipy's CSR of COO triplets: canonical order, duplicates summed."""
    return sp.csr_matrix((np.asarray(data), (rows, cols)), shape=shape)


def unordered_row_reference(n_cols, indptr, indices) -> int | None:
    """The first row whose columns repeat or fall out of order, or None when
    every row's columns strictly increase: one int64 key row·n_cols + column
    per entry, which increases over the whole matrix iff it is canonical.
    `indptr` and `indices` must already be consistent with each other."""
    indptr = np.asarray(indptr)
    key = (np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)) * n_cols
           + np.asarray(indices))
    unordered = np.flatnonzero(np.diff(key) <= 0)
    return int(key[unordered[0] + 1] // n_cols) if unordered.size else None


def cooccurrence_reference(users, items, n_users, n_items):
    """(item_counts, pair_counts, total_pairs) through scipy's sparse product:
    distinct users per item, co-clicking users per item pair i ≠ j as a
    symmetric CSR with an empty diagonal, and Σ_u c_u (c_u − 1) / 2."""
    mat = sp.csr_matrix((np.ones(len(users), dtype=np.int64), (users, items)),
                        shape=(n_users, n_items))
    mat.data[:] = 1  # collapse any duplicate pairs
    item_counts = np.asarray(mat.sum(axis=0), dtype=np.int64).ravel()
    per_user = np.diff(mat.indptr)
    total_pairs = int((per_user * (per_user - 1) // 2).sum())
    co = (mat.T @ mat).tocoo()
    off_diagonal = co.row != co.col
    pair_counts = sp.csr_matrix(
        (co.data[off_diagonal].astype(np.int64),
         (co.row[off_diagonal], co.col[off_diagonal])),
        shape=(n_items, n_items))
    return item_counts, pair_counts, total_pairs


def ppmi_reference(item_counts, pair_counts, total_pairs) -> sp.csr_matrix:
    """Symmetric CSR of the strictly positive log(#(i,j)·|pairs| / (#(i)·#(j))),
    from the symmetric `pair_counts` of cooccurrence_reference: the upper
    triangle's values, mirrored onto the lower one."""
    n_items = len(item_counts)
    coo = pair_counts.tocoo()
    upper = coo.row < coo.col
    count, row, col = coo.data[upper], coo.row[upper], coo.col[upper]
    numer = count.astype(np.float64) * float(total_pairs)
    denom = (item_counts[row].astype(np.float64)
             * item_counts[col].astype(np.float64))
    pmi = np.log(numer / denom)
    keep = pmi > 0
    row, col, val = row[keep], col[keep], pmi[keep]
    return sp.csr_matrix(
        (np.concatenate([val, val]),
         (np.concatenate([row, col]), np.concatenate([col, row]))),
        shape=(n_items, n_items))


def masked_reference(rows: sp.csr_matrix, noise_rate, rng) -> sp.csr_matrix:
    """Masking noise on a scipy CSR: one uniform draw per stored value from
    `rng`, the value zeroed when its draw is below noise_rate, zeros dropped."""
    noisy = rows.copy().tocsr()
    noisy.data = noisy.data * (rng.random(noisy.data.shape) >= noise_rate)
    noisy.eliminate_zeros()
    return noisy


def solve_rows_reference(out, ridge, terms, anchor, solve, chunk_rows):
    """The block solver as a per-row accumulation: each chunk of `chunk_rows`
    rows starts from ridge·I and ridge·anchor, and every stored row adds
    w·BᵀB and w·Bᵀv of its gathered basis rows onto them. `solve` is the
    stacked SPD solve under test, so that only the assembly differs; `terms`
    are (weight, matrix, basis) with a CSR matrix of indptr, indices, data.
    """
    n_rows, k = out.shape
    for start in range(0, n_rows, chunk_rows):
        stop = min(start + chunk_rows, n_rows)
        gram = np.repeat(ridge * np.eye(k)[None], stop - start, axis=0)
        rhs = np.zeros((stop - start, k)) if anchor is None else ridge * anchor[start:stop]
        for weight, matrix, basis in terms:
            bounds = matrix.indptr[start:stop + 1].tolist()
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if lo < hi:
                    rows = basis[matrix.indices[lo:hi]]
                    gram[r] += weight * (rows.T @ rows)
                    rhs[r] += weight * (rows.T @ matrix.data[lo:hi])
        solve(gram, rhs, ridge, out[start:stop])


def pmf_als_reference(users, items, values, n_users, n_items, k, lambda_user,
                      lambda_item, seed, n_epochs, val_users, val_items, val_values):
    """Plain alternating-least-squares matrix factorization, loops and LU solves.

    Initialization mirrors the trainer's contract: one generator, user factors
    drawn first, then item factors, both scaled by 0.01. Returns per-epoch
    losses, per-epoch validation RMSEs, and the final factor matrices.
    """
    rng = np.random.default_rng(seed)
    theta = 0.01 * rng.standard_normal((n_users, k))
    beta = 0.01 * rng.standard_normal((n_items, k))
    rated_by_user = [[] for _ in range(n_users)]
    rated_by_item = [[] for _ in range(n_items)]
    for idx in range(len(values)):
        rated_by_user[users[idx]].append(idx)
        rated_by_item[items[idx]].append(idx)
    losses, val_rmses = [], []
    eye = np.eye(k)
    for _ in range(n_epochs):
        for u in range(n_users):
            a = lambda_user * eye.copy()
            b = np.zeros(k)
            for idx in rated_by_user[u]:
                vec = beta[items[idx]]
                a += np.outer(vec, vec)
                b += values[idx] * vec
            theta[u] = np.linalg.solve(a, b)
        for i in range(n_items):
            a = lambda_item * eye.copy()
            b = np.zeros(k)
            for idx in rated_by_item[i]:
                vec = theta[users[idx]]
                a += np.outer(vec, vec)
                b += values[idx] * vec
            beta[i] = np.linalg.solve(a, b)
        loss = 0.0
        for idx in range(len(values)):
            loss += 0.5 * (values[idx] - theta[users[idx]] @ beta[items[idx]]) ** 2
        loss += 0.5 * lambda_user * float((theta ** 2).sum())
        loss += 0.5 * lambda_item * float((beta ** 2).sum())
        losses.append(loss)
        err = [val_values[idx] - theta[val_users[idx]] @ beta[val_items[idx]]
               for idx in range(len(val_values))]
        val_rmses.append(float(np.sqrt(np.mean(np.square(err)))))
    return losses, val_rmses, theta, beta


def block_gradients(theta, beta, alpha, users, items, values, s_rows, s_cols,
                    s_values, anchor, lambda_s, lambda_user, lambda_item,
                    lambda_context):
    """Per-row gradients of the joint loss over the three factor blocks.

    `anchor` is the item-anchor matrix (zeros when the text model is off);
    the pair arrays list ordered pairs, both directions of each stored entry.
    """
    n_users, k = theta.shape
    n_items = beta.shape[0]
    g_theta = lambda_user * theta.copy()
    g_beta = lambda_item * (beta - anchor)
    g_alpha = lambda_context * alpha.copy()
    for idx in range(len(values)):
        u, i = users[idx], items[idx]
        resid = theta[u] @ beta[i] - values[idx]
        g_theta[u] += resid * beta[i]
        g_beta[i] += resid * theta[u]
    for idx in range(len(s_values)):
        i, j = s_rows[idx], s_cols[idx]
        resid = beta[i] @ alpha[j] - s_values[idx]
        g_beta[i] += lambda_s * resid * alpha[j]
        g_alpha[j] += lambda_s * resid * beta[i]
    return g_theta, g_beta, g_alpha


def joint_loss_reference(theta, beta, alpha, users, items, values, s_rows, s_cols,
                         s_values, anchor, lambda_s, lambda_user, lambda_item,
                         lambda_context):
    """Factor-side joint loss by per-entry loops (no autoencoder terms).

    The pair arrays list ordered pairs, both directions of each stored entry;
    `anchor` is zero when the text model is off.
    """
    loss = 0.0
    for idx in range(len(values)):
        loss += 0.5 * (values[idx] - theta[users[idx]] @ beta[items[idx]]) ** 2
    for idx in range(len(s_values)):
        loss += 0.5 * lambda_s * (s_values[idx] - beta[s_rows[idx]] @ alpha[s_cols[idx]]) ** 2
    loss += 0.5 * lambda_user * float((theta ** 2).sum())
    loss += 0.5 * lambda_item * float(((beta - anchor) ** 2).sum())
    loss += 0.5 * lambda_context * float((alpha ** 2).sum())
    return loss


def pair_loss_reference(matrix, beta, alpha):
    """Σ (s_ij − β_i·α_j)² over the stored entries of a CSR matrix (any object
    with shape, indptr, indices and data), by gathering β_i and α_j for every
    stored entry."""
    coo = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                        shape=matrix.shape).tocoo()
    resid = coo.data - np.einsum("ij,ij->i", beta[coo.row], alpha[coo.col])
    return float(resid @ resid)


def numeric_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        hi = fn(x)
        flat[idx] = orig - step
        lo = fn(x)
        flat[idx] = orig
        out[idx] = (hi - lo) / (2.0 * step)
    return grad


def _line_records(source, form):
    """(line number, fields) per non-blank line, iterating `source` by lines."""
    for line_no, raw in enumerate(source, start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != len(form.split()):
            raise ParseError(f"expected {form!r}, got {raw.strip()!r}", line_no)
        yield line_no, fields


def parse_ratings_reference(source):
    """(users, items, ratings, user_ids, item_ids) of `user item rating` lines,
    one line at a time: each line is checked for its field count, a rating that
    is a number, finite and > 0, then a pair not seen before, and the first
    failing check raises."""
    user_index, item_index = {}, {}
    users, items, values, seen = [], [], [], set()
    for line_no, (uid, iid, rtext) in _line_records(source, "user item rating"):
        try:
            rating = float(rtext)
        except ValueError:
            raise ParseError(f"rating {rtext!r} is not a number", line_no) from None
        if not math.isfinite(rating) or rating <= 0:
            raise ValidationError(f"line {line_no}: rating must be finite and > 0, got {rating}")
        u = user_index.setdefault(uid, len(user_index))
        i = item_index.setdefault(iid, len(item_index))
        if (u, i) in seen:
            raise ValidationError(f"line {line_no}: duplicate rating for pair ({uid!r}, {iid!r})")
        seen.add((u, i))
        users.append(u)
        items.append(i)
        values.append(rating)
    return users, items, values, tuple(user_index), tuple(item_index)


def parse_clicks_reference(source, user_index_map, item_index_map):
    """(sorted distinct (user, item) pairs, count of dropped lines) of
    `user item` lines, one line at a time; a line naming an unknown id is dropped."""
    pairs, dropped = set(), 0
    for _, (uid, iid) in _line_records(source, "user item"):
        if uid in user_index_map and iid in item_index_map:
            pairs.add((user_index_map[uid], item_index_map[iid]))
        else:
            dropped += 1
    return sorted(pairs), dropped


def split_reference(items, n_items, mode, test_fraction, validation_fraction, seed):
    """Entry indices (train, validation, test) of make_split, by per-entry loops.

    Draws the same seeded permutation as the package: of the entries for
    in_matrix, where each item's first entry in that order stays in train, and
    of the items for out_of_matrix, where test items come first, then
    validation items. Each index list is sorted.
    """
    rng = np.random.default_rng(seed)
    if mode == "in_matrix":
        n = len(items)
        n_test, n_val = int(round(test_fraction * n)), int(round(validation_fraction * n))
        anchors, pool, seen = [], [], set()
        for idx in rng.permutation(n).tolist():
            if items[idx] in seen:
                pool.append(idx)
            else:
                seen.add(items[idx])
                anchors.append(idx)
        parts = (anchors + pool[n_test + n_val:], pool[n_test:n_test + n_val], pool[:n_test])
    else:
        perm = rng.permutation(n_items).tolist()
        n_test = int(round(test_fraction * n_items))
        n_val = int(round(validation_fraction * n_items))
        test_items, val_items = set(perm[:n_test]), set(perm[n_test:n_test + n_val])
        parts = ([], [], [])
        for idx, item in enumerate(items):
            owner = 2 if item in test_items else 1 if item in val_items else 0
            parts[owner].append(idx)
    return tuple(sorted(part) for part in parts)


def pretrain_reference(rows, layer_widths, noise_rate, epochs, learning_rate, seed):
    """Greedy layer-wise denoising pretraining, each encoder/decoder pair
    backpropagated by hand. Returns (weights, biases).

    Draws what the package draws from one seeded generator, in its order:
    weights uniform in ±sqrt(6 / (fan_in + fan_out)) layer by layer with zero
    biases, then per epoch one uniform per stored input value, zeroing the
    value when the draw is below noise_rate. Each step descends the mean over
    rows of ½‖h − reconstruct(noisy h)‖², h being the clean rows propagated
    through the encoder layers trained so far.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(layer_widths[:-1], layer_widths[1:]):
        limit = math.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    n_layers, n_rows = len(weights), rows.shape[0]
    h = rows
    for depth in range(n_layers // 2):
        enc, dec = depth, n_layers - 1 - depth
        for _ in range(epochs):
            if sp.issparse(h):
                noisy = masked_reference(h, noise_rate, rng)
            else:
                noisy = h * (rng.random(h.shape) >= noise_rate)
            hidden = expit(noisy @ weights[enc] + biases[enc])
            output = expit(hidden @ weights[dec] + biases[dec])
            target = h.toarray() if sp.issparse(h) else h
            delta_out = (output - target) * output * (1.0 - output) / n_rows
            grad_w_dec = hidden.T @ delta_out
            grad_b_dec = delta_out.sum(axis=0)
            delta_hid = (delta_out @ weights[dec].T) * hidden * (1.0 - hidden)
            grad_w_enc = np.asarray(noisy.T @ delta_hid)
            grad_b_enc = delta_hid.sum(axis=0)
            weights[dec] -= learning_rate * grad_w_dec
            biases[dec] -= learning_rate * grad_b_dec
            weights[enc] -= learning_rate * grad_w_enc
            biases[enc] -= learning_rate * grad_b_enc
        h = expit(h @ weights[enc] + biases[enc])
    return weights, biases


def sdae_pass_reference(weights, biases, x0, xc, beta, lambda_anchor, lambda_recon,
                        lambda_decay):
    """The autoencoder pass over all rows at once, on dense copies of the rows.

    Returns (encoding, recon_sq, grads_w, grads_b): the middle layer of the
    sigmoid stack on x0, Σ‖xc − output‖², and the gradients of
    (λ_anchor/2)·Σ‖β − encoding‖² + (λ_recon/2)·recon_sq + (λ_decay/2)·(‖W‖² + ‖b‖²)
    by backpropagation through every layer with the whole batch.
    """
    x0 = x0.toarray() if sp.issparse(x0) else np.asarray(x0, dtype=np.float64)
    xc = xc.toarray() if sp.issparse(xc) else np.asarray(xc, dtype=np.float64)
    n_layers = len(weights)
    mid = n_layers // 2
    acts = [x0]
    for w, b in zip(weights, biases):
        acts.append(expit(acts[-1] @ w + b))
    resid = acts[-1] - xc
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    grad_act = lambda_recon * resid
    for layer in reversed(range(n_layers)):
        out = acts[layer + 1]
        if layer + 1 == mid:
            grad_act = grad_act + lambda_anchor * (out - beta)
        grad_pre = grad_act * out * (1.0 - out)
        grads_w[layer] = acts[layer].T @ grad_pre + lambda_decay * weights[layer]
        grads_b[layer] = grad_pre.sum(axis=0) + lambda_decay * biases[layer]
        grad_act = grad_pre @ weights[layer].T
    return acts[mid], float((resid ** 2).sum()), grads_w, grads_b
