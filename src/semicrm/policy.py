"""Softmax policy over a small ReLU scorer, with exact analytic gradients.

The policy is a fully connected network ``d -> hidden ... -> k`` whose
output scores feed a softmax; no autodiff framework is used, gradients are
accumulated by hand through the scorer.  ``weights`` and ``biases`` are views
of one float64 vector ``flat``, as are a gradient's, so policies are cheap to
copy and update and bit-exactly reproducible.
"""

from __future__ import annotations

import functools

import numpy as np

from .data import write_lines

# values per long row of the bias add: a bias tiled to this length is 64 KB
BIAS_ROW = 8192
# fewest rows whose bias is added over long rows: on 2 cores the long-row add
# broke even with a plain h += b at 600-1000 rows of 5 or 20 values and won from
# about 1200 (15000 rows of 20: 0.27 against 0.15 ms); 64- and 320-row training
# batches keep h += b, which the long-row add's own calls made slower there
BIAS_TILE_ROWS = 1024


class DimensionMismatchError(ValueError):
    """Raised when a context or action does not match the policy shape."""

    def __init__(self, what: str, expected: int, actual: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected {expected}, got {actual}")


class _FlatParams:
    """``weights`` and then ``biases`` as reshaped views of one float64 vector ``flat``."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        self._view(np.concatenate([a.ravel() for a in arrays]), arrays, len(weights))

    def _view(self, flat: np.ndarray, like: list[np.ndarray], n_weights: int) -> None:
        self.flat, views, stop = flat, [], 0
        for a in like:
            views.append(flat[stop:stop + a.size].reshape(a.shape))
            stop += a.size
        self.weights, self.biases = views[:n_weights], views[n_weights:]


class PolicyGradient(_FlatParams):
    """Per-parameter gradient arrays, shape-congruent with a policy."""

    def norm(self) -> float:
        return float(np.sqrt(self.flat @ self.flat))


class SoftmaxPolicy(_FlatParams):
    """Conditional distribution over ``k`` actions given a context vector.

    ``weights[i]`` has shape (fan_in, fan_out); hidden layers use ReLU and
    the final layer emits one score per action.
    """

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def action_count(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights[:-1])

    @staticmethod
    def create(
        input_dim: int,
        action_count: int,
        hidden_widths: tuple[int, ...] = (20, 20),
        rng: np.random.Generator | None = None,
    ) -> "SoftmaxPolicy":
        """Glorot-uniform initialized policy; pass a seeded rng for reproducibility."""
        if rng is None:
            rng = np.random.default_rng()
        dims = [input_dim, *hidden_widths, action_count]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return SoftmaxPolicy(weights, biases)

    def copy(self) -> "SoftmaxPolicy":
        return SoftmaxPolicy(self.weights, self.biases)

    def apply_update(self, grad: PolicyGradient, step: float) -> None:
        """In-place ``theta -= step * grad``."""
        self.flat -= step * grad.flat

    # ---- forward / backward ------------------------------------------------

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Scores for a batch of contexts plus the activation cache for backward.

        Returns ``(scores, cache)`` where scores has shape (N, k) and cache
        holds the input and every post-ReLU hidden activation.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.input_dim:
            raise DimensionMismatchError("context dimension", self.input_dim, X.shape[-1])
        h, cache = X, [X]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w  # the one fresh array per layer; bias and ReLU act on it in place
            _add_bias(h, b)
            np.maximum(h, 0.0, out=h)
            cache.append(h)
        scores = h @ self.weights[-1]
        _add_bias(scores, self.biases[-1])
        return scores, cache

    def backward(self, cache: list[np.ndarray], dscores: np.ndarray) -> PolicyGradient:
        """Accumulate parameter gradients from per-sample score gradients.

        ``dscores`` is dL/dscores with shape (N, k); the reduction over the
        batch is a single matrix product, so summation order is fixed.
        """
        grad = PolicyGradient.__new__(PolicyGradient)
        grad._view(np.empty_like(self.flat), self.weights + self.biases, len(self.weights))
        delta = dscores
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(cache[layer].T, delta, out=grad.weights[layer])
            delta.sum(axis=0, out=grad.biases[layer])
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta *= cache[layer] > 0.0
        return grad

    # ---- distributions -----------------------------------------------------

    def probs_batch(self, X: np.ndarray) -> np.ndarray:
        """Action probabilities for each row of ``X`` in one (N, d) product.

        A row's last bits can depend on the batch it arrives in."""
        return softmax(self.forward(X)[0])


def _add_bias(h: np.ndarray, b: np.ndarray) -> None:
    """``h += b`` in place, over every row of ``h``.

    numpy broadcasts b over rows of b's width, one inner loop per row.  From
    BIAS_TILE_ROWS rows on, a C-order h is added to as rows of about BIAS_ROW
    values, with b tiled to that length, and its last, shorter row with the
    tile's prefix.  Each value gets the same sum, so the bits are those of
    ``h += b``."""
    width = b.size
    if h.size < BIAS_TILE_ROWS * width or not h.flags.c_contiguous:
        h += b
        return
    tile = b[None].repeat(max(1, BIAS_ROW // width), axis=0).ravel()
    flat = h.reshape(-1)  # a view: h is C-order
    whole = flat.size - flat.size % tile.size
    long_rows = flat[:whole].reshape(-1, tile.size)
    long_rows += tile
    rest = flat[whole:]
    rest += tile[:rest.size]


def _softmax_body(scores: np.ndarray, actions: np.ndarray | None = None):
    """The one softmax body, feature-major: exp(scores less their row max) as a
    (k, N) array, its row sums over the k rows, and, given ``actions``, the shifted
    score of each row's action.

    The subtraction writes the (k, N) array in one transposing pass, so exp, the
    sums and the gather run over rows of N, not over N rows of k.  Nothing is
    divided here: a caller that reads only log pi does not need pi."""
    shifted = np.subtract(scores.T, functools.reduce(np.maximum, scores.T), order="C")
    chosen = None if actions is None else shifted[actions, np.arange(len(actions))]
    exp = np.exp(shifted, out=shifted)  # in place: no second (k, N) array
    # numpy sums a row of fewer than 8 left to right, as the fold does; from 8 on its
    # pairwise sum keeps eight accumulators, whose bits only a row-major copy matches
    norm = functools.reduce(np.add, exp) if len(exp) < 8 else exp.T.copy().sum(axis=1)
    return exp, norm, chosen


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, (N, k) as a view of a (k, N) array."""
    exp, norm, _ = _softmax_body(np.atleast_2d(scores))
    exp /= norm
    return exp.T


def softmax_and_log_softmax(scores: np.ndarray, actions: np.ndarray):
    """``softmax(scores)``, the same bits, and log pi(a_i|x_i) by log-sum-exp,
    finite wherever the scores are."""
    exp, norm, chosen = _softmax_body(scores, actions)
    exp /= norm
    return exp.T, chosen - np.log(norm)


def log_softmax(scores: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """log pi(a_i|x_i) alone, the bits of :func:`softmax_and_log_softmax`'s, without
    dividing by the row sums."""
    _, norm, chosen = _softmax_body(scores, actions)
    return chosen - np.log(norm)


# ---- checkpoint format -----------------------------------------------------
#
#   semicrm-policy v1
#   dims <d> <h1> ... <k>
#   then each block of _layout: its label, then its rows of decimal values
#   (17 significant digits)

_MAGIC = "semicrm-policy v1"


def _layout(dims):
    """(label, rows, width) of each block of a checkpoint of layer sizes ``dims``, in
    file order: W<i>, fan_in rows of fan_out values, then b<i>, one row of them."""
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        yield f"W{i}", fan_in, fan_out
        yield f"b{i}", 1, fan_out


def save_policy(policy: SoftmaxPolicy, path) -> None:
    dims = [policy.input_dim, *policy.hidden_widths, policy.action_count]
    lines = [_MAGIC, "dims " + " ".join(str(d) for d in dims)]
    arrays = [a for layer in zip(policy.weights, policy.biases) for a in layer]
    for (label, rows, width), a in zip(_layout(dims), arrays):
        lines.append(label)
        lines.extend(" ".join(f"{v:.17g}" for v in row) for row in a.reshape(rows, width))
    write_lines(path, lines)


def load_policy(path) -> SoftmaxPolicy:
    """Read a checkpoint; a malformed one is rejected with its 1-based line number.
    Each block's rows are parsed in one numpy conversion."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} checkpoint")
    if len(lines) < 2:
        raise ValueError(f"{path}: line 2: unexpected end of file")
    head, *sizes = lines[1].split() or [""]
    if head != "dims" or len(sizes) < 2 or not all(t.isdecimal() and int(t) for t in sizes):
        raise ValueError(f"{path}: line 2: expected dims and two or more layer sizes")
    blocks, pos = [], 2
    for label, rows, width in _layout([int(t) for t in sizes]):
        if lines[pos:pos + 1] != [label]:
            fault = f"expected {label}" if pos < len(lines) else "unexpected end of file"
            raise ValueError(f"{path}: line {pos + 1}: {fault}")
        body = lines[pos + 1:pos + 1 + rows]
        try:
            block = np.array([ln.split() for ln in body], dtype=float)
        except ValueError:
            block = None
        if block is None or block.shape != (rows, width) or not np.isfinite(block).all():
            _reject_rows(path, body, pos + 1, width)
        blocks.append(block)
        pos += 1 + rows
    extra = next((i for i in range(pos, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise ValueError(f"{path}: line {extra + 1}: expected end of file after {label}")
    return SoftmaxPolicy(blocks[::2], [b[0] for b in blocks[1::2]])


def _reject_rows(path, body: list[str], start: int, width: int) -> None:
    """Name the first bad line of a block's rows ``body``, from 0-based line ``start``
    on, each value parsed by float().  numpy parses a value as float() does, so rows
    that its conversion refused hold a bad line or end before the block does."""
    for at, line in enumerate(body, start):
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: line {at + 1}: {exc}") from exc
        if len(values) != width or not np.isfinite(values).all():
            raise ValueError(f"{path}: line {at + 1}: expected {width} finite values")
    raise ValueError(f"{path}: line {start + len(body) + 1}: unexpected end of file")
