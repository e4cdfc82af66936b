"""From-scratch MLP regressor — GoPIM's execution-time predictor core.

The paper settles on a three-layer MLP (10 input neurons, 256 hidden, 1
output) after sweeping depth and width (Fig. 9b/c).  This implementation
supports arbitrary hidden-layer tuples so those sweeps can be reproduced,
trains with Adam on mini-batch MSE, and standardises inputs/targets
internally like the other :class:`~repro.predictor.regressors.Regressor`
subclasses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.predictor.regressors import Regressor


# Elements per Adam block: the ~6 live float64 block arrays (parameter,
# gradient, both moments, two scratch) fit a 2 MiB per-core L2.
_ADAM_BLOCK = 32 * 1024


class _StepBuffers:
    """Per-batch-size activations, gradients and ReLU masks of one step."""

    def __init__(self, size: int, dims: Sequence[int]) -> None:
        self.acts = [np.empty((size, width)) for width in dims]
        # grads[i] is d loss / d (pre-activation output of layer i).
        self.grads = [np.empty((size, width)) for width in dims[1:]]
        self.masks = [
            np.empty((size, width), dtype=bool) for width in dims[1:-1]
        ]
        self.yb = np.empty(size)
        self.err = np.empty(size)
        self.sq = np.empty(size)


class MLPRegressor(Regressor):
    """Multi-layer perceptron with ReLU activations and Adam training.

    Parameters
    ----------
    hidden_layers:
        Sizes of the hidden layers; ``(256,)`` is the paper's pick (a
        "three-layer MLP": input + one hidden + output).
    epochs / batch_size / learning_rate:
        Adam training schedule.
    weight_decay:
        L2 regularisation strength.
    random_state:
        Seed for weight init and batch shuffling (deterministic fits).
    """

    name = "MLP"

    def __init__(
        self,
        hidden_layers: Sequence[int] = (256,),
        epochs: int = 200,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        random_state: int = 0,
    ) -> None:
        super().__init__()
        if not hidden_layers or any(h < 1 for h in hidden_layers):
            raise PredictorError("hidden_layers must be positive sizes")
        if epochs < 1 or batch_size < 1:
            raise PredictorError("epochs and batch_size must be >= 1")
        if learning_rate <= 0:
            raise PredictorError("learning_rate must be positive")
        if weight_decay < 0:
            raise PredictorError("weight_decay must be >= 0")
        self._hidden = tuple(int(h) for h in hidden_layers)
        self._epochs = epochs
        self._batch_size = batch_size
        self._lr = learning_rate
        self._decay = weight_decay
        self._seed = random_state
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._y_mean = 0.0
        self._y_std = 1.0
        self.loss_history: List[float] = []

    @property
    def num_layers(self) -> int:
        """Layer count in the paper's convention (input + hidden + output)."""
        return len(self._hidden) + 2

    # ------------------------------------------------------------------
    def _init_params(self, dims: Sequence[int], rng: np.random.Generator) -> None:
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He init for ReLU nets
            self._weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        activations = [x]
        out = x
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            out = out @ w + b
            if i != last:
                out = np.maximum(out, 0.0)
            activations.append(out)
        return out, activations

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        targets = (y - self._y_mean) / self._y_std

        dims = [x.shape[1], *self._hidden, 1]
        self._init_params(dims, rng)
        # The step loop allocates nothing: every parameter, its gradient
        # and both Adam moments live in one flat float64 vector each
        # (weights first, then biases), the layer arrays are views into
        # them, and activations/gradients/ReLU masks are preallocated
        # per batch size.  Every expression applies the same IEEE ops in
        # the same order as the oracle
        # (repro.oracles.predictor.mlp_fit_reference), so the fitted
        # weights are bit-identical (tests/predictor/test_mlp_fastpath.py).
        initial = (*self._weights, *self._biases)
        shapes = [p.shape for p in initial]
        offsets = np.concatenate([[0], np.cumsum([p.size for p in initial])])
        flat = np.concatenate([p.ravel() for p in initial])
        grad_flat = np.empty_like(flat)
        m = np.zeros_like(flat)
        v = np.zeros_like(flat)
        num_layers = len(self._weights)

        def views(buffer: np.ndarray) -> List[np.ndarray]:
            return [
                buffer[lo:hi].reshape(shape)
                for lo, hi, shape in zip(offsets[:-1], offsets[1:], shapes)
            ]

        params = views(flat)
        self._weights = params[:num_layers]
        self._biases = params[num_layers:]
        grads = views(grad_flat)
        grads_w, grads_b = grads[:num_layers], grads[num_layers:]
        # Adam runs over _ADAM_BLOCK-element slices so its 14 passes
        # (plus the weight-decay product, folded in here: the weights
        # are not yet updated when their block comes up) stay in L2.
        decay_end = int(offsets[num_layers])
        blocks = [
            (lo, min(lo + _ADAM_BLOCK, decay_end), True)
            for lo in range(0, decay_end, _ADAM_BLOCK)
        ] + [
            (lo, min(lo + _ADAM_BLOCK, flat.size), False)
            for lo in range(decay_end, flat.size, _ADAM_BLOCK)
        ]
        block = min(_ADAM_BLOCK, flat.size)
        num_buf, den_buf = np.empty(block), np.empty(block)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_history = []

        n = x.shape[0]
        # All epoch shuffles as one (epochs, n) matrix up front — the RNG
        # stream consumes the identical sequence of permutation draws, and
        # no other draw happens after initialisation.
        orders = np.stack([rng.permutation(n) for _ in range(self._epochs)])
        step_buffers: Dict[int, _StepBuffers] = {}
        for epoch in range(self._epochs):
            order = orders[epoch]
            epoch_loss = 0.0
            for start in range(0, n, self._batch_size):
                batch = order[start:start + self._batch_size]
                size = batch.size
                if size not in step_buffers:
                    step_buffers[size] = _StepBuffers(size, dims)
                buf = step_buffers[size]
                acts = buf.acts
                # mode="clip" skips take's buffered bounds check (the
                # permutation indices are in range by construction).
                np.take(x, batch, axis=0, out=acts[0], mode="clip")
                np.take(targets, batch, out=buf.yb, mode="clip")
                for layer in range(num_layers):
                    out = acts[layer + 1]
                    np.matmul(acts[layer], self._weights[layer], out=out)
                    np.add(out, self._biases[layer], out=out)
                    if layer != num_layers - 1:
                        np.maximum(out, 0.0, out=out)
                err = buf.err
                np.subtract(acts[-1].reshape(size), buf.yb, out=err)
                np.multiply(err, err, out=buf.sq)
                epoch_loss += float(buf.sq.sum())

                # Backprop through the MSE head.
                np.multiply(err, 2.0 / size, out=buf.grads[-1].reshape(size))
                for layer in range(num_layers - 1, -1, -1):
                    grad = buf.grads[layer]
                    np.matmul(acts[layer].T, grad, out=grads_w[layer])
                    np.sum(grad, axis=0, out=grads_b[layer])
                    if layer > 0:
                        below = buf.grads[layer - 1]
                        np.matmul(grad, self._weights[layer].T, out=below)
                        # A multiply, not np.where: grad * 0.0 keeps the
                        # oracle's signed zeros.
                        mask = buf.masks[layer - 1]
                        np.greater(acts[layer], 0, out=mask)
                        np.multiply(below, mask, out=below)

                step += 1
                correction1 = 1 - beta1 ** step
                correction2 = 1 - beta2 ** step
                for lo, hi, decays in blocks:
                    param, g = flat[lo:hi], grad_flat[lo:hi]
                    m_blk, v_blk = m[lo:hi], v[lo:hi]
                    num, den = num_buf[:hi - lo], den_buf[:hi - lo]
                    if decays:
                        # g += decay * w (the oracle's L2 term).
                        np.multiply(param, self._decay, out=num)
                        np.add(g, num, out=g)
                    # m = beta1 * m + (1 - beta1) * g, in place.
                    np.multiply(m_blk, beta1, out=m_blk)
                    np.multiply(g, 1 - beta1, out=num)
                    np.add(m_blk, num, out=m_blk)
                    # v = beta2 * v + (1 - beta2) * g**2, in place
                    # (g * g is bitwise-equal to g ** 2 and skips the
                    # generic pow loop).
                    np.multiply(v_blk, beta2, out=v_blk)
                    np.multiply(g, g, out=den)
                    np.multiply(den, 1 - beta2, out=den)
                    np.add(v_blk, den, out=v_blk)
                    # param -= lr * (m / c1) / (sqrt(v / c2) + eps)
                    np.divide(m_blk, correction1, out=num)
                    np.divide(v_blk, correction2, out=den)
                    np.sqrt(den, out=den)
                    np.add(den, eps, out=den)
                    np.divide(num, den, out=num)
                    np.multiply(num, self._lr, out=num)
                    np.subtract(param, num, out=param)
            self.loss_history.append(epoch_loss / n)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        pred, _ = self._forward(x)
        return pred.ravel() * self._y_std + self._y_mean
