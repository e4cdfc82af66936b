"""From-scratch MLP regressor — GoPIM's execution-time predictor core.

The paper settles on a three-layer MLP (10 input neurons, 256 hidden, 1
output) after sweeping depth and width (Fig. 9b/c).  This implementation
supports arbitrary hidden-layer tuples so those sweeps can be reproduced,
trains with Adam on mini-batch MSE, and standardises inputs/targets
internally like the other :class:`~repro.predictor.regressors.Regressor`
subclasses.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.predictor.regressors import Regressor


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
        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        # Per-parameter scratch for the Adam update: the oracle
        # (repro.oracles.predictor.mlp_fit_reference) spends a surprising
        # share of fit time allocating its ~10 temporaries per parameter
        # per step.  Every in-place expression below applies the same
        # IEEE ops in the same order as the oracle, so the fitted weights
        # are bit-identical (tests/predictor/test_mlp_fastpath.py).
        scratch = [
            (np.empty_like(p), np.empty_like(p))
            for p in (*self._weights, *self._biases)
        ]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_history = []

        n = x.shape[0]
        # All epoch shuffles as one (epochs, n) matrix up front — the RNG
        # stream consumes the identical sequence of permutation draws, and
        # no other draw happens after initialisation.
        orders = np.stack([rng.permutation(n) for _ in range(self._epochs)])
        num_layers = len(self._weights)
        params = (*self._weights, *self._biases)
        moments1 = (*m_w, *m_b)
        moments2 = (*v_w, *v_b)
        for epoch in range(self._epochs):
            order = orders[epoch]
            epoch_loss = 0.0
            for start in range(0, n, self._batch_size):
                batch = order[start:start + self._batch_size]
                xb, yb = x[batch], targets[batch]
                pred, acts = self._forward(xb)
                err = pred.ravel() - yb
                epoch_loss += float((err ** 2).sum())

                # Backprop through the MSE head.
                grad = (2.0 / xb.shape[0]) * err[:, None]
                grads: List[np.ndarray] = [None] * (2 * num_layers)
                for layer in range(num_layers - 1, -1, -1):
                    grads[layer] = (
                        acts[layer].T @ grad + self._decay * self._weights[layer]
                    )
                    grads[num_layers + layer] = grad.sum(axis=0)
                    if layer > 0:
                        grad = grad @ self._weights[layer].T
                        grad = grad * (acts[layer] > 0)

                step += 1
                correction1 = 1 - beta1 ** step
                correction2 = 1 - beta2 ** step
                for param, m, v, g, (num, den) in zip(
                    params, moments1, moments2, grads, scratch,
                ):
                    # m = beta1 * m + (1 - beta1) * g, in place.
                    np.multiply(m, beta1, out=m)
                    np.multiply(g, 1 - beta1, out=num)
                    np.add(m, num, out=m)
                    # v = beta2 * v + (1 - beta2) * g**2, in place
                    # (g * g is bitwise-equal to g ** 2 and skips the
                    # generic pow loop).
                    np.multiply(v, beta2, out=v)
                    np.multiply(g, g, out=den)
                    np.multiply(den, 1 - beta2, out=den)
                    np.add(v, den, out=v)
                    # param -= lr * (m / c1) / (sqrt(v / c2) + eps)
                    np.divide(m, correction1, out=num)
                    np.divide(v, correction2, out=den)
                    np.sqrt(den, out=den)
                    np.add(den, eps, out=den)
                    np.divide(num, den, out=num)
                    np.multiply(num, self._lr, out=num)
                    np.subtract(param, num, out=param)
            self.loss_history.append(epoch_loss / n)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        pred, _ = self._forward(x)
        return pred.ravel() * self._y_std + self._y_mean
