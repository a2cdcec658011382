"""The optimizers as they were before the flat parameter vector.

Each tensor is updated on its own with the textbook expressions. Tests use
these as the oracle the vectorized ``moltiers.optim`` must match bit for
bit.
"""

import numpy as np


class OracleSGD:
    def __init__(self, params, learning_rate):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise RuntimeError(f"sgd step: parameter {i} has no gradient")
        for p in self.params:
            p.values -= self.learning_rate * p.grad
            p.grad = None
        self.step_count += 1


class OracleAdam:
    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise RuntimeError(f"adam step: parameter {i} has no gradient")
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / (1.0 - self.beta1 ** t)
            v_hat = self._v[i] / (1.0 - self.beta2 ** t)
            p.values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.grad = None
