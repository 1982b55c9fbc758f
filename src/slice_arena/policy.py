"""Actor-critic MLP with hand-derived gradients and a text checkpoint format.

The actor and the critic are separate multilayer perceptrons over the same
flattened observation (default two tanh hidden layers of 64 units). The
actor ends in a categorical head over {REJECT, DC 1..N}; the critic ends in
a single linear unit. No autodiff: the backward pass is written out from the
chain rule for this fixed family, and every gradient path is pinned by
finite-difference tests. forward_actor runs the actor alone and returns the
same probabilities as forward_batch, bit for bit, for callers that only act.

Gradient conventions. backward_batch returns the gradient of sum_i f_i over
a batch, with per-sample weights in

    f = w_logp * log pi(a|s) + w_value * V(s) + w_entropy * H(pi(.|s))

with respect to every parameter, which is the general building block: any
PPO loss gradient is a per-sample weighted sum of exactly these three terms.
Useful identities (z = actor logits, p = softmax(z)):

    d log p_a / d z_j = 1[j = a] - p_j
    d H / d z_j       = -p_j (log p_j + H)

Checkpoint format (bit-exact round trip): line 1 the magic string, line 2
the observation layout version, line 3 layer_dims space-separated; then one
parameter per line, printed with 17 significant digits, in layer order
(actor W1 row-major, b1, W2, b2, ..., then the critic stack); UTF-8, LF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .env import OBS_LAYOUT_VERSION

CHECKPOINT_MAGIC = "SLICE-ARENA-PPO v1"
_TINY = 1e-300


class DimensionMismatchError(ValueError):
    """Input shape inconsistent with the parameter dimension chain."""


class CheckpointFormatError(ValueError):
    """Checkpoint file malformed or from an unsupported layout."""


@dataclass
class PolicyOutput:
    action_probabilities: np.ndarray
    state_value: float


@dataclass
class MlpParameters:
    """Weights of the actor and critic stacks.

    layer_dims describes the actor chain (input, hidden..., n_actions); the
    critic shares the hidden sizes and ends in one unit. Each stack is a
    list of (W, b) with W of shape (out, in).
    """

    layer_dims: Tuple[int, ...]
    actor: List[Tuple[np.ndarray, np.ndarray]]
    critic: List[Tuple[np.ndarray, np.ndarray]]
    activation: str = "tanh"

    @property
    def observation_size(self) -> int:
        return self.layer_dims[0]

    @property
    def n_actions(self) -> int:
        return self.layer_dims[-1]

    def arrays(self) -> Iterator[np.ndarray]:
        """All parameter arrays in checkpoint order."""
        for stack in (self.actor, self.critic):
            for w, b in stack:
                yield w
                yield b

    def copy(self) -> "MlpParameters":
        return MlpParameters(
            layer_dims=self.layer_dims,
            actor=[(w.copy(), b.copy()) for w, b in self.actor],
            critic=[(w.copy(), b.copy()) for w, b in self.critic],
            activation=self.activation,
        )

    def validate(self) -> None:
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"bad layer_dims {self.layer_dims!r}")
        if self.activation != "tanh":
            raise ValueError(f"unsupported activation {self.activation!r}")
        critic_dims = self.layer_dims[:-1] + (1,)
        for stack, dims in ((self.actor, self.layer_dims), (self.critic, critic_dims)):
            if len(stack) != len(dims) - 1:
                raise ValueError("stack depth inconsistent with layer_dims")
            for i, (w, b) in enumerate(stack):
                if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                    raise ValueError(
                        f"layer {i} shapes {w.shape}/{b.shape} differ from dims {dims}")
                if not (np.isfinite(w).all() and np.isfinite(b).all()):
                    raise ValueError(f"non-finite parameters in layer {i}")


def _orthogonal(rows: int, cols: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_parameters(observation_size: int, n_actions: int,
                    hidden: Sequence[int] = (64, 64), seed: int = 0) -> MlpParameters:
    """Orthogonal-style init; the actor head is scaled down so the initial
    policy is near uniform."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 77))))
    dims = (int(observation_size), *(int(h) for h in hidden), int(n_actions))

    def build(out_dims: Tuple[int, ...], head_gain: float):
        stack = []
        for i in range(len(out_dims) - 1):
            gain = head_gain if i == len(out_dims) - 2 else 1.0
            w = _orthogonal(out_dims[i + 1], out_dims[i], gain, rng)
            stack.append((w, np.zeros(out_dims[i + 1])))
        return stack

    params = MlpParameters(
        layer_dims=dims,
        actor=build(dims, head_gain=0.01),
        critic=build(dims[:-1] + (1,), head_gain=1.0),
    )
    params.validate()
    return params


# ---------------------------------------------------------------- forward

def _forward_stack(stack, x: np.ndarray):
    """x is (batch, in). Returns (pre-head activations list, head output)."""
    hs = [x]
    for w, b in stack[:-1]:
        hs.append(np.tanh(hs[-1] @ w.T + b))
    w, b = stack[-1]
    return hs, hs[-1] @ w.T + b


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _checked_input(params: MlpParameters, observations: np.ndarray) -> np.ndarray:
    x = np.asarray(observations, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.observation_size:
        raise DimensionMismatchError(
            f"observations shape {x.shape} incompatible with input dim "
            f"{params.observation_size}")
    if not np.isfinite(x).all():
        raise DimensionMismatchError("observations contain non-finite entries")
    return x


def forward_batch(params: MlpParameters, observations: np.ndarray):
    """Vectorized forward pass.

    observations: (batch, obs). Returns (probs (batch, A), values (batch,),
    cache) where cache carries the hidden activations for backward_batch.
    """
    x = _checked_input(params, observations)
    actor_hs, logits = _forward_stack(params.actor, x)
    critic_hs, values = _forward_stack(params.critic, x)
    probs = _softmax(logits)
    return probs, values[:, 0], {"actor_hs": actor_hs, "critic_hs": critic_hs,
                                 "probs": probs}


def forward_actor(params: MlpParameters, observations: np.ndarray) -> np.ndarray:
    """The action probabilities of forward_batch, bit for bit, without the
    critic or the backward cache; for callers that only act."""
    _, logits = _forward_stack(params.actor, _checked_input(params, observations))
    return _softmax(logits)


def policy_forward(params: MlpParameters, observation: np.ndarray) -> PolicyOutput:
    probs, values, _ = forward_batch(params, np.asarray(observation)[None, :])
    return PolicyOutput(action_probabilities=probs[0], state_value=float(values[0]))


def sample_action(output: PolicyOutput, rng: np.random.Generator) -> Tuple[int, float]:
    """Draw from the categorical head; returns (action, log probability)."""
    p = output.action_probabilities
    u = rng.random()
    action = int(np.searchsorted(np.cumsum(p), u, side="right"))
    action = min(action, p.size - 1)  # guard u landing on the float tail
    return action, float(np.log(max(p[action], _TINY)))


# ---------------------------------------------------------------- backward

def _backward_stack(stack, hs, d_head: np.ndarray):
    """Backpropagate d_head (batch, out) through a stack; returns grads."""
    grads = []
    delta = d_head
    for i in range(len(stack) - 1, -1, -1):
        w, _ = stack[i]
        h_in = hs[i]
        grads.append((delta.T @ h_in, delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ w) * (1.0 - hs[i] * hs[i])
    return list(reversed(grads))


def backward_batch(params: MlpParameters, cache, actions: np.ndarray,
                   logp_weights: np.ndarray, value_weights: np.ndarray,
                   entropy_weights: np.ndarray):
    """Gradients of sum_i f_i over the batch, f as in the module docstring.

    Returns (actor_grads, critic_grads) mirroring the parameter stacks.
    """
    probs = cache["probs"]
    batch, n_actions = probs.shape
    if not np.all((actions >= 0) & (actions < n_actions)):
        raise DimensionMismatchError(f"actions outside 0..{n_actions - 1}")
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), actions] = 1.0
    logp = np.log(np.maximum(probs, _TINY))
    entropy = -(probs * logp).sum(axis=1)
    d_logits = (logp_weights[:, None] * (onehot - probs)
                - entropy_weights[:, None] * probs * (logp + entropy[:, None]))
    actor_grads = _backward_stack(params.actor, cache["actor_hs"], d_logits)
    critic_grads = _backward_stack(params.critic, cache["critic_hs"],
                                   value_weights[:, None])
    return actor_grads, critic_grads


# ---------------------------------------------------------------- optimizer

@dataclass
class AdamOptimizer:
    """Adaptive moment estimation with bias correction, epsilon 1e-8."""

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    _m: List[np.ndarray] = field(default_factory=list)
    _v: List[np.ndarray] = field(default_factory=list)

    def step(self, params: MlpParameters, actor_grads, critic_grads,
             learning_rate: float) -> None:
        """In-place descent step along the given gradients."""
        flat_grads = []
        for stack in (actor_grads, critic_grads):
            for w, b in stack:
                flat_grads.extend((w, b))
        arrays = list(params.arrays())
        if not self._m:
            self._m = [np.zeros_like(a) for a in arrays]
            self._v = [np.zeros_like(a) for a in arrays]
        if len(flat_grads) != len(arrays):
            raise DimensionMismatchError("gradient structure differs from parameters")
        self.step_count += 1
        t = self.step_count
        for a, g, m, v in zip(arrays, flat_grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            a -= learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


# ------------------------------------------------------------- checkpoints

def save_checkpoint(params: MlpParameters, path: str) -> None:
    params.validate()
    lines = [CHECKPOINT_MAGIC, str(OBS_LAYOUT_VERSION),
             " ".join(str(d) for d in params.layer_dims)]
    for array in params.arrays():
        for value in array.reshape(-1):
            lines.append(format(value, ".17g"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path: str) -> MlpParameters:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4:
        raise CheckpointFormatError(f"{path}: truncated checkpoint")
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic line {lines[0]!r}")
    try:
        layout = int(lines[1])
    except ValueError:
        raise CheckpointFormatError(f"{path}: bad layout version {lines[1]!r}") from None
    if layout != OBS_LAYOUT_VERSION:
        raise CheckpointFormatError(
            f"{path}: observation layout {layout} unsupported (want {OBS_LAYOUT_VERSION})")
    try:
        dims = tuple(int(v) for v in lines[2].split())
    except ValueError:
        raise CheckpointFormatError(f"{path}: bad layer_dims line {lines[2]!r}") from None
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise CheckpointFormatError(f"{path}: bad layer_dims {dims!r}")

    values = []
    for lineno, raw in enumerate(lines[3:], start=4):
        if not raw:
            continue
        try:
            values.append(float(raw))
        except ValueError:
            raise CheckpointFormatError(f"{path}:{lineno}: bad number {raw!r}") from None
    flat = np.asarray(values, dtype=np.float64)

    critic_dims = dims[:-1] + (1,)
    expected = sum((dims[i + 1] * dims[i] + dims[i + 1]) for i in range(len(dims) - 1))
    expected += sum((critic_dims[i + 1] * critic_dims[i] + critic_dims[i + 1])
                    for i in range(len(critic_dims) - 1))
    if flat.size != expected:
        raise CheckpointFormatError(
            f"{path}: {flat.size} parameters, layout wants {expected}")

    pos = 0

    def take(shape):
        nonlocal pos
        n = int(np.prod(shape))
        out = flat[pos:pos + n].reshape(shape)
        pos += n
        return out.copy()

    def read_stack(stack_dims):
        stack = []
        for i in range(len(stack_dims) - 1):
            w = take((stack_dims[i + 1], stack_dims[i]))
            b = take((stack_dims[i + 1],))
            stack.append((w, b))
        return stack

    params = MlpParameters(layer_dims=dims, actor=read_stack(dims),
                           critic=read_stack(critic_dims))
    try:
        params.validate()
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    return params
