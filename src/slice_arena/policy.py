"""Actor-critic MLP with hand-derived gradients and a text checkpoint format.

The actor and the critic are separate multilayer perceptrons over the same
flattened observation (default two tanh hidden layers of 64 units). The
actor ends in a categorical head over {REJECT, DC 1..N}; the critic ends in
a single linear unit. No autodiff: the backward pass is written out from the
chain rule for this fixed family, and every gradient path is pinned by
finite-difference tests. greedy_actions runs the actor alone and returns,
per row, the argmax of its logits, lowest index on a tie: softmax keeps the
order of the logits, so that is the greedy action without the softmax.
A training rollout draws with act (the actor alone) and gets its values
from state_values; the batch-1 policy_forward, PolicyOutput and
sample_action stay for the bootstrap value, the benchmark and the tests.
tanh is the only hidden activation, and Adam's beta1, beta2 and epsilon
are AdamOptimizer class constants.

Layout. Every parameter lives in one float64 vector, MlpParameters.flat,
in checkpoint order; each (W, b) is a view into it. A W with fewer rows
than columns (by default the heads) is stored transposed, Fortran ordered
as _orthogonal returns it: batch-1 BLAS products can change in the last bit
with memory order, and a C-ordered actor head trains other checkpoints.

Gradient conventions. backward_batch returns the gradient of sum_i f_i over
a batch, with per-sample weights in

    f = w_logp * log pi(a|s) + w_value * V(s) + w_entropy * H(pi(.|s))

with respect to every parameter, as one vector in the layout of flat
(MlpParameters(layer_dims, grad) views it per array), which is the general
building block: any PPO loss gradient is a per-sample weighted sum of
exactly these three terms. Useful identities (z = actor logits, p =
softmax(z)):

    d log p_a / d z_j = 1[j = a] - p_j
    d H / d z_j       = -p_j (log p_j + H)

Checkpoint format (bit-exact round trip): line 1 the magic string, line 2
the observation layout version, line 3 layer_dims space-separated; then one
parameter per line, printed with 17 significant digits, in layer order
(actor W1 row-major, b1, W2, b2, ..., then the critic stack); UTF-8, LF.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .env import OBS_LAYOUT_VERSION

CHECKPOINT_MAGIC = "SLICE-ARENA-PPO v1"
_TINY = 1e-300
_CRITIC_CHUNK = 128  # bounds state_values' scratch activations


class DimensionMismatchError(ValueError):
    """Input shape inconsistent with the parameter dimension chain."""


class CheckpointFormatError(ValueError):
    """Checkpoint file malformed or from an unsupported layout."""


@dataclass
class PolicyOutput:
    action_probabilities: np.ndarray
    state_value: float


@functools.cache
def _layout(layer_dims: Tuple[int, ...]):
    """(offset, shape, transposed) of every array in checkpoint order, and
    the parameter count; a transposed block is stored column-major."""
    layout, offset = [], 0
    for dims in (layer_dims, layer_dims[:-1] + (1,)):
        for rows, cols in zip(dims[1:], dims[:-1]):
            for shape, transposed in (((rows, cols), rows < cols), ((rows,), False)):
                layout.append((offset, shape, transposed))
                offset += math.prod(shape)
    return tuple(layout), offset


@dataclass
class MlpParameters:
    """Weights of the actor and critic stacks.

    layer_dims describes the actor chain (input, hidden..., n_actions); the
    critic shares the hidden sizes and ends in one unit. Each stack is a
    list of (W, b) views into flat, with W of shape (out, in); write through
    them (w[...] = ...), as a rebound entry is detached from flat.
    """

    layer_dims: Tuple[int, ...]
    flat: np.ndarray
    actor: List[Tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)
    critic: List[Tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        layout, size = _layout(self.layer_dims)
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(f"parameter vector {self.flat.dtype}{self.flat.shape} "
                             f"does not fit layer_dims {self.layer_dims!r}")
        views = []
        for offset, shape, transposed in layout:
            block = self.flat[offset:offset + math.prod(shape)]
            views.append(block.reshape(shape[::-1]).T if transposed else block.reshape(shape))
        pairs = list(zip(views[0::2], views[1::2]))
        self.actor, self.critic = pairs[:len(pairs) // 2], pairs[len(pairs) // 2:]

    @property
    def observation_size(self) -> int:
        return self.layer_dims[0]

    @property
    def n_actions(self) -> int:
        return self.layer_dims[-1]

    def arrays(self) -> Iterator[np.ndarray]:
        """All parameter arrays in checkpoint order."""
        return itertools.chain.from_iterable(self.actor + self.critic)

    def copy(self) -> "MlpParameters":
        return MlpParameters(self.layer_dims, self.flat.copy())

    def validate(self) -> None:
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"bad layer_dims {self.layer_dims!r}")
        shapes = [a.shape for a in self.arrays()]
        if shapes != [shape for _, shape, _ in _layout(self.layer_dims)[0]]:
            raise ValueError(f"array shapes {shapes} differ from dims {self.layer_dims}")
        if not np.isfinite(self.flat).all():
            raise ValueError("non-finite parameters")


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
    params = MlpParameters(dims, np.zeros(_layout(dims)[1]))
    for stack, head_gain in ((params.actor, 0.01), (params.critic, 1.0)):
        for i, (w, _) in enumerate(stack):
            w[...] = _orthogonal(*w.shape, head_gain if i == len(stack) - 1 else 1.0, rng)
    params.validate()
    return params


# ---------------------------------------------------------------- forward

def _forward_stack(stack, x: np.ndarray):
    """x is (batch, in) or (batch, 1, in). Returns (pre-head activations, head)."""
    hs = [x]
    for w, b in stack[:-1]:
        h = hs[-1] @ w.T
        h += b
        hs.append(np.tanh(h, out=h))
    w, b = stack[-1]
    head = hs[-1] @ w.T
    head += b
    return hs, head


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
    cache) where cache carries the hidden activations for backward_batch,
    logp = log(max(probs, 1e-300)) and the per-row entropy.
    """
    x = _checked_input(params, observations)
    actor_hs, logits = _forward_stack(params.actor, x)
    critic_hs, values = _forward_stack(params.critic, x)
    probs = _softmax(logits)
    logp = np.log(np.maximum(probs, _TINY))
    entropy = -(probs * logp).sum(axis=1)
    return probs, values[:, 0], {"actor_hs": actor_hs, "critic_hs": critic_hs,
                                 "probs": probs, "logp": logp, "entropy": entropy}


def greedy_actions(params: MlpParameters, observations: np.ndarray) -> List[int]:
    """Per row, the argmax of the actor's logits, lowest index on a tie:
    softmax keeps their order, so this is the greedy action, computed
    without the critic or the softmax."""
    _, logits = _forward_stack(params.actor, _checked_input(params, observations))
    return logits.argmax(axis=1).tolist()


def _action_probabilities(params: MlpParameters, x: np.ndarray) -> np.ndarray:
    z = _forward_stack(params.actor, x)[1][0]
    e = np.exp(z - z.max())
    return e / e.sum()


def policy_forward(params: MlpParameters, observation: np.ndarray) -> PolicyOutput:
    """forward_batch at batch 1, bit for bit, without the backward cache."""
    x = _checked_input(params, np.asarray(observation)[None, :])
    _, value = _forward_stack(params.critic, x)
    return PolicyOutput(action_probabilities=_action_probabilities(params, x),
                        state_value=float(value[0, 0]))


def sample_action(output: PolicyOutput, rng: np.random.Generator) -> Tuple[int, float]:
    """Draw from the categorical head; returns (action, log probability):
    the first action whose running probability sum exceeds u, else the last."""
    p = output.action_probabilities
    u = rng.random()
    action = next((i for i, total in enumerate(itertools.accumulate(p.tolist()))
                   if total > u), p.size - 1)
    return action, float(np.log(max(p[action], _TINY)))


def act(params: MlpParameters, row: np.ndarray, rng: np.random.Generator) -> Tuple[int, float]:
    """sample_action(policy_forward(params, row[0]), rng), bit for bit, from
    the actor alone and unchecked: row is a (1, in) float64 array."""
    return sample_action(PolicyOutput(_action_probabilities(params, row), math.nan), rng)


def state_values(params: MlpParameters, observations: np.ndarray) -> np.ndarray:
    """policy_forward's state_value of every row of observations, bit for
    bit: the rows pass as (_CRITIC_CHUNK, 1, in) stacks, so the matmul makes
    the batch-1 product per row, where a 2-D batch would round differently."""
    x = _checked_input(params, observations)
    values = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _CRITIC_CHUNK):
        _, head = _forward_stack(params.critic, x[start:start + _CRITIC_CHUNK, None, :])
        values[start:start + _CRITIC_CHUNK] = head[:, 0, 0]
    return values


# ---------------------------------------------------------------- backward

def _backward_stack(stack, hs, d_head: np.ndarray, grads) -> None:
    """Backpropagate d_head (batch, out) through a stack into the (gW, gb)
    views of grads."""
    delta = d_head
    for i in range(len(stack) - 1, -1, -1):
        g_w, g_b = grads[i]
        if g_w.flags.c_contiguous:
            np.matmul(delta.T, hs[i], out=g_w)
        else:  # a transposed block: the same product, copied in
            g_w[...] = delta.T @ hs[i]
        delta.sum(axis=0, out=g_b)
        if i > 0:
            slope = hs[i] * hs[i]
            delta = delta @ stack[i][0]
            delta *= np.subtract(1.0, slope, out=slope)  # tanh' = 1 - h^2


@functools.cache
def _gradient_buffer(layer_dims: Tuple[int, ...]) -> MlpParameters:
    """backward_batch's scratch vector, with its views built once per
    layer_dims; every call overwrites all of it. It is shared by every
    caller in the process, so two threads must not run backward_batch at
    once (training runs in processes)."""
    return MlpParameters(layer_dims, np.empty(_layout(layer_dims)[1]))


def backward_batch(params: MlpParameters, cache, actions: np.ndarray,
                   logp_weights: np.ndarray, value_weights: np.ndarray,
                   entropy_weights: np.ndarray):
    """Gradients of sum_i f_i over the batch, f as in the module docstring.

    Returns a new gradient vector in the layout of params.flat.
    """
    probs = cache["probs"]
    batch, n_actions = probs.shape
    if not np.all((actions >= 0) & (actions < n_actions)):
        raise DimensionMismatchError(f"actions outside 0..{n_actions - 1}")
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), actions] = 1.0
    d_logits = (logp_weights[:, None] * (onehot - probs) - entropy_weights[:, None]
                * probs * (cache["logp"] + cache["entropy"][:, None]))
    grads = _gradient_buffer(params.layer_dims)
    _backward_stack(params.actor, cache["actor_hs"], d_logits, grads.actor)
    _backward_stack(params.critic, cache["critic_hs"], value_weights[:, None],
                    grads.critic)
    return grads.flat.copy()


# ---------------------------------------------------------------- optimizer

class AdamOptimizer:
    """Adaptive moment estimation with bias correction, as one elementwise
    pass over the flat vector (the bits of a per-array loop)."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self) -> None:
        self.step_count = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None

    def step(self, params: MlpParameters, grad: np.ndarray,
             learning_rate: float) -> None:
        """In-place descent step along grad (backward_batch's layout)."""
        if self._m is None:
            self._m = np.zeros_like(params.flat)
            self._v = np.zeros_like(params.flat)
            self._scratch = np.empty((2, params.flat.size))
        self.step_count += 1
        t = self.step_count
        m, v = self._m, self._v
        step, denom = self._scratch
        m *= self.BETA1
        m += np.multiply(1.0 - self.BETA1, grad, out=step)
        v *= self.BETA2
        np.multiply(grad, grad, out=step)
        v += np.multiply(1.0 - self.BETA2, step, out=step)
        np.divide(m, 1.0 - self.BETA1 ** t, out=step)  # m_hat
        np.divide(v, 1.0 - self.BETA2 ** t, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += self.EPSILON
        step *= learning_rate
        step /= denom
        params.flat -= step


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

    layout, expected = _layout(dims)
    if flat.size != expected:
        raise CheckpointFormatError(
            f"{path}: {flat.size} parameters, layout wants {expected}")

    params = MlpParameters(dims, np.empty(expected))
    for array, (offset, _, _) in zip(params.arrays(), layout):
        array[...] = flat[offset:offset + array.size].reshape(array.shape)
    try:
        params.validate()
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    return params
