"""Monte Carlo cross-check of the Dirichlet mixed-moment formula.

The exact side says that for independent gamma variables with shapes a_i,
the normalized weights u_i = g_i / sum(g) satisfy

    E[u_1^{l_1} ... u_k^{l_k}] = prod_i (a_i)_{l_i} / (sum a)_{sum l}

with rising-factorial products on the right.  The sampler estimates the
left side directly and reports agreement in standard errors.

Sampling is blocked: sample index space is cut into fixed-size blocks and
each block gets its own generator spawned from the master seed and the
block index alone.  Workers may therefore split blocks among themselves in
any way; the merged estimate depends only on the seed and sample count,
never on the shard layout.  Block sums, and the blocks' sums of squared
deviations about their own means, are merged with compensated summation
so the final reduction is also order-insensitive in practice.

Within a block the arithmetic runs on the k columns of the (samples, k)
draw matrix, never along its short rows: the row sums s are k - 1
in-place column adds, and the monomial is a running product over the
columns with l_j > 0 of w_j = g_j / s, raised to an integer power only
where l_j > 1.  Each factor is normalized before it enters the product,
so every value stays in [0, 1]; a large sum l can underflow to 0 but
never overflow, which prod g_j^{l_j} / s^{sum l} would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactmath import pochhammer, poly, series_product

BLOCK_SIZE = 65536

# The smallest shape the sampler accepts.  A gamma variate of shape a falls
# below the smallest double with probability about e^(-744.4 a), so at
# a = 1/1000 about 47% of draws are 0.0 and a row of zeros normalizes to
# 0/0 = NaN.  At a = 1/20 a draw is subnormal with probability about 4e-16,
# so even 10^9 draws expect fewer than 10^-6 of them.
MIN_MC_SHAPE = Fraction(1, 20)


def dirichlet_moment_exact(a_vec: Sequence[Fraction], l_vec: Sequence[int]) -> Fraction:
    """Exact mixed moment prod_i (a_i)_{l_i} / (sum a)_{sum l}."""
    a = tuple(Fraction(v) for v in a_vec)
    l = tuple(int(v) for v in l_vec)
    if not a or len(a) != len(l):
        raise ValueError(f"need matching non-empty vectors, got lengths {len(a)} and {len(l)}")
    if any(v <= 0 for v in a):
        raise ValueError(f"shape parameters must be positive, got {a}")
    if any(v < 0 for v in l):
        raise ValueError(f"exponents must be non-negative, got {l}")
    num = Fraction(1)
    for ai, li in zip(a, l):
        num *= pochhammer(ai, li)
    return num / pochhammer(sum(a), sum(l))


@dataclass(frozen=True)
class MomentQuery:
    """One mixed-moment estimation request.

    Vectors are stored exactly; shapes are converted to floats only at the
    sampling boundary.  Shapes below MIN_MC_SHAPE are refused.
    """

    a_vec: tuple[Fraction, ...]
    l_vec: tuple[int, ...]
    samples: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_vec", tuple(Fraction(v) for v in self.a_vec))
        object.__setattr__(self, "l_vec", tuple(int(v) for v in self.l_vec))
        if len(self.a_vec) < 2 or len(self.a_vec) != len(self.l_vec):
            raise ValueError(
                f"need k >= 2 with matching vectors, got lengths {len(self.a_vec)} and {len(self.l_vec)}"
            )
        low = next((v for v in self.a_vec if v < MIN_MC_SHAPE), None)
        if low is not None:
            raise ValueError(f"shape {low} is below the smallest accepted shape {MIN_MC_SHAPE}")
        if any(v < 0 for v in self.l_vec):
            raise ValueError(f"exponents must be non-negative, got {self.l_vec}")
        if self.samples < 2:
            raise ValueError(f"need samples >= 2 for a standard error, got {self.samples}")

    @property
    def k(self) -> int:
        return len(self.a_vec)


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean with its standard error and the attached exact value.

    exact_s and sampling_s are the wall times of the exact moment and of
    the block loop; they are diagnostics and take no part in comparisons.
    """

    mean: float
    stderr: float
    n_samples: int
    exact: Fraction
    exact_s: float = field(default=0.0, compare=False)
    sampling_s: float = field(default=0.0, compare=False)

    @property
    def deviation(self) -> float:
        return abs(self.mean - float(self.exact))

    def within(self, sigma: float) -> bool:
        """True when the mean sits within sigma standard errors of exact.

        A zero standard error (degenerate moment) demands exact agreement.
        """
        if self.stderr == 0.0:
            return self.deviation == 0.0
        return self.deviation <= sigma * self.stderr


def block_generator(seed: int, block: int) -> np.random.Generator:
    """Generator for one sampling block, a pure function of seed and block."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


def block_values(draws: np.ndarray, l_vec: Sequence[int]) -> np.ndarray:
    """Per-sample monomial prod_j (g_j / s)^{l_j} of a (samples, k) draw matrix.

    s is the row sum of the draws.  Columns with l_j = 0 contribute no
    factor, so all-zero exponents give ones.
    """
    s = draws[:, 0].copy()
    for j in range(1, draws.shape[1]):
        s += draws[:, j]
    values = None
    for j, lj in enumerate(l_vec):
        if lj == 0:
            continue
        w = draws[:, j] / s
        if lj > 1:
            w **= lj
        if values is None:
            values = w
        else:
            values *= w
    return np.ones(draws.shape[0]) if values is None else values


def dirichlet_moment_mc(q: MomentQuery) -> MomentEstimate:
    """Estimate the mixed moment by direct simulation of the weights.

    Each sample draws the k gammas, normalizes them to weights summing to
    one, and evaluates the monomial.  Results are identical for any shard
    split of the block range.
    """
    started = time.perf_counter()
    exact = dirichlet_moment_exact(q.a_vec, q.l_vec)
    sampling_started = time.perf_counter()
    shapes = np.array([float(v) for v in q.a_vec])
    remaining = q.samples
    block = 0
    # per block: sample count, sum, and sum of squared deviations about
    # the block's own mean
    blocks: list[tuple[int, float, float]] = []
    while remaining > 0:
        m = min(BLOCK_SIZE, remaining)
        rng = block_generator(q.seed, block)
        draws = rng.standard_gamma(shapes, size=(m, q.k))
        values = block_values(draws, q.l_vec)
        block_sum = float(values.sum())
        deviations = values - block_sum / m
        blocks.append((m, block_sum, float(np.dot(deviations, deviations))))
        remaining -= m
        block += 1
    n = q.samples
    mean = math.fsum(s_b for _, s_b, _ in blocks) / n
    # The blocks' squared deviations are moved to the overall mean (Chan,
    # Golub & LeVeque); a one-pass sum(v^2) - n mean^2 cancels to nothing
    # for concentrated shapes.
    m2 = math.fsum(m2_b + m_b * (s_b / m_b - mean) ** 2 for m_b, s_b, m2_b in blocks)
    variance = m2 / (n - 1)
    finished = time.perf_counter()
    return MomentEstimate(mean=mean, stderr=math.sqrt(variance / n), n_samples=n, exact=exact,
                          exact_s=sampling_started - started, sampling_s=finished - sampling_started)


def normalization_check(a_vec: Sequence[Fraction], n: int) -> Fraction:
    """Exact sum of multinomially weighted moments over all exponent splits.

    Because the weights sum to one, expanding (u_1 + ... + u_k)^n termwise
    must give exactly 1; the return value is that sum, for the caller to
    compare.  With the mixed moments above, the sum over the exponent
    splits l is n!/(sum a)_n times the coefficient of t^n in
    prod_i sum_l (a_i)_l t^l / l!, read off one truncated series product.
    """
    a = tuple(Fraction(v) for v in a_vec)
    if len(a) < 2:
        raise ValueError(f"need k >= 2 shapes, got {len(a)}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if any(v <= 0 for v in a):
        raise ValueError(f"shape parameters must be positive, got {a}")
    series = series_product((poly(pochhammer(ai, l) / math.factorial(l) for l in range(n + 1)) for ai in a), n)
    return math.factorial(n) * series[n] / pochhammer(sum(a), n)
