"""Monte Carlo cross-check of the Dirichlet mixed-moment formula.

The exact side says that for independent gamma variables with shapes a_i,
the normalized weights u_i = g_i / sum(g) satisfy

    E[u_1^{l_1} ... u_k^{l_k}] = prod_i (a_i)_{l_i} / (sum a)_{sum l}

with rising-factorial products on the right.  The sampler estimates the
left side directly and reports agreement in standard errors.

The standard error is exact, from the same formula.  The monomial
X = prod u_i^{l_i} has X^2 = prod u_i^{2 l_i}, so Var X = M(2l) - M(l)^2,
and since (a)_{2l} = (a)_l (a + l)_l, M(2l) = M(l) R where R is the moment
at l of the shapes a_i + l_i.  So Var X = M(l) (R - M(l)), exactly, and
the standard error of the mean of n samples is sqrt(Var X / n): it does
not depend on the draws, and one sample is enough for a verdict.

The verdict also allows for the rounding of the float pipeline, which the
standard error leaves out.  With u = 2^-53 and every operand non-negative,
an add, a product or a quotient is off by at most u relative to its exact
result, and a power by at most one ulp, 2u; to first order these add up.
A value's row sum s takes k - 1 adds, so each w_j = g_j / s is off by at
most k u, w_j^{l_j} by l_j k u plus 2u for the power where l_j > 1, and
the running product over at most k factors adds k - 1 products: a value is
off by at most (k L + 3k) u, L = sum l, from the exact monomial of its
draws.  A block's sum of m non-negative values is off by at most (m - 1) u
of the sum in whatever order NumPy adds them, since no partial sum exceeds
the whole.  The `fsum` of the block sums, the division by n and
float(exact) add u each.  So the mean may stray from float(exact) by
(k L + 3k + m + 2) u mean more than the sampling error, m the longest
block, and `MomentEstimate.within` adds that allowance.  The draws are
taken as they come (the gamma generator's arithmetic and the shapes'
conversion to float are not counted), and no value may underflow.

Sampling is blocked: sample index space is cut into fixed-size blocks and
each block gets its own generator spawned from the master seed and the
block index alone, and each of the block's k columns gets a child of it:
column j of block b draws from SeedSequence(entropy=seed, spawn_key=(b, j)).
The blocks run on one thread per CPU the process may use (never more
threads than blocks, and the calling thread is one of them): each thread
takes the next block index from a shared counter, and each block's sum
lands in its own slot, so the compensated sum of the slots reads them in
block order whichever thread made them.  NumPy's gamma draws and array
arithmetic release the interpreter lock, so the threads overlap.  The mean
depends only on the seed and sample count, never on the thread count or
on which thread ran a block.

A block's draws are made CHUNK_ROWS rows at a time into one
(k, CHUNK_ROWS) buffer, by one call with a scalar shape per column, and
their values go into one block-length array, so a block holds one chunk
of draws, not all of them.  A scalar shape keeps NumPy off its
broadcasting path, which costs 1.3 to 1.8 times as much per variate.
Each column consumes its own stream in order however the rows are
chunked, so chunked draws equal one whole-column draw element for
element, and the monomial of a row reads that row alone; the block's sum
is then taken over the whole array.

Within a block the arithmetic runs on the k columns of the (samples, k)
draw matrix, the transpose of the buffer, so each column is contiguous;
it never runs along the short rows: the row sums s are k - 1 in-place
column adds, and the monomial is a running product over the columns with
l_j > 0 of w_j = g_j / s, raised to an integer power only where l_j > 1.
Each factor is normalized before it enters the product, so every value
stays in [0, 1]; a large sum l can underflow to 0 but never overflow,
which prod g_j^{l_j} / s^{sum l} would.

NumPy is imported when sampling starts, by the functions that touch
arrays (`block_generator`, `block_values`, `dirichlet_moment_mc` and its
per-block step), never with the module: `import bek` and every exact
computation run without it, and start no thread.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral, Rational
from typing import TYPE_CHECKING, Callable, Sequence

from .exactmath import as_exact, pochhammer, pochhammer_parts, poly, rising_weights, series_product

if TYPE_CHECKING:
    import numpy as np

BLOCK_SIZE = 65536
# Rows of gamma draws made at a time within a block.
CHUNK_ROWS = 8192

# The smallest shape the sampler accepts.  A gamma variate of shape a falls
# below the smallest double with probability about e^(-744.4 a), so at
# a = 1/1000 about 47% of draws are 0.0 and a row of zeros normalizes to
# 0/0 = NaN.  At a = 1/20 a draw is subnormal with probability about 4e-16,
# so even 10^9 draws expect fewer than 10^-6 of them.
MIN_MC_SHAPE = Fraction(1, 20)


def dirichlet_moment_exact(a_vec: Sequence[Fraction], l_vec: Sequence[int]) -> Fraction:
    """Exact mixed moment prod_i (a_i)_{l_i} / (sum a)_{sum l}."""
    a = as_exact(a_vec, Rational, "shape")
    l = as_exact(l_vec, Integral, "exponent")
    if not a or len(a) != len(l):
        raise ValueError(f"need matching non-empty vectors, got lengths {len(a)} and {len(l)}")
    if any(v <= 0 for v in a):
        raise ValueError(f"shape parameters must be positive, got {a}")
    if any(v < 0 for v in l):
        raise ValueError(f"exponents must be non-negative, got {l}")
    return Fraction(*_moment_parts(a, l))


def _moment_parts(a: Sequence[Fraction], l: Sequence[int]) -> tuple[int, int]:
    """prod_i (a_i)_{l_i} / (sum a)_{sum l} as an unreduced numerator and
    positive denominator, for a caller that reduces it once, if at all:
    Fraction arithmetic on the long integers of a tall query would take
    gcds at every step."""
    den, num = pochhammer_parts(sum(a), sum(l))
    for ai, li in zip(a, l):
        p, q = pochhammer_parts(ai, li)
        num, den = num * p, den * q
    return num, den


@dataclass(frozen=True)
class MomentQuery:
    """One mixed-moment estimation request.

    Vectors are stored exactly, shapes as Fractions and exponents as ints;
    shapes are converted to floats only at the sampling boundary.  Shapes
    below MIN_MC_SHAPE are refused.  samples and seed are integers, not
    bools, with samples >= 1 and seed >= 0, all checked before any sampling.
    """

    a_vec: tuple[Fraction, ...]
    l_vec: tuple[int, ...]
    samples: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_vec", as_exact(self.a_vec, Rational, "shape"))
        object.__setattr__(self, "l_vec", as_exact(self.l_vec, Integral, "exponent"))
        if len(self.a_vec) < 2 or len(self.a_vec) != len(self.l_vec):
            raise ValueError(
                f"need k >= 2 with matching vectors, got lengths {len(self.a_vec)} and {len(self.l_vec)}"
            )
        low = next((v for v in self.a_vec if v < MIN_MC_SHAPE), None)
        if low is not None:
            raise ValueError(f"shape {low} is below the smallest accepted shape {MIN_MC_SHAPE}")
        if any(v < 0 for v in self.l_vec):
            raise ValueError(f"exponents must be non-negative, got {self.l_vec}")
        (samples,) = as_exact((self.samples,), Integral, "samples")
        (seed,) = as_exact((self.seed,), Integral, "seed")
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)

    @property
    def k(self) -> int:
        return len(self.a_vec)


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean with the exact standard error and the attached exact value.

    rounding is the bound of the module notes on how far the float
    pipeline's rounding moves the mean.  exact_s and sampling_s are the
    wall times of the exact moment and variance and of the block loop, and
    workers the threads that sampled the blocks; they are diagnostics and
    take no part in comparisons.
    """

    mean: float
    stderr: float
    n_samples: int
    exact: Fraction
    rounding: float = 0.0
    exact_s: float = field(default=0.0, compare=False)
    sampling_s: float = field(default=0.0, compare=False)
    workers: int = field(default=1, compare=False)

    @property
    def deviation(self) -> float:
        return abs(self.mean - float(self.exact))

    def within(self, sigma: float) -> bool:
        """True when the mean sits within sigma standard errors of exact,
        plus the rounding allowance.

        A zero standard error (degenerate moment) leaves the allowance alone.
        """
        return self.deviation <= sigma * self.stderr + self.rounding


def block_generator(seed: int, block: int) -> np.random.Generator:
    """Generator for one sampling block, a pure function of seed and block.

    The block's column j draws from its child spawn(k)[j], whose spawn key
    is (block, j).
    """
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


def block_values(draws: np.ndarray, l_vec: Sequence[int]) -> np.ndarray:
    """Per-sample monomial prod_j (g_j / s)^{l_j} of a (samples, k) draw matrix.

    s is the row sum of the draws.  Columns with l_j = 0 contribute no
    factor, so all-zero exponents give ones.
    """
    import numpy as np

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


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(count: int, work: Callable[[int], float], workers: int) -> list[float]:
    """[work(0), ..., work(count - 1)], run on the calling thread and
    workers - 1 more, each taking the next index from a shared counter.

    When work raises on any thread, or the calling thread is interrupted,
    no further index is started: the threads finish the work in flight
    and are joined, and the first exception is raised here.
    """
    results: list = [None] * count
    indices = itertools.count()
    errors: list[BaseException] = []

    def loop() -> None:
        for i in indices:
            if i >= count or errors:
                return
            results[i] = work(i)

    def thread_loop() -> None:
        try:
            loop()
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=thread_loop)
            thread.start()
            threads.append(thread)
        loop()
        for thread in threads:
            thread.join()
    except BaseException as exc:
        errors.append(exc)  # stops the other threads after their work in flight
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]
    return results


def _block_sum(q: MomentQuery, shapes: np.ndarray, block: int) -> float:
    """The sum of one block's values."""
    import numpy as np

    m = min(BLOCK_SIZE, q.samples - block * BLOCK_SIZE)
    columns = block_generator(q.seed, block).spawn(q.k)
    draws = np.empty((q.k, min(CHUNK_ROWS, m)))
    values = np.empty(m)
    for start in range(0, m, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, m - start)
        for rng, a, column in zip(columns, shapes, draws):
            rng.standard_gamma(a, size=rows, out=column[:rows])
        values[start:start + rows] = block_values(draws[:, :rows].T, q.l_vec)
    return float(values.sum())


def dirichlet_moment_mc(q: MomentQuery) -> MomentEstimate:
    """Estimate the mixed moment by direct simulation of the weights.

    Each sample draws the k gammas, normalizes them to weights summing to
    one, and evaluates the monomial.  The blocks run on one thread per
    CPU, up to one per block; results are identical for any thread count.
    The standard error is the exact sqrt(Var X / n) of the module notes.
    """
    import numpy as np

    started = time.perf_counter()
    exact = dirichlet_moment_exact(q.a_vec, q.l_vec)
    # R, the moment at l of the shapes a_i + l_i, and M (R - M) / n, each
    # over a denominator left unreduced; int / int rounds to the nearest
    # float as well
    r_num, r_den = _moment_parts([a + l for a, l in zip(q.a_vec, q.l_vec)], q.l_vec)
    m_num, m_den = exact.numerator, exact.denominator
    stderr = math.sqrt(m_num * (r_num * m_den - m_num * r_den) / (m_den ** 2 * r_den * q.samples))
    sampling_started = time.perf_counter()
    shapes = np.array([float(v) for v in q.a_vec])
    n_blocks = -(-q.samples // BLOCK_SIZE)
    workers = min(_cpu_count(), n_blocks)
    sums = _in_threads(n_blocks, lambda block: _block_sum(q, shapes, block), workers)
    finished = time.perf_counter()
    mean = math.fsum(sums) / q.samples
    # the rounding allowance of the module notes, in units of 2^-53 mean
    units = q.k * sum(q.l_vec) + 3 * q.k + min(BLOCK_SIZE, q.samples) + 2
    return MomentEstimate(mean=mean, stderr=stderr, n_samples=q.samples, exact=exact,
                          rounding=units * 2.0 ** -53 * mean, exact_s=sampling_started - started,
                          sampling_s=finished - sampling_started, workers=workers)


def normalization_check(a_vec: Sequence[Fraction], n: int) -> Fraction:
    """Exact sum of multinomially weighted moments over all exponent splits.

    Because the weights sum to one, expanding (u_1 + ... + u_k)^n termwise
    must give exactly 1; the return value is that sum, for the caller to
    compare.  With the mixed moments above, the sum over the exponent
    splits l is n!/(sum a)_n times the coefficient of t^n in
    prod_i sum_l (a_i)_l t^l / l!, read off one truncated series product.
    """
    a = as_exact(a_vec, Rational, "shape")
    (n,) = as_exact((n,), Integral, "n")
    if len(a) < 2:
        raise ValueError(f"need k >= 2 shapes, got {len(a)}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if any(v <= 0 for v in a):
        raise ValueError(f"shape parameters must be positive, got {a}")
    series = series_product((poly(rising_weights(ai, n)) for ai in a), n)
    return math.factorial(n) * series[n] / pochhammer(sum(a), n)
