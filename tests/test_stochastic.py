"""Unit tests for the exact Dirichlet moments and the gamma sampler."""

from __future__ import annotations

import ast
import dataclasses
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bek import stochastic
from bek.exactmath import pochhammer
from bek.stochastic import (
    BLOCK_SIZE,
    CHUNK_ROWS,
    MIN_MC_SHAPE,
    MomentEstimate,
    MomentQuery,
    block_generator,
    block_values,
    dirichlet_moment_exact,
    dirichlet_moment_mc,
    normalization_check,
)
from walks import composition_parts, multinomial

F = Fraction

# The shape vectors of the acceptance gate's stochastic criterion.
CRITERION_SHAPES = ((F(1), F(1)), (F(1), F(2), F(1, 2)), (F(2), F(2), F(2), F(2)))


def _walk_normalization(a_vec, n):
    """The composition walk that normalization_check replaced, kept as its
    reference: sum_l n!/prod_i l_i! times the exact mixed moment at l."""
    return sum((multinomial(n, parts) * dirichlet_moment_exact(a_vec, parts)
                for parts in composition_parts(n, len(a_vec))), F(0))


def _column_draws(seed: int, block: int, shapes, m: int) -> np.ndarray:
    """A block's (m, k) draw matrix regenerated one column at a time, column
    j from the seed sequence with spawn key (block, j)."""
    streams = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block, j))))
               for j in range(len(shapes)))
    return np.column_stack([rng.standard_gamma(a, size=m) for rng, a in zip(streams, shapes)])


def _sampled_draws(monkeypatch, q: MomentQuery) -> list[np.ndarray]:
    """The draw matrices that dirichlet_moment_mc hands to block_values, one
    per block, on one thread."""
    chunks, values = [], stochastic.block_values
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 1)
    monkeypatch.setattr(stochastic, "block_values",
                        lambda draws, l_vec: chunks.append(draws.copy()) or values(draws, l_vec))
    dirichlet_moment_mc(q)
    per_block = -(-BLOCK_SIZE // stochastic.CHUNK_ROWS)
    return [np.concatenate(chunks[i:i + per_block]) for i in range(0, len(chunks), per_block)]


def _reference_block_values(draws: np.ndarray, l_vec) -> np.ndarray:
    """Row-wise monomial: normalize each row, raise to float powers, multiply."""
    weights = draws / draws.sum(axis=1, keepdims=True)
    return np.prod(weights ** np.array([float(v) for v in l_vec]), axis=1)


class TestExactMoments:
    def test_frozen_values(self):
        assert dirichlet_moment_exact((F(1), F(1)), (1, 1)) == F(1, 6)
        assert dirichlet_moment_exact((F(1), F(1)), (2, 1)) == F(1, 12)
        assert dirichlet_moment_exact((F(1), F(2), F(1, 2)), (2, 1, 3)) == F(32, 153153)
        assert dirichlet_moment_exact((F(2),) * 4, (1,) * 4) == F(1, 495)

    def test_zero_exponents_give_one(self):
        assert dirichlet_moment_exact((F(1), F(3)), (0, 0)) == 1

    def test_numpy_integer_shapes_are_exact(self):
        # a Fraction of a NumPy integer kept its 64-bit numerator, and the
        # moment wrapped to -256875/27423298
        assert dirichlet_moment_exact((np.int64(1), np.int64(1)), (40, 1)) == F(1, 1722)

    def test_matches_beta_integral_for_pairs(self):
        # for k=2 the first weight is Beta(a1, a2); its l-th raw moment is
        # (a1)_l / (a1+a2)_l
        for a1, a2 in [(F(1), F(1)), (F(1, 2), F(3, 2)), (F(3), F(2))]:
            for l in range(5):
                assert dirichlet_moment_exact((a1, a2), (l, 0)) == pochhammer(a1, l) / pochhammer(a1 + a2, l)

    def test_rejections(self):
        with pytest.raises(ValueError):
            dirichlet_moment_exact((), ())
        with pytest.raises(ValueError):
            dirichlet_moment_exact((F(1), F(0)), (1, 1))
        with pytest.raises(ValueError):
            dirichlet_moment_exact((F(1), F(1)), (1, -1))
        with pytest.raises(ValueError):
            dirichlet_moment_exact((F(1), F(1)), (1,))


class TestNormalization:
    def test_exact_one_on_grid(self):
        vectors = [
            (F(1), F(1)),
            (F(1, 2), F(3), F(2)),
            (F(1), F(2), F(1, 2), F(3, 2)),
        ]
        for a_vec in vectors:
            for n in range(0, 9):
                assert normalization_check(a_vec, n) == 1

    def test_more_shapes_than_the_recursion_limit(self):
        # one composition of 0 into 1100 parts; enumerating it once took
        # one stack frame per part
        assert normalization_check((F(1),) * 1100, 0) == 1

    def test_many_shapes_at_a_high_degree(self):
        # the walk would visit C(39, 9) = 211,915,132 compositions
        assert normalization_check((F(1, 3),) * 10, 30) == 1

    def test_matches_the_walk_on_the_criterion_grid(self):
        for a_vec in CRITERION_SHAPES:
            for n in range(13):
                assert normalization_check(a_vec, n) == _walk_normalization(a_vec, n) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7), min_size=2, max_size=4),
           st.integers(0, 8))
    def test_matches_the_walk(self, a_vec, n):
        got = normalization_check(a_vec, n)
        assert got == _walk_normalization(a_vec, n) == 1
        assert type(got) is F

    def test_rejects_small_k_and_negative_n(self):
        with pytest.raises(ValueError, match="k >= 2"):
            normalization_check((F(1),), 3)
        with pytest.raises(ValueError, match="n >= 0"):
            normalization_check((F(1), F(1)), -1)
        for shapes in ((F(1), F(0)), (F(-1, 2), F(3))):
            with pytest.raises(ValueError, match="shape parameters must be positive"):
                normalization_check(shapes, 2)


# What the exact layer refuses before it converts anything: a shape that is
# not a rational number (floats, strings, bools, None, nan, inf), and an
# exponent, n, sample count or seed that is not an integer (a Fraction
# among them).  int(1.5) would read the exponent 1, and Fraction(0.5) a
# float; a float sample count or seed failed only inside NumPy, after the
# exact moment had been computed.
BAD_SHAPES = (0.5, 1.0, "1", "1/2", True, False, None, float("nan"), float("inf"))
BAD_INTEGERS = (1.5, 1.0, "2", True, False, None, float("nan"), float("inf"), F(1), F(3, 2))
ENTRY_RULE_CASES = [
    *((f"dirichlet_moment_exact-shape-{v!r}", lambda v=v: dirichlet_moment_exact((v, F(1)), (1, 1)), "shape")
      for v in BAD_SHAPES),
    *((f"MomentQuery-shape-{v!r}", lambda v=v: MomentQuery((F(1), v), (1, 1), 100, 1), "shape")
      for v in BAD_SHAPES),
    *((f"normalization_check-shape-{v!r}", lambda v=v: normalization_check((v, F(1)), 2), "shape")
      for v in BAD_SHAPES),
    *((f"dirichlet_moment_exact-exponent-{v!r}", lambda v=v: dirichlet_moment_exact((F(1), F(1)), (v, 1)),
       "exponent") for v in BAD_INTEGERS),
    *((f"MomentQuery-exponent-{v!r}", lambda v=v: MomentQuery((F(1), F(1)), (1, v), 100, 1), "exponent")
      for v in BAD_INTEGERS),
    *((f"normalization_check-n-{v!r}", lambda v=v: normalization_check((F(1), F(1)), v), "n")
      for v in BAD_INTEGERS),
    *((f"MomentQuery-samples-{v!r}", lambda v=v: MomentQuery((F(1), F(1)), (1, 1), v, 1), "samples")
      for v in (*BAD_INTEGERS, 2.5, 100.0)),
    *((f"MomentQuery-seed-{v!r}", lambda v=v: MomentQuery((F(1), F(1)), (1, 1), 100, v), "seed")
      for v in (*BAD_INTEGERS, "7")),
]


@pytest.mark.parametrize("call, entry", [case[1:] for case in ENTRY_RULE_CASES],
                         ids=[case[0] for case in ENTRY_RULE_CASES])
def test_one_input_rule_refuses_what_it_would_convert(call, entry):
    kind = "a rational number" if entry == "shape" else "an integer"
    with pytest.raises(ValueError, match=rf"^{entry} .* is not {kind}$"):
        call()


class TestQueryValidation:
    def test_coercion(self):
        q = MomentQuery((1, 2), (1, 0), 100, 7)
        assert q.a_vec == (F(1), F(2)) and q.l_vec == (1, 0) and q.k == 2

    def test_rejections(self):
        with pytest.raises(ValueError):
            MomentQuery((F(1),), (1,), 100, 7)
        with pytest.raises(ValueError):
            MomentQuery((F(1), F(-1)), (1, 1), 100, 7)
        with pytest.raises(ValueError):
            MomentQuery((F(1), F(1)), (1, -1), 100, 7)
        with pytest.raises(ValueError, match="^need samples >= 1, got 0$"):
            MomentQuery((F(1), F(1)), (1, 1), 0, 7)

    def test_one_sample_is_a_query(self):
        # the standard error is exact, so it needs no second sample
        assert MomentQuery((F(1), F(1)), (1, 1), 1, 7).samples == 1

    def test_seed_is_non_negative(self):
        # NumPy refused it only while sampling, as "expected non-negative integer"
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            MomentQuery((F(1), F(1)), (1, 1), 100, -1)
        assert MomentQuery((F(1), F(1)), (1, 1), 2, 0).seed == 0

    def test_numpy_integers_are_stored_as_ints(self):
        q = MomentQuery((F(1), F(1)), (1, 1), np.int64(100), np.uint32(7))
        assert (q.samples, q.seed) == (100, 7)
        assert type(q.samples) is int and type(q.seed) is int

    def test_shape_floor(self):
        # below the floor the sampler's gamma draws underflow to 0.0 and the
        # estimate would be NaN, so the query itself refuses the shape
        assert MIN_MC_SHAPE == F(1, 20)
        with pytest.raises(ValueError, match="1/20"):
            MomentQuery((F(1, 1000), F(1, 1000)), (1, 1), 100, 1)
        with pytest.raises(ValueError, match="1/20"):
            MomentQuery((F(1), F(1, 21)), (1, 1), 100, 1)
        q = MomentQuery((F(1, 20), F(1, 20)), (1, 1), 100, 1)
        assert q.a_vec == (F(1, 20), F(1, 20))


class TestSampler:
    def test_block_generator_is_pure(self):
        one = block_generator(99, 3).standard_gamma(1.0, size=8)
        two = block_generator(99, 3).standard_gamma(1.0, size=8)
        other = block_generator(99, 4).standard_gamma(1.0, size=8)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)

    def test_column_j_draws_from_the_stream_with_spawn_key_block_j(self, monkeypatch):
        # column j of block b is SeedSequence(entropy=seed, spawn_key=(b, j)),
        # which is also block_generator(seed, b).spawn(k)[j]
        q = MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), BLOCK_SIZE + 17, 13)
        shapes = [float(a) for a in q.a_vec]
        blocks = _sampled_draws(monkeypatch, q)
        assert [len(draws) for draws in blocks] == [BLOCK_SIZE, 17]
        for block, draws in enumerate(blocks):
            assert np.array_equal(draws, _column_draws(q.seed, block, shapes, len(draws)))
            children = block_generator(q.seed, block).spawn(q.k)
            for j, (rng, a) in enumerate(zip(children, shapes)):
                assert np.array_equal(rng.standard_gamma(a, size=len(draws)), draws[:, j])

    def test_no_two_columns_share_a_stream(self, monkeypatch):
        # equal shapes in one block: a stream reused for every column would
        # give equal columns, and weights of 1/4 with mean 1/16, not 1/18
        q = MomentQuery((F(2),) * 4, (1, 1, 0, 0), BLOCK_SIZE, 3)
        (draws,) = _sampled_draws(monkeypatch, q)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[:, i], draws[:, j])
        est = dirichlet_moment_mc(dataclasses.replace(q, samples=200_000))
        assert est.exact == F(2 * 2, 8 * 9)
        assert est.within(4.0)

    @pytest.mark.parametrize("shape", [F(1, 2), F(1), F(7, 3)])
    def test_gamma_raw_moments(self, shape):
        # n-th raw moment of the unit-scale gamma is the rising factorial
        # (shape)_n; checked to n = 4 at one million draws
        n_draws = 1_000_000
        draws = block_generator(2024, 0).standard_gamma(float(shape), size=n_draws)
        for n in range(1, 5):
            powers = draws ** n
            mean = float(powers.mean())
            stderr = float(powers.std(ddof=1)) / math.sqrt(n_draws)
            assert abs(mean - float(pochhammer(shape, n))) <= 4 * stderr

    def test_gamma_additivity_moments(self):
        # the sum of independent gammas carries the summed shape
        a1, a2 = F(3, 2), F(2)
        n_draws = 1_000_000
        rng = block_generator(77, 0)
        total = rng.standard_gamma(float(a1), size=n_draws) + rng.standard_gamma(float(a2), size=n_draws)
        for n in range(1, 4):
            powers = total ** n
            mean = float(powers.mean())
            stderr = float(powers.std(ddof=1)) / math.sqrt(n_draws)
            assert abs(mean - float(pochhammer(a1 + a2, n))) <= 4 * stderr


class TestMonteCarlo:
    def test_within_four_sigma_of_exact(self):
        q = MomentQuery((F(1), F(1)), (1, 1), 200_000, 42)
        est = dirichlet_moment_mc(q)
        assert est.exact == F(1, 6)
        assert est.n_samples == 200_000
        assert est.stderr > 0
        assert est.within(4.0)

    def test_deterministic_under_seed(self):
        q = MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), 100_000, 9)
        assert dirichlet_moment_mc(q) == dirichlet_moment_mc(q)

    def test_seed_changes_stream(self):
        a = dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), 50_000, 1))
        b = dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), 50_000, 2))
        assert a.mean != b.mean

    def test_zero_exponents_degenerate(self):
        for k in (2, 5, 10):
            est = dirichlet_moment_mc(MomentQuery((F(1),) * k, (0,) * k, 1_000, 3))
            assert est.mean == 1.0 and est.stderr == 0.0 and est.within(0.0)

    def test_partial_final_block(self):
        # sample counts that do not divide the block size still deterministic
        n = BLOCK_SIZE + 17
        a = dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), n, 5))
        b = dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), n, 5))
        assert a == b and a.n_samples == n

    def test_shard_independence_of_prefix_blocks(self):
        # the first block's draws do not depend on how many blocks follow,
        # which is what makes worker splits irrelevant
        small = block_generator(11, 0).standard_gamma(1.0, size=(BLOCK_SIZE, 2))
        again = block_generator(11, 0).standard_gamma(1.0, size=(BLOCK_SIZE, 2))
        assert np.array_equal(small, again)

    def test_mean_matches_the_regenerated_blocks(self):
        # regenerate every block's values and compare with their mean over
        # the whole sample
        q = MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), 2 * BLOCK_SIZE + 17, 7)
        est = dirichlet_moment_mc(q)
        values = []
        for block, m in enumerate((BLOCK_SIZE, BLOCK_SIZE, 17)):
            draws = _column_draws(q.seed, block, [1.0, 2.0, 0.5], m)
            values.append(_reference_block_values(draws, q.l_vec))
        assert est.mean == pytest.approx(float(np.concatenate(values).mean()), rel=1e-12)

    @pytest.mark.parametrize("shape", [10**8, 10**10])
    def test_concentrated_shapes_keep_a_positive_stderr(self, shape):
        # u_1 u_2 is nearly constant here; its exact variance, about 3e-18
        # at 10^8, is positive
        est = dirichlet_moment_mc(MomentQuery((F(shape), F(shape)), (1, 1), 200_000, 42))
        assert est.stderr > 0
        assert est.within(4.0)

    def test_the_verdict_allows_for_the_float_rounding(self):
        # at a = 10^15 the float mean is one ulp off float(exact), 70 exact
        # sigma: the rounding allowance of the module notes, (k L + 3k + m +
        # 2) 2^-53 mean with m the longest block, passes it
        est = dirichlet_moment_mc(MomentQuery((F(10**15), F(10**15)), (1, 1), 200_000, 42))
        assert est.deviation > 70 * est.stderr
        assert est.rounding == (2 * 2 + 3 * 2 + BLOCK_SIZE + 2) * 2.0 ** -53 * est.mean
        assert est.deviation <= est.rounding and est.within(4.0)
        assert not dataclasses.replace(est, rounding=0.0).within(4.0)
        short = dirichlet_moment_mc(MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), 5, 0))
        assert short.rounding == (3 * 6 + 3 * 3 + 5 + 2) * 2.0 ** -53 * short.mean

    def test_estimate_within_logic(self):
        est = MomentEstimate(mean=1.0, stderr=0.1, n_samples=10, exact=F(1))
        assert est.within(0.0)
        off = MomentEstimate(mean=1.05, stderr=0.01, n_samples=10, exact=F(1))
        assert not off.within(4.0)
        assert off.within(6.0)
        degenerate = MomentEstimate(mean=0.5, stderr=0.0, n_samples=10, exact=F(1))
        assert not degenerate.within(100.0)
        # the rounding allowance adds to sigma standard errors, and alone
        # bounds a zero standard error
        assert MomentEstimate(mean=1.05, stderr=0.01, n_samples=10, exact=F(1), rounding=0.03).within(3.0)
        assert not MomentEstimate(mean=1.05, stderr=0.01, n_samples=10, exact=F(1), rounding=0.005).within(4.0)
        assert MomentEstimate(mean=0.5, stderr=0.0, n_samples=10, exact=F(1), rounding=0.5).within(0.0)
        assert not MomentEstimate(mean=0.5, stderr=0.0, n_samples=10, exact=F(1), rounding=0.25).within(100.0)


def _direct_stderr(q: MomentQuery) -> float:
    """sqrt((M(2l) - M(l)^2) / n), the exact variance in its direct form."""
    exact = dirichlet_moment_exact(q.a_vec, q.l_vec)
    return math.sqrt((dirichlet_moment_exact(q.a_vec, [2 * l for l in q.l_vec]) - exact ** 2) / q.samples)


class TestExactStderr:
    """The standard error is sqrt(Var X / n) with the exact variance
    M(2l) - M(l)^2 of the monomial X: a function of the query's shapes,
    exponents and sample count alone."""

    QUERY = MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), BLOCK_SIZE + 17, 5)

    @pytest.mark.parametrize("a_vec, l_vec", [*((a, (1,) * len(a)) for a in CRITERION_SHAPES),
                                              ((F(1), F(2), F(1, 2)), (2, 1, 3)), ((F(1), F(3)), (0, 0)),
                                              ((F(10**8), F(10**8)), (1, 1)), ((F(1, 3), F(2, 7)), (40, 1))])
    @pytest.mark.parametrize("samples", [1, 2, 20_000])
    def test_stderr_is_the_exact_variance_over_n(self, a_vec, l_vec, samples):
        q = MomentQuery(a_vec, l_vec, samples, 3)
        assert dirichlet_moment_mc(q).stderr == _direct_stderr(q)

    def test_one_reduced_moment_per_query(self, monkeypatch):
        # R = M(2l)/M(l) enters the standard error as unreduced integer
        # products: the only reduced moment is the reported M(l)
        calls = []
        exact = stochastic.dirichlet_moment_exact
        monkeypatch.setattr(stochastic, "dirichlet_moment_exact", lambda *args: calls.append(args) or exact(*args))
        q = MomentQuery((F(1, 3), F(2, 7)), (40, 1), 100, 3)
        assert dirichlet_moment_mc(q).stderr == _direct_stderr(q)
        assert calls == [(q.a_vec, q.l_vec)]

    def test_frozen_value(self):
        # Var(u_1 u_2) at a = (1, 1) is M(2, 2) - M(1, 1)^2 = 1/30 - 1/36 = 1/180
        assert dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), 5, 0)).stderr == math.sqrt(F(1, 900))

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40])
    def test_the_same_for_every_seed(self, seed):
        est = dirichlet_moment_mc(dataclasses.replace(self.QUERY, seed=seed))
        assert est.stderr == _direct_stderr(self.QUERY)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("rows", [1000, CHUNK_ROWS])
    def test_the_same_for_every_thread_count_and_chunk_size(self, monkeypatch, workers, rows):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: workers)
        monkeypatch.setattr(stochastic, "CHUNK_ROWS", rows)
        assert dirichlet_moment_mc(self.QUERY).stderr == _direct_stderr(self.QUERY)

    @pytest.mark.parametrize("samples", [2, 20_000, 1_000_000])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_mean_moved_by_ten_standard_errors_fails(self, monkeypatch, samples, sign):
        q = MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), samples, 42)
        assert dirichlet_moment_mc(q).within(4.0)
        shift = sign * 10 * _direct_stderr(q)
        values = stochastic.block_values
        monkeypatch.setattr(stochastic, "block_values", lambda draws, l_vec: values(draws, l_vec) + shift)
        assert not dirichlet_moment_mc(q).within(4.0)


# Queries whose estimates must not depend on the thread count: three
# blocks with a short last one, and a concentrated moment whose values
# agree to about 9 digits.
THREAD_QUERIES = [MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), 2 * BLOCK_SIZE + 17, 7),
                  MomentQuery((F(10**8), F(10**8)), (1, 1), 200_000, 42)]


def _blocks(q: MomentQuery) -> int:
    return -(-q.samples // BLOCK_SIZE)


class TestBlockThreads:
    """The blocks run on the calling thread and up to one more thread per
    further CPU; the estimate is the same for any number of them."""

    @pytest.fixture(scope="class")
    def one_worker(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stochastic, "_cpu_count", lambda: 1)
            return [dirichlet_moment_mc(q) for q in THREAD_QUERIES]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("index", range(len(THREAD_QUERIES)))
    def test_any_worker_count_gives_the_same_estimate(self, monkeypatch, one_worker, workers, index):
        q = THREAD_QUERIES[index]
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: workers)
        est = dirichlet_moment_mc(q)
        assert est == one_worker[index]
        assert est.workers == min(workers, _blocks(q))

    def test_more_threads_than_cores_run_every_block_once(self, monkeypatch, one_worker):
        # eight threads switching every microsecond: a block lost or run
        # twice by a race on the shared counter changes the estimate
        q = THREAD_QUERIES[0]
        seen = []
        make = stochastic.block_generator
        monkeypatch.setattr(stochastic, "block_generator", lambda seed, block: seen.append(block) or make(seed, block))
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = dirichlet_moment_mc(q)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(_blocks(q)))
        assert est == one_worker[0] and est.workers == _blocks(q)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(stochastic.threading, "Thread", None)
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: 4)
        est = dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), BLOCK_SIZE, 3))
        assert est.workers == 1

    def test_workers_take_no_part_in_comparisons(self):
        assert MomentEstimate(0.5, 0.1, 10, F(1, 2), workers=1) == MomentEstimate(0.5, 0.1, 10, F(1, 2), workers=4)

    def test_cpu_count_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(stochastic.os, "sched_getaffinity", lambda pid: {0, 5, 7})
        assert stochastic._cpu_count() == 3
        monkeypatch.delattr(stochastic.os, "sched_getaffinity")
        monkeypatch.setattr(stochastic.os, "cpu_count", lambda: 6)
        assert stochastic._cpu_count() == 6
        monkeypatch.setattr(stochastic.os, "cpu_count", lambda: None)
        assert stochastic._cpu_count() == 1

    @staticmethod
    def _failing_block(monkeypatch, fails, exc: BaseException) -> list[int]:
        """Make the first chunk of each block for which fails(block) holds,
        on the thread that runs it, raise exc; returns the list of blocks
        started."""
        started, current = [], threading.local()
        make, values = stochastic.block_generator, stochastic.block_values

        def block_generator(seed, block):
            started.append(block)
            current.block = block
            return make(seed, block)

        def block_values(draws, l_vec):
            if fails(current.block):
                raise exc
            return values(draws, l_vec)

        monkeypatch.setattr(stochastic, "block_generator", block_generator)
        monkeypatch.setattr(stochastic, "block_values", block_values)
        return started

    @staticmethod
    def _stop_marks(monkeypatch, started: list[int]) -> list[int]:
        """Make the sampling threads note len(started) whenever a thread's
        loop has returned, or the calling thread joins the others; returns
        the notes in time order.

        By the first note a failure is recorded or the block indices are
        spent, so from then on a thread starts a block only if it passed
        its check of the failures before: at most one block for each
        thread but the one that stopped.  The bound does not depend on how
        many blocks the threads finished while the failing block ran.
        """
        marks = []

        class Thread(threading.Thread):
            def run(self):
                super().run()
                marks.append(len(started))

            def join(self, timeout=None):
                marks.append(len(started))
                super().join(timeout)

        monkeypatch.setattr(stochastic.threading, "Thread", Thread)
        return marks

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_block_stops_sampling(self, monkeypatch, workers):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: workers)
        started = self._failing_block(monkeypatch, lambda block: block == 3, RuntimeError("block 3"))
        marks = self._stop_marks(monkeypatch, started)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^block 3$"):
            dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), 40 * BLOCK_SIZE, 1))
        # once block 3's failure is recorded, each other thread starts at
        # most the block it had already checked out
        assert 3 in started
        if workers == 1:
            assert started == [0, 1, 2, 3] and marks == []
        else:
            assert len(started) - marks[0] <= workers - 1
        assert threading.active_count() == threads

    def test_an_interrupt_of_the_calling_thread_stops_sampling(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_cpu_count", lambda: 2)
        # the calling thread's first block is interrupted; the other thread
        # finishes the block it is on and starts at most the one it had
        # already checked out
        started = self._failing_block(monkeypatch, lambda block: threading.current_thread() is threading.main_thread(),
                                      KeyboardInterrupt())
        marks = self._stop_marks(monkeypatch, started)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            dirichlet_moment_mc(MomentQuery((F(1), F(1)), (1, 1), 40 * BLOCK_SIZE, 1))
        assert len(started) - marks[0] <= 1
        assert threading.active_count() == threads


class TestRowChunks:
    """A block's draws are made CHUNK_ROWS rows at a time.  Each column
    consumes its own stream in order, and a row's monomial reads that row
    alone, so chunked draws of each column and their values equal one
    whole-column call per column."""

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(st.one_of(st.just(1.0), st.floats(1 / 20, 1e8)), min_size=2, max_size=5),
           data=st.data())
    def test_chunks_equal_one_call(self, shapes, data):
        k, m = len(shapes), 3000
        l_vec = tuple(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
        cuts = sorted(set(data.draw(st.lists(st.integers(1, m - 1), max_size=6))))
        seed = data.draw(st.integers(0, 2**32))
        whole = np.column_stack([rng.standard_gamma(a, size=m)
                                 for rng, a in zip(block_generator(seed, 0).spawn(k), shapes)])
        columns = block_generator(seed, 0).spawn(k)
        chunks = []
        for start, stop in zip([0, *cuts], [*cuts, m]):
            draws = np.empty((k, stop - start))
            for rng, a, column in zip(columns, shapes, draws):
                rng.standard_gamma(a, size=stop - start, out=column)
            chunks.append(draws.T)
        assert np.array_equal(np.concatenate(chunks), whole)
        assert np.array_equal(np.concatenate([block_values(c, l_vec) for c in chunks]),
                              block_values(whole, l_vec))

    @pytest.mark.parametrize("rows", [1000, 4097, BLOCK_SIZE])
    def test_estimate_does_not_depend_on_the_chunk_size(self, monkeypatch, rows):
        q = MomentQuery((F(1), F(2), F(1, 2)), (2, 1, 3), BLOCK_SIZE + 17, 5)
        expected = dirichlet_moment_mc(q)
        assert CHUNK_ROWS not in (rows, BLOCK_SIZE + 17)
        monkeypatch.setattr(stochastic, "CHUNK_ROWS", rows)
        est = dirichlet_moment_mc(q)
        assert (est.mean, est.stderr) == (expected.mean, expected.stderr)


class TestBlasThreads:
    """The printed estimates do not depend on the BLAS thread count: a
    block's values are summed by NumPy, never by a BLAS call, whose
    rounding follows the number of OpenBLAS threads."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_mc_prints_the_same_bytes_for_one_and_two_blas_threads(self, fmt):
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(stochastic.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", "import sys; from bek.cli import main; sys.exit(main())",
                                   "mc", "--samples", "20000", "--format", fmt],
                                  env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


# Shapes per column for the kernel tests, with one column of every size
# class the sampler sees in practice.
_KERNEL_SHAPES = (0.5, 1.0, 2.0, 3.5, 0.25, 1.5, 5.0, 0.75, 2.5, 1.25)


class TestBlockKernel:
    """The column kernel against the row-wise expression, sample by sample.

    The two differ only in rounding: the kernel squares by one multiply
    where the row-wise form calls pow, and sums the columns strictly in
    order where NumPy's row sum may pair them.
    """

    @staticmethod
    def _check(shapes, l_vec, seed, m=4096):
        draws = block_generator(seed, 0).standard_gamma(shapes, size=(m, len(shapes)))
        kept = draws.copy()
        values = block_values(draws, l_vec)
        np.testing.assert_allclose(values, _reference_block_values(kept, l_vec), rtol=1e-12, atol=0)
        # the draws are read, never written
        assert np.array_equal(draws, kept)
        return values

    @pytest.mark.parametrize("k", range(2, 11))
    def test_mixed_exponents(self, k):
        shapes = _KERNEL_SHAPES[:k]
        for offset in range(4):
            l_vec = tuple((j + offset) % 4 for j in range(k))
            self._check(shapes, l_vec, seed=100 + 4 * k + offset)
        self._check(shapes, (1,) * k, seed=k)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_exponent_1000(self, k):
        # a heavy first shape keeps w_1 near 1, so w_1^1000 stays well
        # inside the normal range for most samples
        shapes = (2000.0,) + _KERNEL_SHAPES[1:k]
        values = self._check(shapes, (1000,) + (0,) * (k - 1), seed=200 + k)
        assert np.count_nonzero(values > 1e-30) > len(values) // 2
        self._check(shapes, (1000,) + tuple(j % 4 for j in range(1, k)), seed=300 + k)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_zero_exponents_give_ones(self, k):
        draws = block_generator(5, 0).standard_gamma(_KERNEL_SHAPES[:k], size=(1000, k))
        assert np.array_equal(block_values(draws, (0,) * k), np.ones(1000))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_concentrated_shapes(self, k):
        self._check((1e8,) * k, (1,) * k, seed=42, m=BLOCK_SIZE)
        self._check((1e8,) * k, tuple(range(1, k + 1)), seed=43)


# The import of the package, the exact commands of a fresh interpreter,
# then one Monte Carlo query: prints, after each part, the number of
# threads and whether NumPy and concurrent.futures were loaded.  The
# query's zero exponents make every sample 1, so two samples pass it
# exactly, and they reach every function of the sampler that imports
# NumPy.
FRESH_RUN = """
import io, sys, threading
def loaded():
    print(threading.active_count(), "numpy" in sys.modules, "concurrent.futures" in sys.modules)
import bek, bek.cli, bek.umbral
loaded()
from fractions import Fraction
from bek import cli
for config in (cli.RunConfig("list"), cli.RunConfig("verify", identity="miki"), cli.RunConfig("tables", max_n=10)):
    assert cli.run(config, out=io.StringIO()) == 0
loaded()
query = cli.RunConfig("mc", a_vec=(Fraction(1), Fraction(1)), l_vec=(0, 0), samples=2)
assert cli.run(query, out=io.StringIO()) == 0
loaded()
"""


class TestNumpyIsImportedBySampling:
    """NumPy is imported when sampling starts, not with the package: the
    exact layers and commands never load it, and nothing starts a thread
    or loads concurrent.futures."""

    PACKAGE = Path(stochastic.__file__).parent

    @staticmethod
    def _module_level_imports(tree: ast.Module) -> set[str]:
        """Top modules imported outside any function and outside an
        `if TYPE_CHECKING:` block."""
        found, todo = set(), list(tree.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                todo.extend(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
            todo.extend(ast.iter_child_nodes(node))
        return found

    def test_no_module_imports_numpy_at_module_level(self):
        modules = sorted(self.PACKAGE.glob("*.py"))
        assert modules
        assert [path.name for path in modules
                if "numpy" in self._module_level_imports(ast.parse(path.read_text()))] == []

    def test_exact_commands_run_without_numpy_and_sampling_loads_it(self):
        env = {**os.environ, "PYTHONPATH": str(self.PACKAGE.parent)}
        proc = subprocess.run([sys.executable, "-c", FRESH_RUN], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1 False False", "1 False False", "1 True False"]
