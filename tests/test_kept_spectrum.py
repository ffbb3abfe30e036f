"""The kept pairs of a Spectrum against full-spectrum oracles.

decompose keeps only the eigenpairs above rounding_level(n, lambda_max);
the scorers treat the dropped ones as r = 1. Here the edf, the training MSE
and the refit from the kept pairs meet the same quantities summed over all n
pairs of a dense eigh of the same matrix, and the dropped count meets the
oracle's count at or below the cut.
"""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import sample_times
from srmks import smoother
from srmks.experiment import default_config
from srmks.kernels import SDOFKernel, SEKernel, gram, kernel_eval
from srmks.oscillator import OscillatorParams
from srmks.smoother import decompose, rounding_level, signal_scale_scores, spectral_weights

_PAPER = OscillatorParams(m=1.0, c=20.0, k=1e6)
_EPS = np.finfo(float).eps
# LAPACK's eigenvalues at n <= 16 reach 2.9 rounding levels (test_smoother's fold test)
_SLACK = 4.0


def _oracle(base, t):
    """(eigenvalues clamped at 0, eigenvectors) of the matrix decompose takes, by QR iteration."""
    if smoother._uniform(t):
        K = scipy.linalg.toeplitz(kernel_eval(base, t - t[0], 0.0))
    else:
        K = gram(base, t)
    lam, vectors = scipy.linalg.eigh(K, driver="ev")
    return np.maximum(lam, 0.0), vectors


# targets are 0 or at least 1e-3 in magnitude, so that no square is subnormal
_NONZERO = st.floats(0.001, 2.0)
_TARGETS = st.one_of(st.just(0.0), _NONZERO, _NONZERO.map(lambda v: -v))


@st.composite
def _scored_sets(draw):
    """An SE base (l up to 30 spans, so most pairs drop) or the SDOF base on any sample
    times, n = 1 to 10, with 1-3 target rows and 1-3 values of rho lambda_max each."""
    t = draw(sample_times(1))
    span = max(float(t[-1] - t[0]), 0.005)
    se = SEKernel(1.0, span * 10 ** draw(st.floats(-1.5, 1.5)))
    base = draw(st.sampled_from([se, SDOFKernel(1.0, _PAPER)]))
    sets, scales = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    y = draw(st.lists(st.lists(_TARGETS, min_size=t.size, max_size=t.size),
                      min_size=sets, max_size=sets))
    g = draw(st.lists(st.lists(st.floats(-3.0, 8.0), min_size=scales, max_size=scales),
                      min_size=sets, max_size=sets))
    return base, t, np.array(y), 10.0 ** np.array(g)


# n = 1: the odd block is empty
_ONE_POINT = (SEKernel(1.0, 0.05), np.array([0.1]), np.array([[0.7]]), np.array([[1e3]]))
# l = 30 spans on ten uniform times: 8 of 10 pairs drop
_LONG = (
    SEKernel(1.0, 3.0), 0.01 * np.arange(10),
    np.array([np.sin(np.arange(10.0)), np.ones(10)]), np.array([[1e-2, 1e6], [1.0, 1e8]]),
)


class TestKeptPairsAgainstTheFullSpectrum:
    @settings(max_examples=300, deadline=None)
    @given(_scored_sets())
    @example(_ONE_POINT)
    @example(_LONG)
    def test_scores_refit_and_dropped_count(self, problem):
        base, t, y, glam = problem
        n = t.size
        spectrum = decompose([base], t)[0]
        lam, vectors = _oracle(base, t)
        top = lam[-1]
        level = _SLACK * rounding_level(n, top)
        # every kept pair lies above the spectrum's own cut, and the dropped count
        # matches the oracle's up to the pairs within the eigenvalues' error of the cut
        kept = spectrum.eigenvalues
        assert kept.size + spectrum.dropped == n
        assert kept.min() > rounding_level(n, kept.max())
        cut = rounding_level(n, top)
        assert np.sum(lam <= cut - level) <= spectrum.dropped <= np.sum(lam <= cut + level)
        rho = glam / top
        z = spectrum.project(y)
        edf, mse = signal_scale_scores(spectrum, y, z, rho)
        # the oracle sums over all n pairs, the dropped ones at their own r
        g = rho[:, :, None] * lam
        r = 1.0 / (g + 1.0)
        want_edf = np.sum(g * r, axis=-1)
        want_mse = np.sum(r**2 * ((y @ vectors) ** 2)[:, None, :], axis=-1) / n
        # every pair's lambda is known to `level`, which moves g r and r^2 by at most
        # rho level and 2 rho level; the dropped pairs' r = 1 is off by as much, and
        # both sides round their sums and projections by a few n eps
        carried = rho * (level + cut)
        norms = np.sum(y**2, axis=-1)[:, None]
        assert np.all(np.abs(edf - want_edf) <= n * carried + 4 * n * _EPS * want_edf)
        assert np.all(np.abs(mse - want_mse) <= (2 * carried + 4 * n * _EPS) * norms / n)
        for s in range(len(y)):
            for j, scale in enumerate(rho[s]):
                got = spectral_weights(spectrum, scale, y[s], z[s])
                want = vectors @ (scale * (y[s] @ vectors) / (scale * lam + 1.0))
                assert np.max(np.abs(got - want)) <= scale * (carried[s, j] + 4 * n * _EPS) * (
                    np.sqrt(norms[s, 0])
                )


def _default_se_spectra():
    """The kept pair count of every SE base of the default study's three plans, by n."""
    cfg = default_config(repetitions=1)
    counts = {}
    for plan in cfg.plans:
        data = cfg.training_set(plan, 0)
        grid = cfg.grids.family_grid("se", data, cfg.params)
        counts[data.n] = [s.eigenvalues.size for s in decompose(grid.bases, data.t)]
    return counts


class TestDefaultStudyKeptCounts:
    def test_se_bases_keep_the_tabled_pairs(self):
        # SDOF keeps all its pairs; SE's longest l keeps 8 at every n, its shortest all n
        counts = _default_se_spectra()
        assert {n: sum(kept) for n, kept in counts.items()} == {63: 1001, 126: 1637, 251: 2775}
        assert all(kept[0] == 8 and kept[-1] == n for n, kept in counts.items())

    @pytest.mark.parametrize(
        "plan", default_config(repetitions=1).plans, ids=lambda p: str(p.n_samples)
    )
    def test_sdof_keeps_every_pair(self, plan):
        spectrum = decompose([SDOFKernel(1.0, _PAPER)], plan.sample_times())[0]
        assert (spectrum.eigenvalues.size, spectrum.dropped) == (plan.n_samples, 0)
