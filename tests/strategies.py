"""Hypothesis strategies shared by the property tests."""
import numpy as np
from hypothesis import strategies as st


@st.composite
def sample_times(draw, min_irregular: int):
    """Increasing sample times: 1-10 on a uniform grid or `min_irregular`-10 at irregular gaps.

    A uniform grid t0 + gap * arange(n), like every sampling plan's, is
    one that smoother.decompose folds into two half-size eigenproblems
    built from its lag column; irregular times take the full
    eigendecomposition from three points on.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        return draw(st.floats(0.0, 0.3)) + draw(st.floats(0.005, 0.05)) * np.arange(n)
    n = draw(st.integers(min_irregular, 10))
    gaps = draw(st.lists(st.floats(0.005, 0.05), min_size=n - 1, max_size=n - 1))
    return np.concatenate([[0.0], np.cumsum(gaps)])
