"""Hypothesis strategies shared by the threshold-scan agreement tests."""
import numpy as np
from hypothesis import strategies as st


@st.composite
def weighted_deviations(draw):
    """Non-uniform weights summing to one, and deviations rich in ties.

    Deviations are drawn from zero, an eighths grid, the partial sums of the
    weights (so a deviation can equal a tail mass), those values plus 1e-15
    or 5e-16 (on either side of the scans' 1e-15 slack), or anywhere in [0, 2].
    """
    n = draw(st.integers(1, 30))
    w = np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)), dtype=float)
    w /= w.sum()
    ties = sorted({0.0, *(k / 8 for k in range(9)), *np.cumsum(w).tolist(),
                   *(1.0 - np.cumsum(w)).tolist()})
    near = [t + slack for t in ties for slack in (0.0, 5e-16, 1e-15)]
    value = st.one_of(st.sampled_from(near), st.floats(0.0, 2.0))
    dev = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
    return w, dev
