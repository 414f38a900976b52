import numpy as np
import pytest


@pytest.fixture
def fold_matrix():
    """Builds the m x (m+n-1) matrix adding the first n-1 linear outputs to the last n-1.

    out[t] = in[n-1+t] for t = 0..m-1, plus in[t-(m-n+1)] for t > m-n.
    Its largest singular value is sqrt(2) for n >= 2 and 1 for n == 1.
    """

    def build(m, n):
        a = np.eye(m, m + n - 1, k=n - 1)
        a[m - n + 1 :, : n - 1] += np.eye(n - 1)
        return a

    return build
