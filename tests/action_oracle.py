"""The relabeling action one key at a time, a test-side oracle built on ``key_from_theta``.

The package moves whole key arrays at once (``classify._moved_rows``,
then a batched or closed-form rref and a binary search for each image's
row).  The tests check that array action, its fixed-point masks and its
orbits against this per-key pure-Python action.
"""

from zpaction.enumeration import SubgroupKey, key_from_theta
from zpaction.hgroup import Permutation


def act(sigma: Permutation, key: SubgroupKey) -> SubgroupKey:
    """The key of Phi_sigma(K); always admissible again.

    Phi_sigma(a_j) = a_{sigma(j)} only permutes the n+1 generator images:
    the new quotient sends a_j to theta(a_{sigma^-1(j)}).
    """
    n = key.params.n
    if sigma.degree != n + 1:
        raise ValueError(f"permutation degree {sigma.degree} != n+1 = {n + 1}")
    inverse = sigma.inverse()
    return key_from_theta(key.params, zip(*(key.images[inverse(j) - 1] for j in range(1, n + 1))))
