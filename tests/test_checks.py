import numpy as np
from oracles import slerp_by_points

from berrygate import checks


def test_slerp_is_the_pointwise_arc():
    # The arithmetic is the oracle's; only np.sin stands for math.sin, which
    # may differ from it in the last place on some hosts.
    rng = np.random.default_rng(20260809)
    for _ in range(200):
        a, b = rng.normal(size=(2, 3))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        np.testing.assert_allclose(
            checks._slerp(a, b, 800), slerp_by_points(a, b, 800),
            rtol=0.0, atol=8 * np.finfo(float).eps,
        )
