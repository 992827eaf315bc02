import numpy as np

from tempres import kernels


def test_numpy_kernel_known_value():
    # two linear components, m_0 = 1 - tau and m_1 = tau, scanned at tau = 0, 1:
    # the objective is 2 tau^2 + tau^2
    counts = np.array([1.0, 0.0])
    weights = np.array([2.0, 1.0])
    terms = np.array([[1.0, -2.0, 1.0],     # m_0^2
                      [0.0, 0.0, 1.0],      # m_1^2
                      [-2.0, 2.0, 0.0],     # -2 m_0
                      [0.0, -2.0, 0.0]])    # -2 m_1
    powers = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    out = kernels.weighted_scan(counts, weights, terms, powers)
    np.testing.assert_allclose(out, [0.0, 3.0])
