import numpy as np

from tempres import kernels


def test_numpy_kernel_known_value():
    counts = np.array([1.0, 0.0])
    weights = np.array([2.0, 1.0])
    model = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = kernels.weighted_scan(counts, weights, model)
    np.testing.assert_allclose(out, [0.0, 3.0])
