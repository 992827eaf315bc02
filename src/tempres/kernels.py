"""Weighted least-squares scan kernel: the inner loop of the GLS estimator."""

import numpy as np


def weighted_scan(counts, weights, model):
    """Objective sum_k w_k (c_k - m_k(tau_j))^2 for every scan point j.

    counts:  (K,) normalized counts
    weights: (K,) inverse variances
    model:   (J, K) calibrated mean response at each scan point
    returns: (J,) objective values
    """
    counts = np.asarray(counts, dtype=float)
    weights = np.asarray(weights, dtype=float)
    model = np.asarray(model, dtype=float)
    resid = counts[None, :] - model
    return np.einsum("jk,k->j", resid * resid, weights)
