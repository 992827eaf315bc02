"""Weighted least-squares scan kernel: the inner loop of the GLS estimator."""

import numpy as np


def weighted_scan(counts, weights, terms, powers):
    """Objective sum_k w_k (c_k - m_k(tau_j))^2 for every scan point j.

    Each calibrated mean m_k is a quartic in tau, so the objective is a
    degree-8 polynomial: sum_k w_k m_k^2 - 2 sum_k w_k c_k m_k + sum_k w_k c_k^2.
    Its 9 coefficients take one (16,) @ (16, 9) product, and its values on
    the scan grid one (9,) @ (9, J) product.

    counts:  (K,) counts, in the units of the calibrated means
    weights: (K,) inverse variances
    terms:   (2K, 9) ascending coefficients: rows 0..K-1 are each m_k^2,
             rows K..2K-1 are -2 m_k, zero-padded
    powers:  (9, J) tau_j^0 .. tau_j^8 at each scan point
    returns: (J,) objective values
    """
    weighted = weights * counts
    coeffs = np.concatenate([weights, weighted]) @ terms
    coeffs[0] += weighted @ counts
    return coeffs @ powers
