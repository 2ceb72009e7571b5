"""Central finite-difference gradient oracle.

Kept independent of the analytic backward pass it checks: gradients are
estimated by perturbing raw parameter arrays and re-running the forward
build, never by reusing graph machinery.
"""

import numpy as np

from fuzzformer import autodiff as ad


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst elementwise relative error, floored to stay meaningful near 0."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(diff / scale))


def fd_gradient(scalar_fn, array, h=1e-5, coords=None):
    """Central-difference gradient of ``scalar_fn()`` w.r.t. ``array``.

    ``scalar_fn`` must read ``array`` afresh on every call (the graph is
    rebuilt); ``coords`` restricts the estimate to a flat-index subset.
    """
    flat = array.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    grad = np.zeros(array.size)
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        fp = scalar_fn()
        flat[i] = orig - h
        fm = scalar_fn()
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(array.shape), list(coords)


def check_gradients(builder, params, h=1e-5, tol=1e-4, max_coords=None, rng=None):
    """Assert analytic gradients of ``builder()`` match finite differences.

    builder: callable returning a scalar Tensor built from ``params``.
    Returns the worst relative error observed (for reporting).
    """
    for p in params:
        p.grad = None
    root = builder()
    ad.backward(root)
    # a parameter that backward never reached has a zero gradient
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        size = p.data.size
        if max_coords is not None and size > max_coords:
            coords = sorted(rng.choice(size, size=max_coords, replace=False).tolist())
        else:
            coords = list(range(size))
        numeric, coords = fd_gradient(lambda: builder().item(), p.data, h=h, coords=coords)
        a_sel = ana.reshape(-1)[coords]
        n_sel = numeric.reshape(-1)[coords]
        err = max_rel_err(a_sel, n_sel)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch (rel err {err:.3e} >= {tol}) for param shape {p.data.shape}"
    return worst
