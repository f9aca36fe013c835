"""Reference nodes that the tests rebuild bounds from.

`noise_logpdf` is the density of a reparameterised draw scored from its
noise as a node of its own. The package folds that density into the
momentum kernel's log-ratio node (`MomentumKernel.log_ratio`); chains
built from this node and `Tape.gaussian_logpdf` give the same bound values
bit for bit, and so check the fused node against the two densities it
stands for.
"""

import numpy as np

from ldvi.tape import Var


def noise_logpdf(t, eps, var):
    """log N(mean + sqrt(var) eps; mean, var I) at the draw, as one node:
    -(0.5 D log(2 pi var) + sum_d eps_d^2 / 2), with the floats of the
    log-ratio node's forward density. `var` is a python float or a scalar
    Var, and gets the adjoint -0.5 D / var times the summed adjoint."""
    var = var if isinstance(var, Var) else t.lift(var)
    vv, d = float(var.value), eps.shape[-1]
    log_norm = 0.5 * d * float(np.log((2.0 * np.pi) * vv))
    value = -(log_norm + (eps * eps).sum(axis=-1) / 2.0)

    def vjp(adj):
        return (-np.add.reduce(adj, axis=None) * (0.5 * d / vv),)

    return t.push(value, (var,), vjp)
