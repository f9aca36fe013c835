"""Reference nodes that the tests rebuild bounds and the score net from.

`noise_logpdf` is the density of a reparameterised draw scored from its
noise as a node of its own. The package folds that density into the
momentum kernel's log-ratio node (`MomentumKernel.log_ratio`); chains
built from this node and `Tape.gaussian_logpdf` give the same bound values
bit for bit, and so check the fused node against the two densities it
stands for.

`linear` and `tanh` are the score network's layers as nodes of their own,
and `score_chain` is the network built from them, one node per operation.
The package records the network as one node (`ScoreNet.apply`), whose
value and gradients must equal this chain's bit for bit.
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


def linear(t, x, weight, bias):
    """x @ W.T + b as one node, with the adjoints of x, W and b."""
    value = x.value @ weight.value.T + bias.value

    def vjp(adj):
        a2 = adj.reshape(-1, adj.shape[-1])
        x2 = x.value.reshape(-1, x.value.shape[-1])
        return adj @ weight.value, a2.T @ x2, adj

    return t.push(value, (x, weight, bias), vjp)


def tanh(t, a):
    value = np.tanh(a.value)
    return t.push(value, (a,), lambda adj: (adj * (1.0 - value * value),))


def score_chain(net, t, lifted, k, num_steps, z, rho):
    """`ScoreNet.apply` as ten nodes: concat, four linear, three tanh and
    two add."""
    frac = np.broadcast_to(k / num_steps, z.shape[:-1] + (1,))
    x = t.concat([frac, z] if net.position_only else [frac, z, rho])
    h = tanh(t, linear(t, x, lifted["score.W0"], lifted["score.b0"]))
    for i in (1, 2):
        h = t.add(h, tanh(t, linear(t, h, lifted[f"score.W{i}"],
                                    lifted[f"score.b{i}"])))
    return linear(t, h, lifted["score.W3"], lifted["score.b3"])
