"""Exact per-slot action of V, V^*, U and U^*: the reference for the letters.

A vector of K is ``(tail, head, future)``: ``tail[i]`` is Y-slot -(i+1) and
``future[i]`` is U-slot i+1, both plain lists of arrays.  The maps follow
the definitions slot by slot and never build a window matrix, so they are
independent of ``isodil.dense_coefficient``, the window builder of both.
"""

import numpy as np

from pencildil import evaluate


def _window(tail, head, depth, dim_y):
    """Slots -depth..-1 then the head, deepest first."""
    slots = [tail[i] if i < len(tail) else np.zeros(dim_y, dtype=complex)
             for i in range(depth - 1, -1, -1)]
    return np.concatenate(slots + [np.asarray(head, dtype=complex)])


def _split(w, depth, dim_y):
    """Inverse of ``_window``: (slots -1..-depth, head)."""
    return ([w[(depth - 1 - i) * dim_y:(depth - i) * dim_y] for i in range(depth)],
            w[depth * dim_y:])


def v_act(v, lam, tail, head):
    """Core value on the window W, identity shift of every deeper slot."""
    d = v.core_depth
    out, head = _split(evaluate(v.core, lam) @ _window(tail, head, d, v.dim_y),
                       d + 1, v.dim_y)
    return out + list(tail[d:]), head


def v_adjoint(v, lam, tail, head):
    d = v.core_depth
    core_adj = v.core.a0.conj().T + np.conj(lam) * v.core.a1.conj().T
    out, head = _split(core_adj @ _window(tail, head, d + 1, v.dim_y), d, v.dim_y)
    return out + list(tail[d + 1:]), head


def u_act(u, lam, x):
    """(k, u1, u2, ...) -> (V(lam) k + Q(lam) u1, u2, ...)."""
    tail, head, future = x
    tail, head = v_act(u.v, lam, tail, head)
    if future:
        d = u.core_depth
        w = _window(tail, head, d + 1, u.dim_y) + u.q(lam) @ future[0]
        out, head = _split(w, d + 1, u.dim_y)
        tail = out + tail[d + 1:]
    return tail, head, list(future[1:])


def u_adjoint(u, lam, x):
    """(k, u1, ...) -> (V(lam)^* k, Q(lam)^* P_W' k, u1, ...)."""
    tail, head, future = x
    first = u.q(lam).conj().T @ _window(tail, head, u.core_depth + 1, u.dim_y)
    tail, head = v_adjoint(u.v, lam, tail, head)
    return tail, head, [first] + list(future)


def column(x, dim_y, tail_depth, dim_u=0, future_depth=0):
    """Window column [slot -t | ... | slot -1 | head | future 1 | ... | future f]."""
    tail, head, future = x
    assert all(not np.any(s) for s in tail[tail_depth:]), "tail leaves the window"
    assert all(not np.any(s) for s in future[future_depth:]), "future leaves the window"
    fut = [future[i] if i < len(future) else np.zeros(dim_u, dtype=complex)
           for i in range(future_depth)]
    return np.concatenate([_window(tail, head, tail_depth, dim_y)] + fut)


def random_vector(rng, dim_y, dim_h, dim_u=0, tail=3, future=0):
    """Complex standard normal vector supported on slots -tail..-1, the head
    and future slots 1..future."""
    def normal(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ([normal(dim_y) for _ in range(tail)], normal(dim_h),
            [normal(dim_u) for _ in range(future)])


def norm(x):
    tail, head, future = x
    return float(np.sqrt(sum(np.vdot(s, s).real for s in [*tail, head, *future])))
