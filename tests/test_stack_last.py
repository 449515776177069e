"""The stack-last cores against their public stack-first forms.

``manifolds._kernel``, ``manifolds._distance``, ``manifolds._det``,
``geometry._gradient`` and ``phases._triangle`` take ``(rows, cols, n)``
arrays, a stack of one on either side broadcasting; ``kernel``,
``projective_distance``, ``gradient`` and ``triangle_phase`` take
``(..., rows, cols)`` points and stacks whose leading axes broadcast.  Each
core must give its public form's values on every family at both
compactnesses, on every layout the public forms accept, and raise for the
same first offending row.
"""

from __future__ import annotations

import numpy as np
import pytest

from kphase import (
    BranchCut,
    Family,
    KernelZero,
    ManifoldSpec,
    cp1,
    gradient,
    kernel,
    projective_distance,
    triangle_phase,
)
from kphase.geometry import _gradient
from kphase.manifolds import _distance, _kernel
from kphase.phases import _triangle

from finite_difference import random_point

SPECS = [
    ManifoldSpec(family, p, q, compact)
    for family, p, q in ((Family.AIII, 1, 1), (Family.AIII, 2, 2),
                         (Family.AIII, 3, 2), (Family.CI, 2, 1),
                         (Family.DIII, 3, 1), (Family.DIII, 4, 1),
                         (Family.BDI, 3, 1))
    for compact in (True, False)
]
IDS = [f"{s.family.value}({s.p},{s.q})-{'c' if s.compact else 'nc'}"
       for s in SPECS]
# Leading shapes of the two arguments: stacks, a single point on either
# side, and two leading axes that broadcast.
LAYOUTS = {
    "stacks": ((7,), (7,)),
    "one-left": ((), (7,)),
    "one-right": ((7,), ()),
    "broadcast": ((3, 1), (1, 4)),
}


def _points(spec, rng, lead):
    """Random valid chart points in the leading shape ``lead``."""
    n = int(np.prod(lead, dtype=int))
    stack = np.array([random_point(spec, rng, 0.7) for _ in range(n)])
    return stack.reshape(lead + spec.point_shape)


def _last(m, lead):
    """Points with leading axes, broadcast to ``lead``, as a stack-last
    ``(rows, cols, n)`` array; one point as a stack of one."""
    if m.ndim == 2:
        return m[..., None]
    m = np.broadcast_to(m, lead + m.shape[-2:])
    return np.ascontiguousarray(m.reshape((-1,) + m.shape[-2:])
                                .transpose(1, 2, 0))


def _pair(spec, rng, layout):
    left, right = LAYOUTS[layout]
    z, w = _points(spec, rng, left), _points(spec, rng, right)
    lead = np.broadcast_shapes(left, right)
    return z, w, lead, _last(z, lead), _last(w, lead)


def _close(got, ref, tol=1e-14):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_kernel_distance_triangle_cores_match_public_forms(spec, layout,
                                                           rng):
    """``_kernel``, ``_distance`` and ``_triangle`` on stack-last arrays
    equal ``kernel``, ``projective_distance`` and ``triangle_phase`` on
    the stack-first ones, and these equal their values pair by pair."""
    z, w, lead, zl, wl = _pair(spec, rng, layout)
    pairs = [(np.broadcast_to(z, lead + z.shape[-2:])[k],
              np.broadcast_to(w, lead + w.shape[-2:])[k])
             for k in np.ndindex(lead)]
    for core, public in ((_kernel, kernel), (_distance, projective_distance),
                         (lambda s, a, b: _triangle(s, 2, a, b),
                          lambda s, a, b: triangle_phase(s, 2, a, b))):
        value = public(spec, z, w)
        _close(core(spec, zl, wl).reshape(lead), value)
        _close(value.reshape(-1), [public(spec, a, b) for a, b in pairs])


@pytest.mark.parametrize("lead", [(7,), (), (3, 4)],
                         ids=["stack", "one", "two-axes"])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_gradient_core_matches_public_form(spec, lead, rng):
    """``_gradient`` on a stack-last array equals ``gradient`` on the
    stack-first one, and that equals its value point by point."""
    z = _points(spec, rng, lead)
    g = gradient(spec, 3, z)
    got = _gradient(spec, 3, _last(z, lead))
    assert got.shape == spec.point_shape + (int(np.prod(lead, dtype=int)),)
    _close(got.transpose(2, 0, 1).reshape(g.shape), g)
    _close(g.reshape((-1,) + spec.point_shape),
           [gradient(spec, 3, a) for a in z.reshape((-1,) + spec.point_shape)])


def _embed(spec, values):
    """CP1 coordinates on the first diagonal entry of a chart point."""
    out = np.zeros((len(values),) + spec.point_shape, complex)
    out[:, 0, 0] = values
    return out


@pytest.mark.parametrize("spec", [cp1(), ManifoldSpec(Family.AIII, 2, 2),
                                  ManifoldSpec(Family.CI, 2)],
                         ids=["CP1", "AIII(2,2)", "CI(2)"])
@pytest.mark.parametrize("zero, cut", [(2, 5), (5, 2)])
def test_triangle_core_names_the_first_offending_row(spec, zero, cut):
    """A stack with a vanishing kernel at row ``zero`` and a kernel ratio
    on the branch cut at row ``cut`` raises ``KernelZero`` or
    ``BranchCut``, whichever row comes first, in the core and in the
    public form alike."""
    z = np.full(8, 0.3 + 0.1j)
    w = np.full(8, -0.2j)
    z[zero], w[zero] = 1.0, -1.0
    z[cut], w[cut] = 2.0, -0.5 + 1e-6j
    z, w = _embed(spec, z), _embed(spec, w)
    first = KernelZero if zero < cut else BranchCut
    with pytest.raises(first):
        _triangle(spec, 1, _last(z, (8,)), _last(w, (8,)))
    with pytest.raises(first):
        triangle_phase(spec, 1, z, w)


@pytest.mark.parametrize("row", [0, 3, 7])
def test_distance_core_raises_overflow_on_any_row(row):
    """A kernel past double precision on one row of a stack raises
    ``OverflowError`` in the distance core and the public forms."""
    spec = ManifoldSpec(Family.AIII, 3, 1)
    z = np.full((8, 3, 1), 0.2 + 0.1j)
    z[row] = [[1e160], [0.0], [-1e160]]
    w = np.full((8, 3, 1), 0.1j)
    with pytest.raises(OverflowError):
        _distance(spec, _last(z, (8,)), _last(w, (8,)))
    with pytest.raises(OverflowError):
        projective_distance(spec, z, w)
    with pytest.raises(OverflowError):
        kernel(spec, z, z)
