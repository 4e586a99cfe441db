"""Lifting bi-Lagrangian structures and symplectomorphisms to M x R^2n.

The bundle chart is the plain `Chart` `base.extend(fiber_names)`: the base
coordinates x_1..x_2n, then fiber coordinates xi_1..xi_2n, with xi_i paired
with x_i.  It carries the symplectic form  omega~ = pi^* omega + d theta  with
the tautological 1-form  theta = sum_i xi_i dx_i.

The lifted foliations are built from the structure's adapted functions
a = (p_1..p_n, q_1..q_n) with Jacobian J = da/dx and K = (J^T)^{-1}:

* fiber frame     Phi_j = sum_i J_ji d/dxi_i,
* base-field lift E~    = E + sum_i C_i d/dxi_i  with
                  C_i   = sum_{l,m} E(J_li) K_lm xi_m,

and the split assigns Phi_{n+1..2n} to the first lifted foliation and
Phi_{1..n} to the second.  Every E~ annihilates all the functions (K xi)_l,
so the lifted structure again carries adapted functions

    (p_1..p_n, (K xi)_{n+1..2n}  |  q_1..q_n, (K xi)_{1..n})

and the construction can be iterated.  When the adapted functions are the
chart coordinates, J = K = id, the corrections vanish and the lift is the
plain coordinate split.  The lifted structure is re-validated from scratch
and returned as the `BiLagStructure` that validation certifies; a declared
adapted ordering that does not straighten the foliations makes the
Lagrangian check fail, and that failure is reported, not patched.  A lifted
map is a `SmoothMap` between bundle charts, returned in a `LiftedMap` with
its fiber block and its verdict on omega~.
"""

from __future__ import annotations

from .calculus import (
    Chart,
    KForm,
    SmoothMap,
    VectorField,
    pullback_form,
    span_membership,
    sym_inverse,
)
from .structures import (
    BiLagStructure,
    CheckResult,
    push_structure,
    validate_bilagrangian,
)
from .symexpr import ZERO, compact, diff, directional, dot, equal_zero
from .symplectic import SymplecticForm, trivial_bundle_symplectic

__all__ = [
    "LiftError",
    "LiftedMap",
    "ActionCheckResult",
    "default_fiber_names",
    "lift_structure",
    "iterate_lift",
    "lift_map",
    "lifted_action_check",
]

DEFAULT_MAX_DIM = 16


class LiftError(Exception):
    pass


def default_fiber_names(taken, count: int):
    """Deterministic fresh fiber names.

    A 2-dimensional extension prefers the classical pair ("s", "t"); any
    other size, or a collision, falls back to xi1, xi2, ... skipping names
    already in use.
    """
    taken = set(taken)
    if count == 2 and "s" not in taken and "t" not in taken:
        return ("s", "t")
    names = []
    k = 1
    while len(names) < count:
        cand = f"xi{k}"
        if cand not in taken:
            names.append(cand)
        k += 1
    return tuple(names)


def _taken(*charts) -> set:
    """The names no fiber coordinate may take: the charts' coordinates and symbols."""
    return {name for c in charts for name in c.names + tuple(sym.name for sym in c.symbols)}


def _bundle_chart(base: Chart, fiber_names) -> Chart:
    """The chart of base x R^dim: base coordinates, then one fiber name each."""
    fiber_names = tuple(fiber_names)
    if len(fiber_names) != base.dim:
        raise ValueError(f"need {base.dim} fiber names, got {len(fiber_names)}")
    return base.extend(fiber_names)


def _lift_base_field(bundle: Chart, e: VectorField, jac, kxi) -> VectorField:
    """E~ = E + sum_i C_i d/dxi_i with C_i = sum_l E(J_li) (K xi)_l."""
    n2 = len(jac)
    comps, names = e._derivation()  # e.apply, taken once for all n2^2 entries
    fiber = [(n2 + i, dot([directional(comps, names, jac[l][i]) for l in range(n2)], kxi))
             for i in range(n2)]
    return VectorField.from_entries(bundle, list(e.entries.items()) + fiber)


def _fiber_frame_field(bundle: Chart, jac, j: int) -> VectorField:
    n2 = len(jac)
    return VectorField.from_entries(bundle, ((n2 + i, jac[j][i]) for i in range(n2)))


def lift_structure(s: BiLagStructure, fiber_names=None) -> BiLagStructure:
    """Lift a structure to the trivial bundle over its chart.

    The result is validated like any other structure and the full report
    travels with it; validation failure raises BiLagError with the report.
    """
    n2 = s.chart.dim
    n = s.n
    if fiber_names is None:
        fiber_names = default_fiber_names(_taken(s.chart), n2)
    bundle = _bundle_chart(s.chart, fiber_names)
    omega_lift = trivial_bundle_symplectic(s.omega, bundle)

    jac = [[compact(diff(a, name)) for name in s.chart.names]
           for a in s.adapted]
    kmat = sym_inverse([list(row) for row in zip(*jac)])
    fiber_coords = bundle.coords()[n2:]
    # the functions (K xi)_l = sum_m K_lm xi_m
    kxi = [dot(row, fiber_coords) for row in kmat]

    f1 = [_lift_base_field(bundle, e, jac, kxi) for e in s.f1]
    f1 += [_fiber_frame_field(bundle, jac, j) for j in range(n, n2)]
    f2 = [_lift_base_field(bundle, e, jac, kxi) for e in s.f2]
    f2 += [_fiber_frame_field(bundle, jac, j) for j in range(n)]

    adapted = (
        tuple(s.adapted[:n]) + tuple(kxi[n:])
        + tuple(s.adapted[n:]) + tuple(kxi[:n])
    )
    return validate_bilagrangian(omega_lift, f1, f2, adapted)


def iterate_lift(s: BiLagStructure, k: int, max_dim: int = DEFAULT_MAX_DIM) -> BiLagStructure:
    """Apply lift_structure k times; k = 0 returns the structure unchanged.

    Raises LiftError before any step that would exceed max_dim chart
    dimensions (each step doubles the dimension).
    """
    if k < 0:
        raise ValueError("lift count must be non-negative")
    current = s
    for step in range(k):
        current = _lift_step(current, step, k, max_dim)
    return current


def _lift_step(s: BiLagStructure, step: int, k: int, max_dim: int, fiber_names=None):
    """lift_structure(s, fiber_names) as lift step + 1 of k; LiftError past max_dim."""
    if 2 * s.chart.dim > max_dim:
        raise LiftError(f"lift {step + 1} of {k} needs a {2 * s.chart.dim}-dimensional chart, "
                        f"above the cap of {max_dim}; raise max_dim to proceed")
    return lift_structure(s, fiber_names)


class LiftedMap:
    """A diffeomorphism lifted to the bundle charts.

    The fiber of the lift acts by the transposed inverse Jacobian: over a
    source point x, fiber output j is  xi'_j = sum_i xi_i (d inv_i / dy_j
    composed with the base map).  `fiber_block` records d xi'_j / d xi_i as
    functions on the source base chart; `preserves_form` reports whether
    the lift preserves omega~ (None when no base form was supplied or the
    two charts use different coordinate names, which leaves no common form
    to compare against).
    """

    __slots__ = ("map", "fiber_block", "preserves_form")

    def __init__(self, map: SmoothMap, fiber_block, preserves_form):
        self.map = map
        self.fiber_block = fiber_block
        self.preserves_form = preserves_form

    def __repr__(self):
        return f"LiftedMap({self.map.source.names} -> {self.map.target.names})"


def _fiber_components(psi: SmoothMap, fiber_coords):
    """xi'_j = sum_i xi_i (d inv_i/dy_j . psi) plus the block d xi'/d xi."""
    inv_jac = psi.inverse().jacobian()
    block = tuple(tuple(compact(psi.pull_scalar(row[j])) for row in inv_jac)
                  for j in range(psi.target.dim))
    return tuple(dot(fiber_coords, row) for row in block), block


def _forms_agree(a: KForm, b: KForm) -> bool:
    keys = set(a.coeffs) | set(b.coeffs)
    return all(
        equal_zero(a.coeffs.get(k, ZERO) - b.coeffs.get(k, ZERO)) for k in keys
    )


def lift_map(psi: SmoothMap, omega: SymplecticForm = None, fiber_names=None) -> LiftedMap:
    """Lift a base diffeomorphism to the bundle charts.

    The inverse of the lift is the lift of the inverse.  The lift is
    certified without validating it afresh on the bundle charts: its base
    round trips are psi's own, which psi's validation proves (only when psi
    is not certified already), and then only the fiber round trips are
    proved, which checks the fiber components.  The determinant needs no
    proof once both round trips hold.  When `omega` (the
    SymplecticForm on the source chart) is supplied and the two base
    charts share coordinate names, the lift is checked against
    omega~ = pi^* omega + d theta and the verdict stored in
    `preserves_form`; the lift itself is built for any diffeomorphism.
    """
    if fiber_names is None:
        fiber_names = default_fiber_names(_taken(psi.source, psi.target), psi.source.dim)
    source = _bundle_chart(psi.source, fiber_names)
    target = _bundle_chart(psi.target, fiber_names)
    fiber_coords = source.coords()[psi.source.dim:]

    fwd_fiber, block = _fiber_components(psi, fiber_coords)
    rev_fiber, _ = _fiber_components(psi.inverse(), fiber_coords)
    lifted = SmoothMap(
        source,
        target,
        psi.components + fwd_fiber,
        psi.inverse_components + rev_fiber,
        _validate=False,
    )
    if not psi._certified:
        psi._validate()
    lifted._prove_round_trips(psi.source.dim)
    lifted._certify()

    preserves = None
    if omega is not None and psi.source.names == psi.target.names:
        tilde = trivial_bundle_symplectic(omega, source)
        pulled = pullback_form(lifted, tilde.form)
        preserves = _forms_agree(pulled, tilde.form)
    return LiftedMap(lifted, block, preserves)


class ActionCheckResult:
    """Comparison of push-then-lift against lift-then-push.

    `hat` is the lift of the pushed structure, `tilde` the push of the
    lifted structure along the lifted map; `verdicts` holds one span
    membership per frame generator in both directions, each a
    `CheckResult` whose detail is never empty, and `equal` says
    whether the two lifted foliation pairs span the same distributions.
    """

    __slots__ = ("hat", "tilde", "lifted_map", "omega_match", "verdicts", "equal")

    def __init__(self, hat, tilde, lifted_map, omega_match, verdicts):
        self.hat = hat
        self.tilde = tilde
        self.lifted_map = lifted_map
        self.omega_match = omega_match
        self.verdicts = tuple(verdicts)
        self.equal = omega_match and all(v.passed for v in self.verdicts)

    def __bool__(self):
        return self.equal

    def __repr__(self):
        lines = [f"omega agreement: {self.omega_match}"]
        lines += [repr(v) for v in self.verdicts]
        lines.append(f"actions agree: {self.equal}")
        return "\n".join(lines)


def _membership_pass(label_a: str, fields_a, label_b: str, fields_b, chart, out):
    for idx, (ok, cert) in enumerate(span_membership(fields_a, fields_b)):
        if ok:
            detail = "coefficients (" + ", ".join(str(c) for c in cert) + ")"
        else:
            detail = f"unmatched component {chart.names[cert]}"
        out.append(CheckResult(
            f"{label_a} generator {idx + 1} in span {label_b}", ok, detail,
        ))


def lifted_action_check(psi: SmoothMap, s: BiLagStructure) -> ActionCheckResult:
    """Does pushing then lifting agree with lifting then pushing?

    Builds both structures on the same bundle chart and certifies that
    every generator of each lifted foliation frame lies in the span of its
    counterpart (both directions, one elimination each), alongside
    agreement of the two lifted symplectic forms.  All three lifts take the
    default fiber names, which skip every name of both charts.
    """
    fiber_names = default_fiber_names(_taken(psi.source, psi.target), psi.source.dim)
    hat = lift_structure(push_structure(psi, s), fiber_names)
    lm = lift_map(psi, s.omega, fiber_names)
    tilde = push_structure(lm.map, lift_structure(s, fiber_names))

    omega_match = _forms_agree(hat.omega.form, tilde.omega.form)
    verdicts = []
    for leaf, hat_fol, tilde_fol in (("F1", hat.f1, tilde.f1), ("F2", hat.f2, tilde.f2)):
        pushed = (f"pushed-then-lifted {leaf}", hat_fol)
        lifted = (f"lifted-then-pushed {leaf}", tilde_fol)
        for a, b in ((pushed, lifted), (lifted, pushed)):
            _membership_pass(*a, *b, hat.chart, verdicts)
    return ActionCheckResult(hat, tilde, lm, omega_match, verdicts)
