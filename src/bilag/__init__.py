"""Symbolic construction and verification of bi-Lagrangian structures.

A bi-Lagrangian structure on a 2n-dimensional coordinate chart is a
symplectic form together with two transversal Lagrangian foliations.  This
package builds such structures exactly (rational arithmetic, opaque
function symbols with formal jets), computes their canonical connection
and its curvature, the para-Kahler companion (G, F), pushforwards along
symplectomorphisms, and lifts of everything to the trivial bundle M x R^2n
— plus a scene-file CLI and SVG leaf plots.

Layers, lowest first:

* ``symexpr``    exact scalar expressions, normal forms, the zero test
* ``calculus``   charts, vector fields, k-forms, the Cartan operations
* ``symplectic`` symplectic validation, Hamiltonian fields, the bundle form
* ``structures`` bi-Lagrangian validation, connection, curvature, pushes
* ``lift``       bundle lifts of structures, maps, and the action check
* ``scene``      scene files, tasks, reports
* ``plot``       numeric SVG leaf drawings
* ``cli``        the ``bilag`` command
"""

from .symexpr import (
    CompositionError,
    CrossCheckError,
    EvalError,
    Expr,
    ExprError,
    JetVar,
    OpaqueSymbol,
    ParseError,
    Rat,
    UnknownIdentifier,
    Var,
    ZeroDenominator,
    ONE,
    ZERO,
    as_expr,
    bind_symbol,
    check_seed,
    diff,
    directional,
    equal_zero,
    eval_float,
    eval_num,
    is_zero,
    normalize,
    parse_expr,
    set_check_seed,
    substitute,
)
from .calculus import (
    CalculusError,
    Chart,
    ChartMismatch,
    DegreeError,
    FrameBasis,
    FrameTable,
    KForm,
    SingularFrame,
    SmoothMap,
    VectorField,
    basis_form,
    coordinate_frame,
    d_coord,
    exterior_d,
    form_from_matrix,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    pullback_form,
    pushforward_field,
    span_membership,
    wedge,
    zero_field,
)
from .symplectic import (
    SymplecticError,
    SymplecticForm,
    hamiltonian_field,
    poisson_bracket,
    tautological_theta,
    trivial_bundle_symplectic,
    validate_symplectic,
)
from .structures import (
    BiLagError,
    BiLagStructure,
    Connection,
    FlatnessResult,
    ParaKahler,
    ValidationReport,
    christoffels,
    connections_equal,
    curvature,
    d_map,
    hess_nabla,
    is_flat,
    levi_civita_oracle,
    para_structure,
    push_connection,
    push_paracomplex,
    push_structure,
    validate_bilagrangian,
)
from .lift import (
    ActionCheckResult,
    LiftError,
    LiftedMap,
    iterate_lift,
    lift_map,
    lift_structure,
    lifted_action_check,
)
from .scene import (
    Scene,
    SceneError,
    SceneReport,
    Task,
    load_scene,
    make_task,
    run_task,
    run_tasks,
)
from .plot import PlotError, Window, leaf_plot

__version__ = "0.1.0"
