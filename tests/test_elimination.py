"""The elimination kernel on normal forms against a reference copy of the
tree route it replaces.

The reference eliminates on expression trees: it scales each pivot row to a
unit pivot and writes compact(entry - factor * p) back into the rows.  Both
scan the rows in original order, square matrices included.  The kernel must
pick the same pivots, and every tree a caller returns or reads
(determinants, inverses, solutions, certificates, the residuals that span
tests zero-test) must print the same and be a `Rat` exactly when the
reference's is, with the same zero-test draws.  A determinant prints as the
canonical tree of its value, so permuting a matrix's rows changes its text
only as negation does.
"""

import functools
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bilag import calculus, symexpr
from bilag.calculus import (
    Chart,
    FrameBasis,
    SingularFrame,
    VectorField,
    component_matrix,
    frame_rank_full,
    span_membership,
    sym_det,
    sym_inverse,
    sym_solve,
)
from bilag.lift import lifted_action_check
from bilag.structures import push_structure
from bilag.symexpr import ONE, ZERO, Expr, Rat, compact, equal_zero, is_zero
from test_structures import STRUCTURES, lifted

# ---------------------------------------------------------------------------
# reference: the tree route, unit pivots written back into the rows


def ref_eliminate(rows, ncols):
    width = len(rows[0]) if rows else 0
    unused = list(range(len(rows)))
    pivots = []
    for col in range(ncols):
        found = None
        for q, i in enumerate(unused):
            entry = rows[i][col]
            if is_zero(entry):
                continue
            if entry.is_rational_const():
                found = q
                break
            if found is None:
                found = q
        if found is None:
            continue
        pivot_row = unused.pop(found)
        prow = rows[pivot_row]
        raw = prow[col]
        inv_pivot = ONE / raw
        prow[col:] = [compact(e * inv_pivot) for e in prow[col:]]
        pivots.append((col, pivot_row, raw))
        tail = [(c, prow[c], is_zero(prow[c])) for c in range(col, width)]
        for i in unused:
            row = rows[i]
            factor = row[col]
            if is_zero(factor):
                continue
            for c, p, p_zero in tail:
                row[c] = compact(row[c] if p_zero else row[c] - factor * p)
    return pivots, unused


def ref_back_substitute(rows, pivots, ncols):
    naug = len(rows[0]) - ncols if rows else 0
    solution = [[ZERO] * naug for _ in range(ncols)]
    for p in range(len(pivots) - 1, -1, -1):
        col, i, _ = pivots[p]
        row = rows[i]
        later = [c for c, _, _ in pivots[p + 1:] if not is_zero(row[c])]
        for k in range(naug):
            terms = [row[c] * solution[c][k] for c in later if not is_zero(solution[c][k])]
            total = row[ncols + k]
            for term in terms:
                total = total - term
            solution[col][k] = compact(total) if terms else total
    return solution


def ref_sym_det(matrix):
    rows = [list(r) for r in matrix]
    n = len(rows)
    pivots, _ = ref_eliminate(rows, n)
    if len(pivots) < n:
        return ZERO
    det = ONE
    for _, _, raw in pivots:
        det = det * raw
    if calculus._perm_sign_to_sorted([i for _, i, _ in pivots]) == -1:
        det = -det
    return compact(det)


def ref_solve_square(rows, n):
    pivots, _ = ref_eliminate(rows, n)
    if len(pivots) < n:
        raise SingularFrame("matrix determinant is identically zero")
    return ref_back_substitute(rows, pivots, n)


def ref_sym_solve(matrix, rhs):
    rows = [list(r) + [rhs[i]] for i, r in enumerate(matrix)]
    return tuple(x[0] for x in ref_solve_square(rows, len(matrix)))


def ref_sym_inverse(matrix):
    n = len(matrix)
    rows = [list(r) + [ONE if j == i else ZERO for j in range(n)]
            for i, r in enumerate(matrix)]
    return tuple(tuple(x) for x in ref_solve_square(rows, n))


def ref_span_membership(xs, fields):
    xs, fields = tuple(xs), tuple(fields)
    if not xs:
        return ()
    r = len(fields)
    rows = component_matrix(fields + xs)
    pivots, unused = ref_eliminate(rows, r)
    witnesses = [next((i for i in unused if not equal_zero(rows[i][r + k])), None)
                 for k in range(len(xs))]
    solution = ref_back_substitute(rows, pivots, r)
    return tuple(
        (True, tuple(c[k] for c in solution)) if w is None else (False, w)
        for k, w in enumerate(witnesses)
    )


def ref_frame_rank_full(fields):
    fields = tuple(fields)
    if not fields:
        return True
    r = len(fields)
    if r > fields[0].chart.dim:
        return False
    pivots, _ = ref_eliminate(component_matrix(fields), r)
    return len(pivots) == r


# ---------------------------------------------------------------------------
# comparison


def text(value):
    """Each tree as (str, is a Rat), through tuples, lists and verdicts."""
    if isinstance(value, Expr):
        return str(value), isinstance(value, Rat)
    if isinstance(value, (tuple, list)):
        return tuple(text(v) for v in value)
    return value


def outcome(run):
    """run()'s result as text, or its SingularFrame, and the RNG state after."""
    symexpr.set_check_seed(5)
    try:
        result = text(run())
    except SingularFrame as exc:
        result = ("SingularFrame", str(exc))
    return result, symexpr._check_rng.getstate()


def same(run, ref_run):
    got, want = outcome(run), outcome(ref_run)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return got[0]


def same_kernel(matrix, ncols):
    """The kernel's pivots, unused rows and the trees of the unused rows
    (the residuals span tests read) against the reference's."""
    rows = [list(r) for r in matrix]
    ref_rows = [list(r) for r in matrix]
    pivots, unused = calculus._eliminate(rows, ncols)
    ref_pivots, ref_unused = ref_eliminate(ref_rows, ncols)
    assert [(c, i) for c, i, _ in pivots] == [(c, i) for c, i, _ in ref_pivots]
    assert unused == ref_unused
    for (_, _, pivot), (_, _, raw) in zip(pivots, ref_pivots):
        assert pivot == raw.normal()
    for i in unused:
        assert text([calculus._entry_tree(e) for e in rows[i]]) == text(ref_rows[i])


def same_square(matrix, rhs):
    """The square routines against the reference, and the determinant of the
    reversed rows: an odd reversal negates the text, an even one keeps it."""
    n = len(matrix)
    same_kernel(matrix, n)
    same(lambda: sym_det(matrix), lambda: ref_sym_det(matrix))
    det = sym_det(matrix)
    assert str(sym_det(matrix[::-1])) == str(compact(-det) if n * (n - 1) // 2 % 2 else det)
    same(lambda: sym_inverse(matrix), lambda: ref_sym_inverse(matrix))
    same(lambda: sym_solve(matrix, rhs), lambda: ref_sym_solve(matrix, rhs))


def same_span(xs, fields):
    same_kernel(component_matrix(tuple(fields) + tuple(xs)), len(fields))
    verdicts = same(lambda: span_membership(xs, fields),
                    lambda: ref_span_membership(xs, fields))
    same(lambda: frame_rank_full(fields), lambda: ref_frame_rank_full(fields))
    return verdicts


# ---------------------------------------------------------------------------
# inputs


CASES = [(name, dim) for name in sorted(STRUCTURES) for dim in (2, 4, 8)
         if dim >= STRUCTURES[name]().chart.dim]


@functools.lru_cache(maxsize=None)
def build(name, dim):
    return lifted(STRUCTURES[name](), dim)


@pytest.mark.parametrize("name, dim", CASES)
def test_structure_frames(name, dim):
    s = build(name, dim)
    matrix = component_matrix(s.frame)
    rhs = [c * c + ONE for c in reversed(s.chart.coords())]
    same_square(matrix, rhs)
    probe = VectorField(s.chart, rhs)
    for fields in (s.f1, s.f2, s.frame):
        same_span(s.frame + (probe,), fields)


def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def transport_frames():
    """The frames of the transport workload's pushes at seed 1: each pushed
    structure, and the two lifts that its action check compares."""
    wl = _workloads()
    out = []
    for kind, spec in wl.transport_specs(1):
        s = wl.plane_structure(kind)
        psi = wl.build_map(s.chart, spec)
        action = lifted_action_check(psi, s)
        out.append((push_structure(psi, s), action.hat, action.tilde))
    return out


@pytest.mark.parametrize("index", range(10))
def test_transport_frames(index):
    pushed, hat, tilde = transport_frames()[index]
    for s in (pushed, hat, tilde):
        same_square(component_matrix(s.frame), list(reversed(s.chart.coords())))
    for a, b in ((hat.f1, tilde.f1), (tilde.f1, hat.f1), (hat.f2, tilde.f2), (tilde.f2, hat.f2)):
        assert all(ok for ok, _ in same_span(a, b))
    verdicts = same_span(hat.frame, hat.f1)
    assert [ok for ok, _ in verdicts] == [True] * hat.n + [False] * hat.n


# literal zeros, rational constants, a constant that is not a Rat tree and
# a zero that is not the literal zero
RANDOM_CH = Chart(("x", "y", "z"))
X, Y, Z = RANDOM_CH.coords()
NOT_A_RAT = (X + 1) - X
NOT_LITERAL_ZERO = Y - Y


def random_entry(rng):
    kind = rng.random()
    if kind < 0.45:
        return ZERO
    if kind < 0.65:
        return Rat(rng.choice((1, -1, 2, -3, Fraction(1, 2))))
    if kind < 0.72:
        return NOT_A_RAT * rng.choice((1, 2))
    if kind < 0.8:
        return NOT_LITERAL_ZERO
    return rng.choice((1, -1, 2)) * rng.choice((X, Y, Z)) + rng.randint(-2, 2)


@pytest.mark.parametrize("seed", range(40))
def test_random_sparse_matrices(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    matrix = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
    same_square(matrix, [random_entry(rng) for _ in range(n)])

    r = rng.randint(1, n)
    fields = [VectorField(RANDOM_CH, [random_entry(rng) for _ in range(3)]) for _ in range(r)]
    xs = [VectorField(RANDOM_CH, [random_entry(rng) for _ in range(3)])
          for _ in range(rng.randint(1, 4))]
    same_span(xs, fields)


def test_dense_matrix_with_nonlinear_entries():
    # no rational constant in column 0 below the 0, so the kernel pivots on
    # a polynomial and its intermediate rational functions grow
    matrix = [[ZERO, X - 2, X * Y, Y + 1],
              [2 * X - 2, 1 - X * Y, -X, X * Y],
              [X * Y, X, ONE, Rat(-1)],
              [Y, Rat(2), X * Y + 1, 2 * X]]
    same_square(matrix, [ONE, X, Y, X * Y])


def test_a_constant_that_is_not_a_rat_tree_is_not_a_rational_pivot():
    # column 0 holds (x + 1) - x above a 2: the 2 is the first rational
    # constant, so row 1 pivots, while the form of row 0's entry is constant
    matrix = [[NOT_A_RAT, X], [Rat(2), Y]]
    pivots, _ = calculus._eliminate([list(r) for r in matrix], 2)
    assert [(c, i) for c, i, _ in pivots] == [(0, 1), (1, 0)]
    same_square(matrix, [ONE, X])
    assert str(sym_det(matrix)) == "(-2)*x + y"


def test_an_untouched_residual_is_zero_tested_as_given():
    # the field is zero on rows 1 and 2, which are never eliminated: their
    # residuals are the vector's own components, and y - y draws points
    # where its canonical tree, the literal 0, would draw none
    field = VectorField(RANDOM_CH, (ONE, ZERO, ZERO))
    x = VectorField(RANDOM_CH, (X, NOT_LITERAL_ZERO, NOT_A_RAT))
    verdicts = same_span([x], [field])
    assert verdicts == ((False, 2),)
    symexpr.set_check_seed(5)
    state = symexpr._check_rng.getstate()
    span_membership([x], [field])
    assert symexpr._check_rng.getstate() != state


# ---------------------------------------------------------------------------
# the block-triangular determinant


def permuted(matrix, row_order, col_order):
    """The matrix whose row i is matrix's row row_order[i], and so on for
    the columns."""
    return [[matrix[r][c] for c in col_order] for r in row_order]


def block_entry(rng):
    """An entry of a diagonal block: mostly nonzero, so that most blocks
    stay whole and nonsingular, and a constant or linear in x alone, so
    that both routes invert a block-triangular matrix of size 8 in under
    a second."""
    kind = rng.random()
    if kind < 0.12:
        return ZERO
    if kind < 0.2:
        return NOT_LITERAL_ZERO
    if kind < 0.3:
        return NOT_A_RAT
    if kind < 0.85:
        return Rat(rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))))
    return X - rng.randint(1, 3)


def random_block_triangular(rng, n):
    """A block lower-triangular matrix with diagonal blocks of sizes 1 to 5,
    entries from `random_entry` below them and zeros above."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 5), n - sum(sizes)))
    block_of = [k for k, size in enumerate(sizes) for _ in range(size)]
    return [[ZERO if block_of[c] > block_of[r]
             else block_entry(rng) if block_of[c] == block_of[r] else random_entry(rng)
             for c in range(n)]
            for r in range(n)]


@pytest.mark.parametrize("seed", range(30))
def test_permuted_block_triangular_matrices(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    matrix = permuted(random_block_triangular(rng, n), rows, cols)
    same_square(matrix, [random_entry(rng) for _ in range(n)])


@pytest.mark.parametrize("seed", range(10))
def test_two_rows_sharing_their_only_column_give_zero(seed, monkeypatch):
    # rows 0 and 2 are nonzero in column 1 alone, so no row -> column
    # matching covers both, whatever the other entries: the pattern alone
    # decides, and no block determinant is taken
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    matrix = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
    for r in (0, 2):
        matrix[r] = [X + 1 if c == 1 else rng.choice((ZERO, NOT_LITERAL_ZERO))
                     for c in range(n)]
    same_square(matrix, [ONE] * n)
    with monkeypatch.context() as m:
        m.setattr(calculus, "_block_det", None)
        assert sym_det(matrix) is ZERO


@pytest.mark.parametrize("seed", range(20))
def test_permuting_rows_and_columns_multiplies_by_their_signs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    matrix = random_block_triangular(rng, n)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    det = sym_det(matrix)
    sign = calculus._perm_sign_to_sorted(rows) * calculus._perm_sign_to_sorted(cols)
    expected = det if sign == 1 else compact(-det)
    assert str(sym_det(permuted(matrix, rows, cols))) == str(expected)


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("corner", (False, True))
def test_a_long_chain_of_blocks_needs_no_recursion(corner):
    # upper bidiagonal: 400 blocks of one column, chained through the
    # superdiagonal, so the component search walks 400 deep; with the last
    # row moved to column 0, that row's augmenting path runs through every
    # other row
    n = 400
    diagonal = [Fraction(k + 2, k + 1) for k in range(n)]
    upper = [Fraction(-1, k + 3) for k in range(n - 1)]
    matrix = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        matrix[k][k] = Rat(diagonal[k])
    for k in range(n - 1):
        matrix[k][k + 1] = Rat(upper[k])
    expected = math.prod(diagonal)
    if corner:
        matrix[n - 1] = [Rat(1)] + [ZERO] * (n - 1)
        # the one permutation left is the n-cycle k -> k + 1, of sign (-1)^(n-1)
        expected = -math.prod(upper)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        det = sym_det(matrix)
    finally:
        sys.setrecursionlimit(limit)
    assert str(det) == str(Rat(expected))


# ---------------------------------------------------------------------------
# block-by-block solves


def xyz_block_entry(rng):
    """`block_entry`, with the linear entries in x, y or z."""
    kind = rng.random()
    if kind < 0.12:
        return ZERO
    if kind < 0.2:
        return NOT_LITERAL_ZERO
    if kind < 0.3:
        return NOT_A_RAT
    if kind < 0.85:
        return Rat(rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))))
    return rng.choice((X, Y, Z)) - rng.randint(1, 3)


def xyz_block_triangular():
    """The permuted 8x8 that `test_permuted_block_triangular_matrices[0]`
    draws when its diagonal-block entries may be linear in x, y or z: blocks
    of 5, 2 and 1 rows.  A whole-matrix elimination of it with the identity
    augmented fills the off-diagonal blocks with growing rational functions
    and runs for minutes."""
    rng = random.Random(0)
    n = rng.randint(2, 8)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 5), n - sum(sizes)))
    block_of = [k for k, size in enumerate(sizes) for _ in range(size)]
    matrix = [[ZERO if block_of[c] > block_of[r]
               else xyz_block_entry(rng) if block_of[c] == block_of[r] else random_entry(rng)
               for c in range(n)]
              for r in range(n)]
    assert (n, sizes) == (8, [5, 2, 1])
    return permuted(matrix, rows, cols)


def product_is_identity(matrix, inverse):
    """M M^-1 = I, entry by entry through normal forms."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            entry = symexpr.dot(matrix[i], [row[j] for row in inverse])
            assert entry.normal() == (ONE if i == j else ZERO).normal(), (i, j)


def test_a_block_triangular_inverse_with_entries_in_x_y_and_z():
    matrix = xyz_block_triangular()
    blocks = calculus._block_triangular(matrix)[2]
    assert sorted(len(cols) for _, cols in blocks) == [1, 2, 5]
    assert not is_zero(sym_det(matrix))
    inverse = sym_inverse(matrix)
    product_is_identity(matrix, inverse)
    # the inverse's entries are the canonical trees of their values
    assert all(str(e) == str(compact(e)) for row in inverse for e in row)
    rhs = [X, ONE, ZERO, Y * Z, NOT_LITERAL_ZERO, Rat(2), ZERO, X + Z]
    solution = sym_solve(matrix, rhs)
    for row, b in zip(matrix, rhs):
        assert (symexpr.dot(row, solution) - b).normal().is_zero


def test_blocks_are_solved_in_emission_order():
    # lower triangular with a 2x2 block in the middle: each block's rows
    # reach only its own and earlier blocks' columns, so the substitution
    # sees only unknowns already found
    matrix = [[X + 1, ZERO, ZERO, ZERO],
              [Y, ONE, X, ZERO],
              [ONE, Z, ONE, ZERO],
              [X * Y, ZERO, Rat(2), Y + 2]]
    blocks = calculus._block_triangular(matrix)[2]
    assert blocks == [([0], [0]), ([1, 2], [1, 2]), ([3], [3])]
    same_square(matrix, [ONE, X, Y, Z])
    product_is_identity(matrix, sym_inverse(matrix))


SINGULAR = {
    # rows 0 and 2 are nonzero in column 1 alone (y - y is zero), so no
    # row -> column matching exists
    "structural": [[NOT_LITERAL_ZERO, X + 1, ZERO],
                   [ONE, Y, Z],
                   [ZERO, 2 * Y, NOT_LITERAL_ZERO]],
    # a matching exists, but the diagonal block [[x, x], [1, 1]] (rows 0
    # and 2, columns 1 and 2) is singular
    "symbolic": [[ZERO, X, X],
                 [Y, Rat(2), ONE],
                 [ZERO, ONE, ONE]],
}


@pytest.mark.parametrize("kind", sorted(SINGULAR))
def test_singular_inputs_raise(kind):
    matrix = SINGULAR[kind]
    blocks = calculus._block_triangular(matrix)[2]
    if kind == "structural":
        assert blocks is None
    else:
        assert ([0, 2], [1, 2]) in blocks
    assert sym_det(matrix) is ZERO
    for run in (lambda: sym_inverse(matrix), lambda: sym_solve(matrix, [ONE, X, Y])):
        with pytest.raises(SingularFrame) as info:
            run()
        assert str(info.value) == "matrix determinant is identically zero"
    fields = [VectorField(RANDOM_CH, column) for column in zip(*matrix)]
    with pytest.raises(SingularFrame) as info:
        FrameBasis(fields).inverse
    assert str(info.value) == "frame fields are linearly dependent"


# ---------------------------------------------------------------------------
# span tests skip the x without a stored component


def ref_span_membership_every_x(xs, fields):
    """Reference: every x an augmented column of one elimination, the
    empty ones included."""
    xs, fields = tuple(xs), tuple(fields)
    if not xs:
        return ()
    r = len(fields)
    rows = component_matrix(fields + xs)
    pivots, unused = calculus._eliminate(rows, r)
    witnesses = [next((i for i in unused
                       if not equal_zero(calculus._entry_tree(rows[i][r + k]))), None)
                 for k in range(len(xs))]
    solution = calculus._back_substitute(rows, pivots, r)
    return tuple((True, tuple(c[k] for c in solution)) if w is None else (False, w)
                 for k, w in enumerate(witnesses))


EMPTY = VectorField(RANDOM_CH, (ZERO, ZERO, ZERO))


@pytest.mark.parametrize("seed", range(8))
def test_empty_xs_among_others_keep_verdicts_and_draws(seed, monkeypatch):
    rng = random.Random(seed)
    fields = (VectorField(RANDOM_CH, (ONE, X, ZERO)), VectorField(RANDOM_CH, (ZERO, Y, ONE)))
    spanned = fields[0].scale(X + rng.randint(1, 3)) + fields[1].scale(Rat(rng.randint(-2, 2)))
    escapes = VectorField(RANDOM_CH, (ZERO, ONE, ZERO))
    xs = [EMPTY, spanned,
          VectorField(RANDOM_CH, (NOT_LITERAL_ZERO, ZERO, ZERO)),  # zero only after normalization
          EMPTY, escapes, EMPTY]
    rng.shuffle(xs)
    verdicts = same(lambda: span_membership(xs, fields),
                    lambda: ref_span_membership_every_x(xs, fields))
    assert [ok for ok, _ in verdicts] == [x is not escapes for x in xs]
    assert all(verdict == (True, (("0", True),) * 2)
               for x, verdict in zip(xs, verdicts) if x is EMPTY)

    # only the x with a stored component are augmented columns
    widths = []
    eliminate = calculus._eliminate

    def spy(rows, ncols):
        widths.append(len(rows[0]) - ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(calculus, "_eliminate", spy)
    span_membership(xs, fields)
    assert widths == [3]


def test_only_empty_xs_need_no_elimination(monkeypatch):
    def eliminate(*args, **kwargs):
        raise AssertionError("an x without a stored component needs no elimination")

    fields = (VectorField(RANDOM_CH, (ONE, X, ZERO)),)
    want = outcome(lambda: ref_span_membership_every_x([EMPTY, EMPTY], fields))
    monkeypatch.setattr(calculus, "_eliminate", eliminate)
    assert outcome(lambda: span_membership([EMPTY, EMPTY], fields)) == want
    assert span_membership([EMPTY], ()) == ((True, ()),)
