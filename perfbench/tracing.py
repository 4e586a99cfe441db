"""Outside-in tracing of the bilag layers.

`Tracer.install` replaces each traced public function by a wrapper in every
loaded ``bilag`` module namespace that holds it (``from .symexpr import
equal_zero`` binds copies in ``calculus``, ``structures`` and others), and
each traced method on its class.  A wrapper records one span (name, start,
end, parent span, op id) per call.  Spans stay in memory until
`write_spans`; `uninstall` puts every original attribute back.

The package source is not touched: this module only rebinds attributes of
already imported modules and classes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (home module, attribute) of every traced callable, layer by layer, lowest
# layer first.  "Class.method" names a method patched on its class.
TRACED = (
    ("symexpr", "parse_expr"),
    ("symexpr", "Expr.normal"),
    ("symexpr", "NormalForm.add"),
    ("symexpr", "NormalForm.mul"),
    ("symexpr", "poly_gcd"),
    ("symexpr", "equal_zero"),
    ("symexpr", "is_zero"),
    ("symexpr", "diff"),
    ("calculus", "lie_bracket"),
    ("calculus", "exterior_d"),
    ("calculus", "FrameBasis.decompose"),
    ("calculus", "sym_det"),
    ("calculus", "sym_solve"),
    ("calculus", "sym_inverse"),
    ("calculus", "span_membership"),
    ("calculus", "frame_rank_full"),
    ("symplectic", "validate_symplectic"),
    ("structures", "validate_bilagrangian"),
    ("structures", "christoffels"),
    ("structures", "hess_nabla"),
    ("structures", "d_map"),
    ("structures", "curvature"),
    ("structures", "is_flat"),
    ("structures", "para_structure"),
    ("structures", "levi_civita_oracle"),
    ("structures", "push_structure"),
    ("structures", "push_connection"),
    ("structures", "connections_equal"),
    ("lift", "lift_structure"),
    ("lift", "lift_map"),
    ("lift", "lifted_action_check"),
    ("scene", "load_scene"),
    ("scene", "run_task"),
    ("plot", "leaf_plot"),
    ("cli", "main"),
)

# The five elimination routines of `calculus`, summed as calculus.elim.
ELIMINATION = ("sym_det", "sym_solve", "sym_inverse", "span_membership",
               "frame_rank_full")

PACKAGE = "bilag"


def span_times(name_ids, starts, ends, parents, count: int) -> tuple:
    """Per-name (self seconds, total seconds), as lists indexed by name id.

    A span's self time is its duration minus the part its children cover;
    spans of one thread nest, so that part is the sum of their durations.
    A name's total time adds up only its outermost spans, those without an
    ancestor of the same name, so recursion is not counted twice.  Spans
    are numbered in the order they opened, so a parent precedes its
    children.
    """
    child = [0.0] * len(starts)
    for i in range(len(starts)):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    self_s = [0.0] * count
    total_s = [0.0] * count
    above = [0] * len(starts)  # bit set of the names among a span's ancestors
    for i in range(len(starts)):
        p = parents[i]
        if p >= 0:
            above[i] = above[p] | (1 << name_ids[p])
        duration = ends[i] - starts[i]
        self_s[name_ids[i]] += duration - child[i]
        if not above[i] >> name_ids[i] & 1:
            total_s[name_ids[i]] += duration
    return self_s, total_s


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in TRACED]
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op = -1
        self.enabled = True  # off while the benchmark checks an op's answer
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        # outcome counts taken at the layer boundary
        self.normal_hits = 0
        self.gcd_trivial = 0
        self.zero_nonzero = 0
        self.kept_connections = []
        self.kept_curvatures = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name_id: int, fn, hooks=(None, None)):
        """Wrap fn in a span; hooks are (before(args), after(args, result, seen))."""
        before, after = hooks
        starts, ends, parents, ops = self.starts, self.ends, self.parents, self.ops
        name_ids, stack, clock = self.name_ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            seen = before(args) if before is not None else None
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, seen)
            return result

        return traced

    def _hooks(self) -> dict:
        def normal_cached(args):
            return args[0]._nf is not None

        def count_hit(args, result, cached):
            if cached:
                self.normal_hits += 1

        def count_trivial(args, result, seen):
            if result.is_const and result.const_value() == 1:
                self.gcd_trivial += 1

        def count_nonzero(args, result, seen):
            if not result:
                self.zero_nonzero += 1

        def keep(store):
            return lambda args, result, seen: store.append(result)

        return {
            "symexpr.Expr.normal": (normal_cached, count_hit),
            "symexpr.poly_gcd": (None, count_trivial),
            "symexpr.equal_zero": (None, count_nonzero),
            # tables are counted after the run, with tracing off
            "structures.christoffels": (None, keep(self.kept_connections)),
            "structures.curvature": (None, keep(self.kept_curvatures)),
        }

    # -- patching -----------------------------------------------------------

    def install(self):
        """Patch every traced callable in every loaded bilag namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            self._patch_all(modules)
        except BaseException:
            self.uninstall()
            raise

    def _patch_all(self, modules):
        hooks = self._hooks()
        for name_id, (home, attr) in enumerate(TRACED):
            module = sys.modules[f"{PACKAGE}.{home}"]
            hook = hooks.get(self.names[name_id], (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._wrap(name_id, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        """Restore every attribute `install` replaced, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def calls(self) -> list:
        counts = [0] * len(self.names)
        for nid in self.name_ids:
            counts[nid] += 1
        return counts

    def times(self) -> tuple:
        """(self seconds, total seconds) per traced name."""
        return span_times(self.name_ids, self.starts, self.ends, self.parents,
                          len(self.names))

    def write_spans(self, path):
        """One tab-separated line per span: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{self.ops[i]}\t{names[self.name_ids[i]]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")
