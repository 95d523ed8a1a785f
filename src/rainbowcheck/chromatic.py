"""Vertex colorings, chromatic subcomplexes, rainbow-simplex enumeration,
and the homological sufficient-condition checkers.

Contractibility-style hypotheses are replaced by acyclicity over the
requested fields and reported as proxy-pass, never pass; manifold-structure
hypotheses are reported as assumed (with the pseudomanifold report attached).
A homological condition quantified over fields counts as holding when it
holds over at least one requested field.

Every checker is one entry of a hypothesis table (`_THEOREMS`): an arity
rule and an ordered list of rows, each a verdict kind over color subsets
and fields.  One sweep (`_Sweep.verdicts`) evaluates the rows of any
checker, and of the Alexander-duality audit, with one check's memo of
each K_S and its Betti vectors; nothing is cached across calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial

from .complexes import (
    SimplicialComplex,
    boundary_complex,
    induced_subcomplex,
    pseudomanifold_report,
)
from .homology import BettiVector, FieldSpec, reduced_betti, relative_betti, sphere_betti

PASS = "pass"
FAIL = "fail"
PROXY_PASS = "proxy-pass"
PROXY_FAIL = "proxy-fail"
ASSUMED = "assumed"

_OK = (PASS, PROXY_PASS, ASSUMED)


class ArityError(ValueError):
    """Complex dimension / class count does not match the requested checker."""


class Coloring:
    """Partition of a vertex set into color classes V_0..V_m."""

    __slots__ = ("classes", "class_of")

    def __init__(self, classes):
        self.classes = tuple(frozenset(c) for c in classes)
        self.class_of = {}
        for i, cls in enumerate(self.classes):
            for v in cls:
                if v in self.class_of:
                    raise ValueError(f"vertex {v!r} appears in more than one class")
                self.class_of[v] = i

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def union(self, S) -> frozenset:
        out = set()
        for i in S:
            if not 0 <= i < self.num_classes:
                raise IndexError(f"class index {i} out of range")
            out.update(self.classes[i])
        return frozenset(out)

    def __eq__(self, other):
        return isinstance(other, Coloring) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return f"Coloring({[sorted(c) for c in self.classes]})"


def validate_coloring(K: SimplicialComplex, C: Coloring):
    """Diagnostics: 'error:' entries break the partition property,
    'warning:' entries (empty classes) do not."""
    violations = []
    vertex_set = set(K.vertices)
    for v in sorted(vertex_set - set(C.class_of)):
        violations.append(f"error: vertex {v!r} is uncolored")
    for v in sorted(set(C.class_of) - vertex_set):
        violations.append(f"error: colored vertex {v!r} is not in the complex")
    for i, cls in enumerate(C.classes):
        if not cls:
            violations.append(f"warning: class {i} is empty")
    return violations


def coloring_errors(K: SimplicialComplex, C: Coloring):
    return [v for v in validate_coloring(K, C) if v.startswith("error:")]


def chromatic_subcomplex(K: SimplicialComplex, C: Coloring, S) -> SimplicialComplex:
    """K_S: the full subcomplex induced by the union of the classes in S."""
    return induced_subcomplex(K, C.union(S) & set(K.vertices))


def rainbow_simplices(K: SimplicialComplex, C: Coloring):
    """Top-dimensional faces with exactly one vertex in each color class.

    Requires class count == dim(K) + 1; otherwise there is nothing to
    enumerate and the empty list is returned.
    """
    n = K.dim
    if C.num_classes != n + 1 or n < 0:
        return []
    full = set(range(n + 1))
    out = []
    for f in K._faces(n):
        colors = {C.class_of.get(v) for v in f}
        if colors == full:
            out.append(f)
    return out


@dataclass(frozen=True)
class HypothesisVerdict:
    id: str
    status: str
    detail: dict = dataclass_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in _OK

    def as_dict(self):
        return {"id": self.id, "status": self.status, "detail": _jsonable(self.detail)}


@dataclass(frozen=True)
class CheckReport:
    theorem_id: str
    verdicts: tuple
    all_hold: bool
    rainbow_witnesses: tuple
    consistent: bool

    def as_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "all_hold": self.all_hold,
            "rainbow_witnesses": [list(w) for w in self.rainbow_witnesses],
            "consistent": self.consistent,
        }

    def over(self, F: FieldSpec) -> CheckReport:
        """The report restricted to one field: the field-independent
        verdicts and those over F, assembled as a check over F alone."""
        verdicts = [v for v in self.verdicts if v.detail.get("field", str(F)) == str(F)]
        return _assemble(self.theorem_id, verdicts, self.rainbow_witnesses, [F])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, BettiVector):
        return obj.nonzero()
    if isinstance(obj, FieldSpec):
        return str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    return str(obj)


def _assemble(theorem_id, verdicts, witnesses, fields) -> CheckReport:
    """all_hold: every field-independent verdict ok, and all field-scoped
    verdicts ok over at least one field."""
    global_ok = all(v.ok for v in verdicts if "field" not in v.detail)
    scoped = [v for v in verdicts if "field" in v.detail]
    some_field = not scoped or any(
        all(v.ok for v in scoped if v.detail["field"] == str(F)) for F in fields
    )
    all_hold = global_ok and some_field
    witnesses = tuple(witnesses)
    consistent = (not all_hold) or bool(witnesses)
    return CheckReport(theorem_id, tuple(verdicts), all_hold, witnesses, consistent)


def _subsets(m: int, sizes):
    """Color subsets of range(m) with the given sizes, size-major, each
    size in lexicographic order."""
    return [S for size in sizes for S in itertools.combinations(range(m), size)]


class _Sweep:
    """One check's complexes: K, its coloring, each K_S and (dK)_S (dK the
    boundary complex) and their Betti vectors per field, each computed
    once however many rows read it.  S=None stands for K (or dK) itself."""

    def __init__(self, K: SimplicialComplex, C: Coloring):
        self.K, self.C = K, C
        self._built = {}
        self._betti = {}

    @cached_property
    def boundary(self) -> SimplicialComplex:
        return boundary_complex(self.K)

    @cached_property
    def manifold(self):
        return pseudomanifold_report(self.K)

    def sub(self, S, boundary=False) -> SimplicialComplex:
        L = self.boundary if boundary else self.K
        if S is None:
            return L
        key = (S, boundary)
        if key not in self._built:
            self._built[key] = chromatic_subcomplex(L, self.C, S)
        return self._built[key]

    def betti(self, S, F: FieldSpec, boundary=False) -> BettiVector:
        key = (S, boundary, F)
        if key not in self._betti:
            self._betti[key] = reduced_betti(self.sub(S, boundary), F)
        return self._betti[key]

    def verdicts(self, rows, fields):
        """The rows' verdicts, row by row: over each row's color subsets S
        (or once, on K itself), and within S over the fields when the row
        is field-scoped."""
        out = []
        for row in rows:
            for S in row.subsets(self.K.dim, self.C.num_classes) if row.subsets else [None]:
                KS = self.sub(S)
                for F in fields if row.per_field else [None]:
                    holds, detail = row.test(self, S, KS, F)
                    vid = row.id.format(*(S or ()), S=list(S or ()))
                    out.append(HypothesisVerdict(vid, row.statuses[not holds], detail))
        return out


@dataclass(frozen=True)
class _Row:
    """One kind of verdict: its id (formatted with the members of S and
    S=list(S)), its test (sweep, S, K_S, F) -> (holds, detail), the color
    subsets it ranges over as a function of (dim, classes) (None: once, on
    K itself), its (held, failed) statuses, and whether it is per field."""

    id: str
    test: object
    subsets: object = None
    statuses: tuple = (PASS, FAIL)
    per_field: bool = True


def _every_subset(n, m):
    return sorted(_subsets(m, range(1, m + 1)))


def _classes(n, m):
    return _subsets(m, [1])


def _pairs(n, m):
    return _subsets(m, [2])


def _below_top(n, m):
    return _subsets(m, range(1, n))


def _vanishing(shift, sweep, S, KS, F):
    # b~_{|S|+shift}(K_S) = 0; degree -1 also requires degree 0 (connected).
    betti = sweep.betti(S, F)
    d = len(S) + shift
    val = betti[d] if d >= 0 else betti[-1] + betti[0]
    return val == 0, {"S": list(S), "degree": max(d, 0), "field": str(F), "betti": val}


def _relative_h1(sweep, S, KS, F):
    val = relative_betti(KS, sweep.sub(S, boundary=True), F)[1]
    return val == 0, {"i": S[0], "field": str(F), "betti": val}


def _class_acyclic(with_boundary, sweep, S, KS, F):
    interior_ok = not KS.is_empty and sweep.betti(S, F).is_zero()
    bd_ok = not with_boundary or sweep.sub(S, True).is_empty or sweep.betti(S, F, True).is_zero()
    detail = {"i": S[0], "field": str(F), "class_acyclic": interior_ok, "boundary_part_ok": bd_ok}
    return interior_ok and bd_ok, detail


def _ambient_vanishing(sweep, S, K, F):
    betti = sweep.betti(None, F)
    degrees = list(range(2, K.dim))
    bad = {k: betti[k] for k in degrees if betti[k] != 0}
    return not bad, {"field": str(F), "degrees": degrees, "nonzero": bad}


def _homology_sphere(sweep, S, K, F):
    betti = sweep.betti(None, F)
    return betti == sphere_betti(K.dim), {"field": str(F), "betti": betti}


def _spine(sweep, S, KS, F):
    # A complex retracting to an i-dimensional spine has no homology above
    # degree i; here i = |S| - 1 (a handlebody neighborhood for |S| = 2).
    betti = sweep.betti(S, F)
    bad = {k: betti[k] for k in range(len(S), sweep.K.dim + 1) if betti[k] != 0}
    return not bad, {"S": list(S), "field": str(F), "nonzero": bad}


def _edge(sweep, S, KS, F):
    # K_S holds only the classes in S, so a two-colored edge of K_S joins them.
    class_of = sweep.C.class_of
    return any(class_of[a] != class_of[b] for a, b in KS._faces(1)), {"i": S[0], "j": S[1]}


def _classes_nonempty(sweep, S, K, F):
    empty = [i for i, cls in enumerate(sweep.C.classes) if not cls]
    return not empty, {"empty_classes": empty}


def _pseudomanifold(sweep, S, K, F):
    return True, {"pseudomanifold": sweep.manifold}


def _manifold(label):
    return _Row(label, _pseudomanifold, statuses=(ASSUMED, ASSUMED), per_field=False)


def _duality(sweep, S, KS, F):
    n = sweep.K.dim
    lhs_degree, rhs_degree = len(S) - 2, n + 1 - len(S)
    lhs = sweep.betti(S, F)[lhs_degree]
    rhs = sweep.betti(tuple(i for i in range(n + 1) if i not in S), F)[rhs_degree]
    equal = lhs == rhs
    entry = {"S": list(S), "lhs_degree": lhs_degree, "lhs": lhs}
    return equal, {**entry, "rhs_degree": rhs_degree, "rhs": rhs, "equal": equal}


_PROXY = (PROXY_PASS, PROXY_FAIL)
_NONEMPTY = _Row("classes_nonempty", _classes_nonempty, per_field=False)
_AMBIENT = _Row("ambient_vanishing", _ambient_vanishing)
_EDGES = _Row("edge[{0},{1}]", _edge, _pairs, per_field=False)
_RELATIVE_H1 = _Row("relative_h1[i={0}]", _relative_h1, _classes)
_CLASS_ACYCLIC = _Row("class_acyclic[i={0}]", partial(_class_acyclic, True), _classes, _PROXY)
# The four checker tests the classes alone, not their parts in the boundary.
_INTERIOR_ACYCLIC = _Row("class_acyclic[i={0}]", partial(_class_acyclic, False), _classes, _PROXY)
_PAIR_SPINE = _Row("pair_spine[S={S}]", _spine, _pairs, _PROXY)
_SPINE = _Row("spine[S={S}]", _spine, _below_top, _PROXY)
_HOMOLOGY_SPHERE = _Row("homology_sphere", _homology_sphere, statuses=_PROXY)
_MESHULAM_VANISHING = _Row("vanishing[S={S}]", partial(_vanishing, -2), _every_subset)
_SPHERE_VANISHING = _Row("vanishing[S={S}]", partial(_vanishing, 0), _below_top)
_DUALITY = _Row("duality[S={S}]", _duality, lambda n, m: _subsets(m, range(1, n + 1)))


@dataclass(frozen=True)
class _Theorem:
    """A checker's arity rule and its rows in verdict order.  It needs
    dim + 1 classes, and dimension `dim` unless that is None; `closed`
    requires every ridge in two facets; with `arity_verdict` a mismatch is a
    failed "arity" verdict instead of an ArityError."""

    rows: tuple
    dim: int | None = None
    closed: bool = False
    arity_verdict: bool = False


_THEOREMS = {
    "meshulam": _Theorem((_MESHULAM_VANISHING,), arity_verdict=True),
    "surface": _Theorem((_manifold("surface_manifold"), _NONEMPTY, _RELATIVE_H1), dim=2),
    "three": _Theorem((_manifold("three_manifold"), _AMBIENT, _CLASS_ACYCLIC, _EDGES), dim=3),
    "four": _Theorem(
        (_manifold("four_manifold"), _AMBIENT, _EDGES, _INTERIOR_ACYCLIC, _PAIR_SPINE), dim=4
    ),
    "n": _Theorem((_manifold("n_manifold"), _AMBIENT, _SPINE), closed=True),
    "sphere": _Theorem((_HOMOLOGY_SPHERE, _SPHERE_VANISHING)),
}
THEOREM_IDS = tuple(_THEOREMS)


def check_meshulam(K: SimplicialComplex, C: Coloring, F: FieldSpec) -> CheckReport:
    """Check the vanishing condition b~_{|S|-2}(K_S) = 0 for every nonempty
    color subset S over the field F; sufficient for a rainbow simplex.
    Same as check_theorem(K, C, "meshulam", [F]).

    For |S| = 1 the verdict requires K_S to be nonempty AND connected
    (degrees -1 and 0).  This is a deliberate strengthening of the bare
    degree -1 reading; the condition stays sufficient, and the extra
    connectivity check is what catches scattered single-color classes.
    """
    return check_theorem(K, C, "meshulam", [F])


def check_theorem(K: SimplicialComplex, C: Coloring, theorem_id: str, fields) -> CheckReport:
    """Run the hypothesis checks of one of the named sufficient-condition
    theorems over the given fields; returns per-condition verdicts, rainbow
    witnesses, and the computed consistency flag.  For "meshulam" over
    several fields, all_hold is true iff check_meshulam holds over one of
    them."""
    fields = list(fields)
    if not fields:
        raise ValueError("at least one field is required")
    theorem = _THEOREMS.get(theorem_id)
    if theorem is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    n, m = K.dim, C.num_classes
    if m != n + 1 or theorem.dim not in (None, n):
        if theorem.arity_verdict:
            detail = {"classes": m, "dim": n, "expected_classes": n + 1}
            return _assemble(theorem_id, [HypothesisVerdict("arity", FAIL, detail)], (), fields)
        d = theorem.dim
        need = "dim+1 classes" if d is None else f"dim {d} and {d + 1} classes"
        raise ArityError(f"{theorem_id} checker needs {need}, got dim {n}, {m} classes")
    sweep = _Sweep(K, C)
    if theorem.closed and not sweep.manifold.is_closed:
        raise ArityError(
            f"{theorem_id} checker requires a closed complex (every ridge in 2 facets)"
        )
    verdicts = sweep.verdicts(theorem.rows, fields)
    return _assemble(theorem_id, verdicts, rainbow_simplices(K, C), fields)


@dataclass(frozen=True)
class DualityAudit:
    field: FieldSpec
    entries: tuple  # dicts: S, lhs_degree, lhs, rhs_degree, rhs, equal
    passed: bool

    def as_dict(self):
        return {
            "field": str(self.field),
            "entries": [_jsonable(e) for e in self.entries],
            "passed": self.passed,
        }


def alexander_duality_audit(K: SimplicialComplex, C: Coloring, F: FieldSpec) -> DualityAudit:
    """For a homology n-sphere K with n+1 color classes, compare
    b~_{|S|-2}(K_S) with b~_{n+1-|S|}(K_{S complement}) for 1 <= |S| <= n."""
    n = K.dim
    sweep = _Sweep(K, C)
    if sweep.betti(None, F) != sphere_betti(n):
        raise ValueError(f"K is not a homology {n}-sphere over {F}")
    if C.num_classes != n + 1:
        raise ValueError(f"need {n + 1} classes, got {C.num_classes}")
    errors = coloring_errors(K, C)
    if errors:
        raise ValueError("; ".join(errors))
    verdicts = sweep.verdicts([_DUALITY], [F])
    return DualityAudit(F, tuple(v.detail for v in verdicts), all(v.ok for v in verdicts))
