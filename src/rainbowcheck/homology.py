"""Exact reduced and relative simplicial homology via boundary-matrix ranks.

Ranks come from one column-reduction kernel (reduce each column on its
lowest nonzero row; boundaries from the top degree down with clearing).
All arithmetic is exact: modular integers over GF(p), fraction-free
integers with gcd reduction over the rationals. No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .complexes import SimplicialComplex


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for prime p < 2**31, or the rationals (p == 0)."""

    p: int

    def __post_init__(self):
        if self.p == 0:
            return
        if self.p >= 2**31 or not _is_prime(self.p):
            raise ValueError(f"{self.p} is not a prime below 2**31")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    def __str__(self):
        return "Q" if self.p == 0 else f"GF({self.p})"


QQ = FieldSpec.rationals()
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)

# An "over an arbitrary field" hypothesis is reported per field over this menu.
DEFAULT_FIELDS = (GF2, GF3, GF5, QQ)


def parse_field(text: str) -> FieldSpec:
    """Parse a CLI field token: 'q', a prime like '2', or 'p:N'."""
    t = text.strip().lower()
    if t in ("q", "qq", "rational", "rationals"):
        return QQ
    if t.startswith("p:"):
        t = t[2:]
    if t.isdigit():
        return FieldSpec(int(t))
    raise ValueError(f"cannot parse field {text!r} (expected q, a prime, or p:N)")


def _reduce(columns, p: int) -> dict:
    """Column reduction on lowest rows: each column, in order, is reduced
    against the stored pivot columns until its lowest nonzero row is new,
    and is then stored as the pivot column of that row.  Arithmetic is mod
    p, or fraction-free over the integers with gcd reduction when p == 0;
    columns must hold nonzero integers (reduced mod p when p > 0).

    Returns {pivot row: reduced column}; its length is the rank.  Reduced
    columns are mutated in place.
    """
    pivots = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                if p > 2 and col[low] != 1:
                    inv = pow(col[low], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[low] = col
                break
            a, b = col[low], piv[low]
            if p or a % b == 0:  # col - (a/b) piv, in place (b == 1 mod p)
                f = a // b
                for r, v in piv.items():
                    nv = col.get(r, 0) - f * v
                    if p:
                        nv %= p
                    if nv:
                        col[r] = nv
                    else:
                        del col[r]
            else:
                new = {}
                for r in col.keys() | piv.keys():
                    nv = col.get(r, 0) * b - piv.get(r, 0) * a
                    if nv:
                        new[r] = nv
                g = gcd(*new.values())
                col = {r: v // g for r, v in new.items()} if g > 1 else new
    return pivots


def _boundary_columns(faces, index: dict, p: int):
    """Signed boundary of each face as {row: sign}, signs (-1)^i for deleting
    the i-th vertex (reduced mod p when p > 0); rows are `index` positions,
    and a codimension-one face missing from `index` (a face of the
    subcomplex in a quotient) is dropped."""
    signs = (1, -1 % p if p else -1)
    for f in faces:
        col = {}
        for i in range(len(f)):
            r = index.get(f[:i] + f[i + 1 :])
            if r is not None:
                col[r] = signs[i % 2]
        yield col


def _betti(bases: dict, p: int) -> BettiVector:
    """Betti numbers of the chain complex with basis bases[k] (sorted
    faces) in degrees k = -1..top.

    Boundaries are reduced from the top degree down with clearing: when a
    k-face is the pivot row of a reduced column of the boundary out of
    degree k + 1, that column is a cycle whose lowest row is the k-face, so
    the k-face's own column is a combination of earlier columns, reduces to
    zero, and is never built.
    """
    top = max(bases)
    ranks = {-1: 0, top + 1: 0}
    cleared = ()
    for k in range(top, -1, -1):
        index = {f: i for i, f in enumerate(bases[k - 1])}
        kept = (f for j, f in enumerate(bases[k]) if j not in cleared)
        cleared = set(_reduce(_boundary_columns(kept, index, p), p))
        ranks[k] = len(cleared)
    return BettiVector({k: len(bases[k]) - ranks[k] - ranks[k + 1] for k in range(-1, top + 1)})


class BettiVector:
    """Reduced Betti numbers indexed from degree -1 upward; 0 off support."""

    __slots__ = ("_values",)

    def __init__(self, values=None):
        self._values = {k: int(v) for k, v in dict(values or {}).items() if v}

    def __getitem__(self, k: int) -> int:
        return self._values.get(k, 0)

    def nonzero(self) -> dict:
        return dict(self._values)

    def as_dict(self, min_degree: int, max_degree: int) -> dict:
        return {k: self[k] for k in range(min_degree, max_degree + 1)}

    def is_zero(self) -> bool:
        return not self._values

    def __eq__(self, other):
        if isinstance(other, BettiVector):
            return self._values == other._values
        if isinstance(other, dict):
            return self._values == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __repr__(self):
        return f"BettiVector({self._values})"


def sphere_betti(n: int) -> BettiVector:
    """Reduced Betti vector of the n-sphere (n >= -1; S^-1 is the empty complex)."""
    return BettiVector({n: 1})


def reduced_betti(K: SimplicialComplex, F: FieldSpec) -> BettiVector:
    """Reduced Betti numbers of K over F; degree -1 is 1 exactly for the
    empty complex."""
    return _betti({k: K._faces(k) for k in range(-1, K.dim + 1)}, F.p)


def relative_betti(K: SimplicialComplex, L: SimplicialComplex, F: FieldSpec) -> BettiVector:
    """Betti numbers of the pair (K, L): quotient chain complex on the faces
    of K not in L.  Relative homology is unreduced (no augmentation); the
    degree -1 entry is fixed at 0."""
    bases = {-1: []}
    for k in range(0, max(K.dim, L.dim) + 1):
        k_faces, l_faces = K._faces(k), set(L._faces(k))
        rest = [f for f in k_faces if f not in l_faces]
        # K's k-faces are distinct, so every k-face of L is one of them
        # exactly when the ones left out number as many as L's.
        if len(k_faces) - len(rest) != len(l_faces):
            missing = set(min(l_faces.difference(k_faces)))
            facet = min(f for f in L.facets if missing <= set(f))
            raise ValueError(f"{facet!r} is a facet of L but not a face of K")
        if k <= K.dim:
            bases[k] = rest
    return _betti(bases, F.p)


def is_acyclic(K: SimplicialComplex, F: FieldSpec) -> bool:
    """True iff K is nonempty with vanishing reduced homology over F."""
    return not K.is_empty and reduced_betti(K, F).is_zero()
