"""Finite abstract simplicial complexes, stored by their maximal faces.

A complex is immutable after construction. Vertex labels must be mutually
comparable (all strings or all integers, say; otherwise construction raises
ValueError); the sorted order of the labels is frozen at construction and
determines all orientation signs downstream.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from dataclasses import asdict, dataclass

# A simplex is a strictly sorted tuple of vertex labels.
Simplex = tuple


def _sorted_labels(labels) -> list:
    try:
        return sorted(labels)
    except TypeError:
        kinds = {type(v).__name__: v for v in labels}
        named = ", ".join(f"{v!r} ({kind})" for kind, v in sorted(kinds.items()))
        raise ValueError(f"vertex labels must be mutually comparable, got {named}") from None


def _normalize_facet(vertices) -> Simplex:
    vs = tuple(_sorted_labels(vertices))
    if not vs:
        raise ValueError("empty facet is not allowed")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a!r} inside facet {list(vertices)!r}")
    return vs


class SimplicialComplex:
    """Abstract simplicial complex given by an antichain of facets.

    k-faces are enumerated on demand and memoized; the empty complex
    (no facets) is a legal value with dim == -1.

    The input may be any iterable of vertex lists; faces contained in
    other input faces are absorbed, so `facets` is the set of maximal
    inputs. Candidates of the largest size are maximal untested, so a pure
    input is not scanned at all. A smaller candidate can only be absorbed
    by a strictly larger candidate, and that candidate passes through every
    vertex of it, so it is tested only against the larger candidates
    through its rarest vertex (the one in the fewest candidates).
    """

    __slots__ = ("_facets", "vertices", "dim", "_face_table", "_lock")

    def __init__(self, facets=()):
        candidates = {_normalize_facet(f) for f in facets}
        top = max(map(len, candidates), default=0)
        maximal = {f for f in candidates if len(f) == top}
        smaller = candidates - maximal
        # Index vertex -> candidates as sets, longest first, so the scan of the
        # rarest vertex's list stops at the first candidate that is not
        # strictly longer.  With no smaller candidate there is no index.
        by_vertex = {}
        for f in sorted(candidates, key=len, reverse=True) if smaller else ():
            fs = frozenset(f)
            for v in f:
                by_vertex.setdefault(v, []).append(fs)
        for f in smaller:
            rarest = min(f, key=lambda v: len(by_vertex[v]))
            larger = itertools.takewhile(lambda g: len(g) > len(f), by_vertex[rarest])
            if not any(map(frozenset(f).issubset, larger)):
                maximal.add(f)
        self._set_facets(maximal, {v for f in maximal for v in f})

    @classmethod
    def _from_antichain(cls, facets, vertices) -> SimplicialComplex:
        """Trusted construction: `facets` are strictly sorted, nonempty
        tuples, no one contained in another, and `vertices` is exactly the
        set of labels they use.  Nothing is checked or normalized."""
        K = cls.__new__(cls)
        K._set_facets(facets, vertices)
        return K

    @classmethod
    def _from_faces(cls, table) -> SimplicialComplex:
        """Trusted construction from a complete face table: table[k] is the
        sorted, nonempty list of all k-faces for k = -1..dim (table[-1] == [()])."""
        K = cls.__new__(cls)
        K._facets = None
        K.vertices = tuple(f[0] for f in table.get(0, ()))
        K.dim = max(table)
        K._face_table = table
        K._lock = threading.Lock()
        return K

    def _set_facets(self, facets, vertices):
        self._facets = frozenset(facets)
        self.vertices = tuple(_sorted_labels(vertices))
        self.dim = max((len(f) - 1 for f in self._facets), default=-1)
        self._face_table = {-1: [()]}
        self._lock = threading.Lock()

    @property
    def facets(self) -> frozenset:
        """The maximal faces.  From a face table they are derived on first
        read: a face is maximal when it lies on no face one degree up."""
        if self._facets is None:  # unlocked: racing readers derive equal sets
            table, n = self._face_table, self.dim
            covered = {
                r for k in range(1, n + 1) for g in table[k] for r in itertools.combinations(g, k)
            }
            self._facets = frozenset(f for k in range(n + 1) for f in table[k] if f not in covered)
        return self._facets

    @property
    def is_empty(self) -> bool:
        return self.dim < 0

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, facets={len(self.facets)}, vertices={len(self.vertices)})"

    def _faces(self, k: int):
        """All k-faces, sorted; returns [] above dim, [()] at k == -1."""
        if k < -1 or k > self.dim:
            return [] if k != -1 else [()]
        with self._lock:
            if k not in self._face_table:
                seen = set()
                for f in self.facets:
                    if len(f) >= k + 1:
                        seen.update(itertools.combinations(f, k + 1))
                self._face_table[k] = sorted(seen)
            return self._face_table[k]

    def faces(self, k: int):
        """All k-faces in lexicographic order; k = -1 yields the empty-simplex marker."""
        if k < -1 or k > self.dim:
            raise ValueError(f"k={k} out of range for complex of dim {self.dim}")
        return list(self._faces(k))

    def face_count(self, k: int) -> int:
        return len(self._faces(k))

    def has_face(self, simplex) -> bool:
        """Whether the vertex set of `simplex` spans a face of K (the empty
        simplex always does), by binary search in the sorted face table."""
        try:
            s = tuple(sorted(set(simplex)))
            faces = self._faces(len(s) - 1)
            i = bisect.bisect_left(faces, s)
        except TypeError:  # a label not comparable with K's is not one of K's
            return False
        return i < len(faces) and faces[i] == s


def induced_subcomplex(K: SimplicialComplex, W) -> SimplicialComplex:
    """Full subcomplex on the vertex set W: the faces of K inside W, filtered
    from K's sorted face tables in order, up to the first degree with none."""
    W = frozenset(W)
    unknown = W - set(K.vertices)
    if unknown:
        raise ValueError(f"unknown vertices {sorted(unknown, key=repr)!r}")
    table = {-1: [()]}
    for k in range(K.dim + 1):
        faces = list(filter(W.issuperset, K._faces(k)))
        if not faces:
            break
        table[k] = faces
    return SimplicialComplex._from_faces(table)


def boundary_complex(K: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the (n-1)-faces lying in exactly one facet.

    Requires K pure; empty for a closed pseudomanifold, and empty for a
    pure 0-complex (points have empty boundary).
    """
    if not is_pure(K):
        raise ValueError("boundary_complex requires a pure complex")
    # The ridges of a pure complex are distinct and of one size: an antichain.
    ridges = [r for r, fs in _ridges(K).items() if len(fs) == 1] if K.dim > 0 else []
    return SimplicialComplex._from_antichain(ridges, {v for r in ridges for v in r})


def is_pure(K: SimplicialComplex) -> bool:
    return K.is_empty or all(len(f) == K.dim + 1 for f in K.facets)


def _ridges(K: SimplicialComplex) -> dict:
    """Each (dim-1)-face of a top-dimensional facet -> the list of those facets."""
    ridges = {}
    for f in K.facets:
        if len(f) == K.dim + 1:
            for r in itertools.combinations(f, K.dim):
                ridges.setdefault(r, []).append(f)
    return ridges


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** k * K.face_count(k) for k in range(K.dim + 1))


def _components(vertices, edges) -> list:
    """Blocks of `vertices` under the pairs in `edges`, by union-find."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    blocks = {}
    for v in vertices:
        blocks.setdefault(find(v), []).append(v)
    return list(blocks.values())


def connected_components(K: SimplicialComplex):
    """Partition of the vertex set under the edge relation, sorted blocks."""
    return sorted(sorted(b) for b in _components(K.vertices, K._faces(1)))


def _link(v, star) -> SimplicialComplex:
    """Link of v from its star, the facets that contain v."""
    # f - v and g - v are nested only when f and g are: the pieces are an antichain.
    pieces = [tuple(u for u in f if u != v) for f in star if len(f) > 1]
    return SimplicialComplex._from_antichain(pieces, {u for f in pieces for u in f})


def vertex_link(K: SimplicialComplex, v) -> SimplicialComplex:
    """Link of v: complex generated by f minus v over the facets f containing v."""
    if v not in set(K.vertices):
        raise ValueError(f"unknown vertex {v!r}")
    return _link(v, [f for f in K.facets if v in f])


@dataclass(frozen=True)
class PseudomanifoldReport:
    is_pure: bool
    ridge_degrees_ok: bool
    is_closed: bool
    link_betti_ok: bool
    strongly_connected: bool

    def as_dict(self):
        return asdict(self)


def pseudomanifold_report(K: SimplicialComplex) -> PseudomanifoldReport:
    """Necessary manifold conditions, decided by finite enumeration.

    Vertex links are compared against the GF(2) reduced Betti vectors of
    the (n-1)-sphere and the (n-1)-ball; this is necessary, not sufficient,
    for K to triangulate a manifold.  Ridge facts are read from one ridge
    map and links from one star index, not from a scan of K per vertex.
    """
    from .homology import GF2, reduced_betti  # local import: avoid cycle

    if K.is_empty:
        return PseudomanifoldReport(True, True, False, True, False)
    n, pure, ridges = K.dim, is_pure(K), _ridges(K)
    ridge_ok = all(len(fs) <= 2 for fs in ridges.values())
    closed = pure and n >= 1 and all(len(fs) == 2 for fs in ridges.values())

    star = {v: [] for v in K.vertices}
    for f in K.facets:
        for v in f:
            star[v].append(f)
    link_ok = True
    for v, fs in star.items():
        betti = reduced_betti(_link(v, fs), GF2)
        sphere = all(betti[k] == (1 if k == n - 1 else 0) for k in range(-1, n))
        ball = all(betti[k] == 0 for k in range(-1, n))  # degree -1 rules out an empty link
        if not (sphere or ball):
            link_ok = False
            break

    # Facets that share a ridge are adjacent; chaining each ridge's list is enough.
    adjacent = (e for fs in ridges.values() for e in zip(fs, fs[1:]))
    strong = pure and len(_components(K.facets, adjacent)) == 1
    return PseudomanifoldReport(pure, ridge_ok, closed, link_ok, strong)
