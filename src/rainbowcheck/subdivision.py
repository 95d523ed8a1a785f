"""Barycentric subdivision, derived neighborhoods, and supplement complexes.

Deformation retractions themselves are never represented; their homological
consequences are what the rest of the toolkit tests (Betti-vector
equalities over several fields).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .complexes import SimplicialComplex, induced_subcomplex


def barycenter_label(face) -> str:
    """Canonical label of the barycenter of a face: its sorted vertices
    joined with '|'.  Reproducible across runs; iterated subdivision nests
    these strings."""
    return "|".join(str(v) for v in face)


@dataclass(frozen=True)
class SubdivisionMap:
    """First barycentric subdivision together with the carrier map sending
    each new vertex to the face of the original complex it subdivides."""

    complex: SimplicialComplex
    carrier: dict  # barycenter label -> Simplex of the original complex


@lru_cache(maxsize=8)
def _maximal_chains(n: int) -> tuple:
    """The n! maximal chains of nonempty subsets of an n-element set, as
    tuples of positions in the list of its subsets ordered as
    `itertools.combinations` gives them, size by size."""
    subsets = [c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
    position = {c: i for i, c in enumerate(subsets)}
    return tuple(
        tuple(position[tuple(sorted(perm[: i + 1]))] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def _describe(face) -> str:
    return f"vertex {face[0]!r}" if len(face) == 1 else f"the barycenter of {face!r}"


def barycentric_subdivision(K: SimplicialComplex) -> SubdivisionMap:
    """Order complex of the face poset of K: vertices are barycenters of
    nonempty faces, facets are the maximal chains.

    Raises ValueError when two faces would get the same barycenter label
    (a vertex named 'a|b' beside the edge ab), since the subdivision would
    then merge two of its vertices."""
    if K.is_empty:
        raise ValueError("cannot subdivide the empty complex")
    label = {f: barycenter_label(f) for k in range(K.dim + 1) for f in K._faces(k)}
    carrier = {}
    for f, name in label.items():
        g = carrier.setdefault(name, f)
        if g != f:
            raise ValueError(f"{_describe(g)} and {_describe(f)} have the same label {name!r}")
    # Two maximal chains of a face poset are never nested, and distinct
    # faces have distinct labels, so the chains are already an antichain.
    facets = []
    for facet in K.facets:
        n = len(facet)
        names = [label[s] for r in range(1, n + 1) for s in itertools.combinations(facet, r)]
        facets.extend(tuple(sorted(map(names.__getitem__, c))) for c in _maximal_chains(n))
    return SubdivisionMap(SimplicialComplex._from_antichain(facets, carrier), carrier)


def derived_neighborhood(U, K: SimplicialComplex) -> SimplicialComplex:
    """N(<U>, K'): the subcomplex of K' generated by the closed faces that
    contain a barycenter whose carrier lies inside the subcomplex induced
    by U.  Returned in the coordinates of K'."""
    U = frozenset(U)
    unknown = U - set(K.vertices)
    if unknown:
        raise ValueError(f"unknown vertices {sorted(unknown, key=repr)!r}")
    sdm = barycentric_subdivision(K)
    meeting = [
        f
        for f in sdm.complex.facets
        if any(frozenset(sdm.carrier[v]) <= U for v in f)
    ]
    return SimplicialComplex(meeting)


def supplement_complex(U, K: SimplicialComplex) -> SimplicialComplex:
    """Induced subcomplex of K' on barycenters whose carrier has at least
    one vertex outside U; a simplicial model of the complement of <U>."""
    U = frozenset(U)
    unknown = U - set(K.vertices)
    if unknown:
        raise ValueError(f"unknown vertices {sorted(unknown, key=repr)!r}")
    sdm = barycentric_subdivision(K)
    keep = {v for v in sdm.complex.vertices if not frozenset(sdm.carrier[v]) <= U}
    return induced_subcomplex(sdm.complex, keep)
