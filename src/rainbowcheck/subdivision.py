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


# Bounded so that long-lived use does not grow memory: a subdivision is
# larger than its complex, and the cache keeps both alive.
_SUBDIVISION_CACHE_SIZE = 16


@lru_cache(maxsize=_SUBDIVISION_CACHE_SIZE)
def barycentric_subdivision(K: SimplicialComplex) -> SubdivisionMap:
    """Order complex of the face poset of K: vertices are barycenters of
    nonempty faces, facets are the maximal chains."""
    if K.is_empty:
        raise ValueError("cannot subdivide the empty complex")
    carrier = {}
    for k in range(0, K.dim + 1):
        for f in K._faces(k):
            carrier[barycenter_label(f)] = f
    facets = set()
    for facet in K.facets:
        for perm in itertools.permutations(facet):
            chain = tuple(
                barycenter_label(tuple(sorted(perm[: i + 1]))) for i in range(len(perm))
            )
            facets.add(tuple(sorted(chain)))
    return SubdivisionMap(SimplicialComplex(facets), carrier)


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
