import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcheck import (
    GF2,
    QQ,
    SimplicialComplex,
    barycentric_subdivision,
    derived_neighborhood,
    induced_subcomplex,
    reduced_betti,
    supplement_complex,
)
from rainbowcheck.generators import generate

from oracle import barycentric_facets, enumerate_faces

TETRA_BOUNDARY = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


def test_sd_of_edge_is_path():
    sdm = barycentric_subdivision(SimplicialComplex([["a", "b"]]))
    K = sdm.complex
    assert len(K.vertices) == 3
    assert K.face_count(1) == 2
    assert sdm.carrier["a|b"] == ("a", "b")
    assert sdm.carrier["a"] == ("a",)


def test_sd_of_sphere_counts():
    K = barycentric_subdivision(SimplicialComplex(TETRA_BOUNDARY)).complex
    assert len(K.vertices) == 14
    assert K.face_count(1) == 36
    assert K.face_count(2) == 24


def test_sd_rejects_empty():
    with pytest.raises(ValueError):
        barycentric_subdivision(SimplicialComplex([]))


def test_sd_vertices_biject_with_faces():
    K = generate("rp2_6").complex
    sdm = barycentric_subdivision(K)
    n_faces = sum(K.face_count(k) for k in range(K.dim + 1))
    assert len(sdm.complex.vertices) == n_faces
    assert set(sdm.carrier) == set(sdm.complex.vertices)


def test_sd_faces_are_chains():
    K = generate("torus7").complex
    sdm = barycentric_subdivision(K)
    for f in list(sdm.complex.facets)[:20]:
        carriers = sorted((sdm.carrier[v] for v in f), key=len)
        for small, big in zip(carriers, carriers[1:]):
            assert set(small) < set(big)


@pytest.mark.parametrize("name", ["torus7", "rp2_6", "simplex_boundary(2)"])
@pytest.mark.parametrize("field", [GF2, QQ])
def test_subdivision_betti_invariance(name, field):
    K = generate(name).complex
    K2 = barycentric_subdivision(K).complex
    assert reduced_betti(K2, field) == reduced_betti(K, field)


def test_derived_neighborhood_half_edge():
    K = SimplicialComplex([["a", "b"]])
    N = derived_neighborhood({"a"}, K)
    assert N.facets == frozenset({("a", "a|b")})
    assert reduced_betti(N, QQ).is_zero()


def test_derived_neighborhood_of_edge_in_sphere():
    K = SimplicialComplex(TETRA_BOUNDARY)
    N = derived_neighborhood({"c", "d"}, K)
    assert reduced_betti(N, QQ) == reduced_betti(induced_subcomplex(K, {"c", "d"}), QQ)


def test_derived_neighborhood_of_everything_is_sd():
    K = SimplicialComplex(TETRA_BOUNDARY)
    assert derived_neighborhood(set(K.vertices), K) == barycentric_subdivision(K).complex


def test_supplement_half_edge():
    K = SimplicialComplex([["a", "b"]])
    S = supplement_complex({"b"}, K)
    assert S.facets == frozenset({("a", "a|b")})


def test_supplement_examples_on_sphere():
    K = SimplicialComplex(TETRA_BOUNDARY)
    S = supplement_complex({"c", "d"}, K)
    assert reduced_betti(S, QQ) == reduced_betti(induced_subcomplex(K, {"a", "b"}), QQ)
    S2 = supplement_complex({"a"}, K)
    assert reduced_betti(S2, QQ) == reduced_betti(induced_subcomplex(K, {"b", "c", "d"}), QQ)


def test_neighborhood_and_supplement_cover_sd_vertices():
    K = generate("rp2_6").complex
    rng = random.Random(3)
    sd_vertices = set(barycentric_subdivision(K).complex.vertices)
    for _ in range(5):
        U = {v for v in K.vertices if rng.random() < 0.5}
        covered = set(supplement_complex(U, K).vertices)
        if U:
            covered |= set(derived_neighborhood(U, K).vertices)
        assert covered == sd_vertices


def test_subdivision_keeps_no_reference_to_the_complex():
    # K's labels are its own, so no earlier call saw it.
    K = SimplicialComplex([[f"sd-no-ref-{v}" for v in f] for f in TETRA_BOUNDARY])
    before = sys.getrefcount(K), sys.getrefcount(K.facets)
    sdm = barycentric_subdivision(K)
    assert len(sdm.complex.facets) == 24
    assert (sys.getrefcount(K), sys.getrefcount(K.facets)) == before


def _facet_lists(labels):
    return st.lists(
        st.lists(labels, min_size=1, max_size=5, unique=True), min_size=1, max_size=8
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(_facet_lists(st.integers(0, 7)), _facet_lists(st.sampled_from("abcdefgh"))))
def test_subdivision_matches_oracle_and_public_constructor(facets):
    K = SimplicialComplex(facets)
    sdm = barycentric_subdivision(K)
    sd = sdm.complex
    public = SimplicialComplex(list(sd.facets))
    expected = barycentric_facets(facets)
    assert sd.facets == expected == public.facets
    assert sd.vertices == public.vertices == tuple(sorted({v for f in expected for v in f}))
    assert sd.dim == public.dim == K.dim
    faces = {f for by_dim in enumerate_faces(facets).values() for f in by_dim}
    assert set(sdm.carrier.values()) == faces
    for name, face in sdm.carrier.items():
        assert name == "|".join(map(str, face))


@pytest.mark.parametrize(
    "facets",
    [
        [["a", "b"], ["a|b", "c"]],  # b~_0 = 1; a merged vertex would give a connected sd
        [["a", "b"], ["a|b"]],  # a merged vertex would leave the chain (a|b) non-maximal
    ],
)
def test_sd_refuses_barycenter_label_collision(facets):
    with pytest.raises(ValueError, match=r"vertex 'a\|b' and the barycenter of \('a', 'b'\)"):
        barycentric_subdivision(SimplicialComplex(facets))

