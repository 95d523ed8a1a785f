import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rainbowcheck import (
    SimplicialComplex,
    boundary_complex,
    connected_components,
    euler_characteristic,
    induced_subcomplex,
    pseudomanifold_report,
    vertex_link,
)
from rainbowcheck.complexes import is_pure
from rainbowcheck.generators import generate

from oracle import enumerate_faces, maximal_faces
from oracle import pseudomanifold_report as oracle_report

TETRA_BOUNDARY = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


def test_from_facets_boundary_of_tetrahedron():
    K = SimplicialComplex(TETRA_BOUNDARY)
    assert K.dim == 2
    assert len(K.facets) == 4
    assert K.vertices == ("a", "b", "c", "d")


def test_from_facets_absorbs_contained_faces():
    K = SimplicialComplex([["a", "b"], ["a", "b", "c"]])
    assert K.facets == frozenset({("a", "b", "c")})


def test_from_facets_single_vertex():
    K = SimplicialComplex([["a"]])
    assert K.dim == 0
    assert K.faces(0) == [("a",)]


def test_from_facets_rejects_duplicate_vertex():
    with pytest.raises(ValueError):
        SimplicialComplex([["a", "a", "b"]])


@pytest.mark.parametrize("facets", [[[1, "a"]], [[1], ["a"]]])
def test_mixed_type_labels_are_rejected(facets):
    with pytest.raises(ValueError, match=r"mutually comparable, got 1 \(int\), 'a' \(str\)"):
        SimplicialComplex(facets)


def test_empty_complex_is_legal_but_distinct():
    K = SimplicialComplex([])
    assert K.is_empty
    assert K.dim == -1
    assert K.faces(-1) == [()]


def test_faces_counts_on_tetra_boundary():
    K = SimplicialComplex(TETRA_BOUNDARY)
    assert len(K.faces(1)) == 6
    assert len(K.faces(2)) == 4
    assert K.faces(-1) == [()]
    with pytest.raises(ValueError):
        K.faces(3)


def test_faces_deterministic_lexicographic():
    K = SimplicialComplex(TETRA_BOUNDARY)
    assert K.faces(1) == sorted(K.faces(1))
    assert K.faces(1)[0] == ("a", "b")


def test_induced_subcomplex_examples():
    K = SimplicialComplex(TETRA_BOUNDARY)
    assert induced_subcomplex(K, {"c", "d"}).facets == frozenset({("c", "d")})
    tri = induced_subcomplex(K, {"a", "b", "c"})
    assert tri.facets == frozenset({("a", "b", "c")})
    assert induced_subcomplex(K, set()).is_empty
    with pytest.raises(ValueError):
        induced_subcomplex(K, {"z"})


def test_induced_full_vertex_set_is_identity():
    K = SimplicialComplex(TETRA_BOUNDARY)
    assert induced_subcomplex(K, K.vertices) == K


def test_boundary_complex_examples():
    triangle = SimplicialComplex([["a", "b", "c"]])
    assert boundary_complex(triangle).facets == frozenset(
        {("a", "b"), ("a", "c"), ("b", "c")}
    )
    assert boundary_complex(SimplicialComplex(TETRA_BOUNDARY)).is_empty
    # two triangles glued along an edge: boundary is the 4-edge cycle
    glued = SimplicialComplex([["a", "b", "c"], ["b", "c", "d"]])
    assert boundary_complex(glued).facets == frozenset(
        {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    )


def test_boundary_complex_requires_pure():
    with pytest.raises(ValueError):
        boundary_complex(SimplicialComplex([["a", "b", "c"], ["d", "e"]]))


def test_euler_characteristic():
    assert euler_characteristic(SimplicialComplex(TETRA_BOUNDARY)) == 2
    assert euler_characteristic(generate("torus7").complex) == 0
    assert euler_characteristic(SimplicialComplex([["a"]])) == 1
    assert euler_characteristic(SimplicialComplex([])) == 0


def test_euler_characteristic_of_simplex_boundaries():
    for n in range(1, 6):
        K = generate(f"simplex_boundary({n})").complex
        assert euler_characteristic(K) == 1 + (-1) ** n


def test_connected_components():
    assert len(connected_components(SimplicialComplex([["a", "b"], ["c", "d"]]))) == 2
    assert len(connected_components(SimplicialComplex(TETRA_BOUNDARY))) == 1
    assert connected_components(SimplicialComplex([])) == []


def test_pseudomanifold_report_sphere():
    report = pseudomanifold_report(SimplicialComplex(TETRA_BOUNDARY))
    assert report.is_pure and report.is_closed and report.ridge_degrees_ok
    assert report.link_betti_ok and report.strongly_connected


def test_pseudomanifold_report_disk():
    report = pseudomanifold_report(SimplicialComplex([["a", "b", "c"]]))
    assert report.is_pure and report.ridge_degrees_ok
    assert not report.is_closed


def test_pseudomanifold_report_wedge_of_triangles():
    # two triangles sharing only a vertex: the shared-vertex link is two
    # disjoint edges, neither a circle nor an arc
    wedge = SimplicialComplex([["a", "b", "c"], ["a", "d", "e"]])
    lk = vertex_link(wedge, "a")
    assert lk.facets == frozenset({("b", "c"), ("d", "e")})
    assert not pseudomanifold_report(wedge).link_betti_ok


def test_closed_implies_ridge_degrees_ok():
    for name in ("torus7", "rp2_6", "simplex_boundary(3)", "cycle(5)"):
        report = pseudomanifold_report(generate(name).complex)
        assert not report.is_closed or report.ridge_degrees_ok


small_facets = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(small_facets)
def test_downward_closure(facet_lists):
    K = SimplicialComplex(facet_lists)
    for k in range(1, K.dim + 1):
        lower = set(K.faces(k - 1))
        for f in K.faces(k):
            for sub in itertools.combinations(f, k):
                assert sub in lower


@settings(max_examples=60, deadline=None)
@given(small_facets, st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_induced_subcomplex_monotone(facet_lists, w1, w2):
    K = SimplicialComplex(facet_lists)
    vs = set(K.vertices)
    w1 = w1 & vs
    w2 = (w1 | w2) & vs
    small = induced_subcomplex(K, w1)
    big = induced_subcomplex(K, w2)
    for f in small.facets:
        assert big.has_face(f)


@settings(max_examples=100, deadline=None)
@given(small_facets, st.lists(st.integers(0, 8), max_size=5))
def test_has_face_matches_oracle_faces(facet_lists, simplex):
    K = SimplicialComplex(facet_lists)
    faces = {f for by_dim in enumerate_faces(facet_lists).values() for f in by_dim}
    assert K.has_face(simplex) == (not simplex or tuple(sorted(set(simplex))) in faces)
    assert not K.has_face(["a"])


@st.composite
def nested_facet_lists(draw):
    """Non-pure facet lists with nested faces and reordered repeats."""
    base = draw(
        st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
            max_size=8,
        )
    )
    out = list(base)
    for f in base:
        if draw(st.booleans()):
            out.append(f[::-1])  # the same facet in another vertex order
        if len(f) > 1 and draw(st.booleans()):
            size = draw(st.integers(1, len(f) - 1))
            out.append(draw(st.permutations(f))[:size])  # a proper face
    return draw(st.permutations(out))


@st.composite
def pure_facet_lists(draw):
    """Pure facet lists with repeats in permuted vertex order."""
    size = draw(st.integers(1, 4))
    facet = st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True)
    base = draw(st.lists(facet, max_size=8))
    out = base + [draw(st.permutations(f)) for f in base if draw(st.booleans())]
    return draw(st.permutations(out))


@settings(max_examples=300, deadline=None)
@given(st.one_of(nested_facet_lists(), pure_facet_lists()))
@example([])
def test_facets_match_oracle_maximal_faces(facet_lists):
    assert SimplicialComplex(facet_lists).facets == maximal_faces(facet_lists)


CLOSED = list(itertools.combinations(range(5), 4))  # the boundary of a 4-simplex


@settings(max_examples=200, deadline=None)
@given(st.one_of(nested_facet_lists(), pure_facet_lists()), st.sets(st.integers(0, 7)), st.booleans())
@example([[0, 1, 2], [1, 2, 3], [3, 4]], set(), False)
@example([[0, 1, 2], [1, 2, 3], [3, 4]], set(range(5)), False)
@example(CLOSED, {0, 1, 2}, True)
def test_induced_subcomplex_matches_oracle(facet_lists, w, of_boundary):
    K = SimplicialComplex(facet_lists)
    if of_boundary:
        assume(is_pure(K))
        K = boundary_complex(K)
    W = w & set(K.vertices)
    pieces = [kept for kept in ([v for v in f if v in W] for f in K.facets) if kept]
    sub, public = induced_subcomplex(K, W), SimplicialComplex(pieces)
    faces = enumerate_faces(pieces)
    for k in range(-1, K.dim + 2):
        assert sub._faces(k) == faces.get(k, [()] if k == -1 else [])
    assert sub.facets == maximal_faces(pieces)
    assert (sub.dim, sub.vertices, sub.is_empty) == (public.dim, public.vertices, public.is_empty)
    assert sub == public and hash(sub) == hash(public)


@settings(max_examples=200, deadline=None)
@given(nested_facet_lists(), st.integers(0, 7))
def test_vertex_link_matches_public_constructor(facet_lists, v):
    K = SimplicialComplex(facet_lists)
    assume(v in K.vertices)
    link = vertex_link(K, v)
    public = SimplicialComplex([[u for u in f if u != v] for f in facet_lists if v in f and len(f) > 1])
    assert link == public
    assert (link.dim, link.vertices, link.is_empty) == (public.dim, public.vertices, public.is_empty)


TORUS_CONE = [list(f) + [7] for f in generate("torus7").complex.facets]
TWO_SPHERES_AT_A_VERTEX = [f for a in ((0, 1, 2, 3), (0, 4, 5, 6)) for f in itertools.combinations(a, 3)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(nested_facet_lists(), pure_facet_lists()))
@example(TORUS_CONE)
@example(TWO_SPHERES_AT_A_VERTEX)
@example([[0, 1, 2], [0, 1, 3], [0, 1, 4]])  # three triangles on one edge
@example([[0, 1, 2], [3, 4, 5]])
@example([[0], [1], [2]])
def test_pseudomanifold_report_matches_oracle(facet_lists):
    assert pseudomanifold_report(SimplicialComplex(facet_lists)).as_dict() == oracle_report(facet_lists)
