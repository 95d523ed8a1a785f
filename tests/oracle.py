"""Independent dense-elimination homology oracle for the test suite.

Deliberately shares no code with the package: its own maximal-face
selection, barycentric subdivision and face enumeration from facet
lists, dense boundary matrices, a plain row-reduction rank (Fractions
over the rationals, modular integers over GF(p)) and a sparse column
product.
"""

from fractions import Fraction
from itertools import combinations, permutations


def maximal_faces(facets):
    """Set of sorted tuples: the raw facet lists that no other listed face
    strictly contains, by a plain pairwise subset check."""
    faces = {tuple(sorted(set(facet))) for facet in facets}
    return {f for f in faces if not any(set(f) < set(g) for g in faces)}


def barycentric_facets(facets):
    """Set of sorted tuples: the facets of the barycentric subdivision of
    the complex generated by the raw facet lists.  Each permutation of a
    maximal face gives the chain of its prefixes, and a face is named by
    its sorted vertices joined with '|'."""
    chains = set()
    for facet in maximal_faces(facets):
        for perm in permutations(facet):
            prefixes = (sorted(perm[: i + 1]) for i in range(len(perm)))
            chains.add(tuple(sorted("|".join(str(v) for v in p) for p in prefixes)))
    return chains


def enumerate_faces(facets):
    """dict: dimension -> sorted list of faces, from raw facet lists."""
    by_dim = {}
    seen = set()
    for facet in facets:
        f = tuple(sorted(set(facet)))
        for size in range(1, len(f) + 1):
            for sub in combinations(f, size):
                if sub not in seen:
                    seen.add(sub)
                    by_dim.setdefault(size - 1, []).append(sub)
    for faces in by_dim.values():
        faces.sort()
    return by_dim


def dense_rank(matrix, p=None):
    """Row-reduction rank; exact Fractions if p is None, else mod p."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    if p is None:
        m = [[Fraction(x) for x in row] for row in m]
    else:
        m = [[x % p for x in row] for row in m]
    rank = 0
    n_rows, n_cols = len(m), len(m[0])
    pivot_row = 0
    for col in range(n_cols):
        sel = None
        for r in range(pivot_row, n_rows):
            if m[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        inv = (
            Fraction(1) / m[pivot_row][col]
            if p is None
            else pow(m[pivot_row][col], p - 2, p)
        )
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, n_cols):
                    if p is None:
                        m[r][c] -= factor * m[pivot_row][c]
                    else:
                        m[r][c] = (m[r][c] - factor * m[pivot_row][c]) % p
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def column_product(left, right, p=None):
    """Columns of the product left * right, each matrix a list of sparse
    columns {row: value}; entries mod p unless p is None, zeros dropped."""
    product = []
    for col in right:
        acc = {}
        for k, v in col.items():
            for r, w in left[k].items():
                acc[r] = acc.get(r, 0) + v * w
        if p is not None:
            acc = {r: x % p for r, x in acc.items()}
        product.append({r: x for r, x in acc.items() if x})
    return product


def dense_boundary(lower, upper):
    """Dense matrix of the boundary map from the faces in `upper` to the
    faces in `lower`, signs (-1)^i on deleting the i-th vertex."""
    index = {f: i for i, f in enumerate(lower)}
    matrix = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            matrix[index[sub]][j] = -1 if i % 2 else 1
    return matrix


def dense_reduced_betti(facets, p=None):
    """Reduced Betti numbers as a dict degree -> int, degrees -1..dim."""
    by_dim = enumerate_faces(facets)
    if not by_dim:
        return {-1: 1}
    top = max(by_dim)
    ranks = {0: 1}  # augmentation row of ones over a nonempty vertex set
    for k in range(1, top + 1):
        ranks[k] = dense_rank(dense_boundary(by_dim[k - 1], by_dim[k]), p)
    ranks[top + 1] = 0
    betti = {-1: 1 - ranks[0]}
    for k in range(top + 1):
        betti[k] = len(by_dim[k]) - ranks[k] - ranks[k + 1]
    return betti


def dense_relative_betti(facets_K, facets_L, p=None):
    """Betti numbers of the pair (K, L) as a dict degree -> int, degrees
    0..dim K: the boundary of K restricted to the quotient bases (faces of
    K not in L), unreduced."""
    by_dim = enumerate_faces(facets_K)
    l_faces = {f for faces in enumerate_faces(facets_L).values() for f in faces}
    if not by_dim:
        return {}
    top = max(by_dim)
    keep = {k: [i for i, f in enumerate(by_dim[k]) if f not in l_faces] for k in by_dim}
    ranks = {0: 0, top + 1: 0}  # no boundary out of relative 0-chains
    for k in range(1, top + 1):
        full = dense_boundary(by_dim[k - 1], by_dim[k])
        quotient = [[full[i][j] for j in keep[k]] for i in keep[k - 1]]
        ranks[k] = dense_rank(quotient, p)
    return {k: len(keep[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)}


def pseudomanifold_report(facets):
    """The pseudomanifold report of the complex generated by the raw facet
    lists, as a dict in the package's key order, by brute force: ridge
    degrees from pairs of top facets, each vertex link from a scan of all
    facets ranked over GF(2), and strong connectivity by a search over top
    facets that share a ridge."""
    facets = sorted(maximal_faces(facets))
    if not facets:
        return dict(is_pure=True, ridge_degrees_ok=True, is_closed=False,
                    link_betti_ok=True, strongly_connected=False)
    n = max(len(f) for f in facets) - 1
    tops = [f for f in facets if len(f) == n + 1]
    pure = len(tops) == len(facets)

    degrees = [
        1 + sum(1 for g in tops if g != f and set(f) & set(g) == set(r))
        for f in tops
        for r in combinations(f, n)
    ]
    link_ok = True
    for v in sorted({v for f in facets for v in f}):
        link = [[u for u in f if u != v] for f in facets if v in f and len(f) > 1]
        betti = dense_reduced_betti(link, p=2)
        values = [betti.get(k, 0) for k in range(-1, n)]
        sphere = values == [1 if k == n - 1 else 0 for k in range(-1, n)]
        if not (sphere or not any(values)):  # neither a sphere nor a ball
            link_ok = False
    seen, queue = {tops[0]}, [tops[0]]
    while queue:
        f = queue.pop(0)
        for g in tops:
            if g not in seen and len(set(f) & set(g)) == n:
                seen.add(g)
                queue.append(g)
    return dict(
        is_pure=pure,
        ridge_degrees_ok=all(d <= 2 for d in degrees),
        is_closed=pure and n >= 1 and all(d == 2 for d in degrees),
        link_betti_ok=link_ok,
        strongly_connected=pure and len(seen) == len(facets),
    )
