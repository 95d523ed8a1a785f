"""Checks of rainbowcheck's job outputs that share no code with the package.

Each check takes one job's result (exit code and captured stdout) and the
JSON file the job wrote, if any, and returns a list of problems; an empty
list means the output passed. Expected values never come from the program:
they come from the mathematics (known Betti numbers, Sperner's lemma,
Alexander duality, universal coefficients, the face counts of a barycentric
subdivision), from this file's own face enumeration of the instance, and,
on small subcomplexes, from the dense oracle in tests/oracle.py.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import random
import re
from collections import Counter

ORACLE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "oracle.py")

# Largest dense boundary matrix (rows x columns) the oracle is run on.
ORACLE_MAX_CELLS = 1500
# Subcomplexes per report compared with the oracle.
ORACLE_SAMPLE = 2

_oracle = None


def oracle():
    """tests/oracle.py, loaded by path: a dense-elimination homology that
    shares no code with the package."""
    global _oracle
    if _oracle is None:
        spec = importlib.util.spec_from_file_location("rainbowcheck_test_oracle", ORACLE_PATH)
        _oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_oracle)
    return _oracle


# --- faces and Euler characteristics ---------------------------------------


def face_vector(facets):
    """[f_0, f_1, ...]: the number of distinct k-faces of the complex the
    facet lists generate."""
    ids = {}
    by_size = {}
    for facet in facets:
        f = tuple(sorted(ids.setdefault(v, len(ids)) for v in facet))
        for size in range(1, len(f) + 1):
            by_size.setdefault(size, set()).update(itertools.combinations(f, size))
    return [len(by_size.get(k, ())) for k in range(1, max(by_size, default=0) + 1)]


def reduced_euler(fvec):
    return -1 + sum((-1) ** k * n for k, n in enumerate(fvec))


def _stirling2(n, k):
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def subdivided_face_vector(fvec):
    """Face vector of the barycentric subdivision: a j-face of sd(K) is a
    chain of j+1 nested faces of K, and the chains topped by one i-face are
    the ordered partitions of its i+1 vertices into j+1 blocks."""
    return [
        sum(fvec[i] * math.factorial(j + 1) * _stirling2(i + 1, j + 1) for i in range(j, len(fvec)))
        for j in range(len(fvec))
    ]


def induced_facets(facets, vertices):
    """Facet lists of the full subcomplex on `vertices` (not reduced to maximal ones)."""
    return [kept for kept in ([v for v in f if v in vertices] for f in facets) if kept]


def rainbow_faces(facets, classes):
    """Faces with exactly one vertex in each class, as frozensets."""
    colour = {v: i for i, cls in enumerate(classes) for v in cls}
    return {
        frozenset(f)
        for f in facets
        if len(f) == len(classes) and len({colour[v] for v in f}) == len(classes)
    }


# --- fields -----------------------------------------------------------------


def field_label(token):
    return "Q" if token == "q" else f"GF({token})"


def _oracle_p(label):
    return None if label == "Q" else int(label[3:-1])


def universal_coefficients(values):
    """values: key -> {field label: Betti number}. Over GF(p) a Betti number
    is at least the one over Q."""
    problems = []
    for key, by_field in values.items():
        if "Q" not in by_field:
            continue
        for label, value in by_field.items():
            if value < by_field["Q"]:
                problems.append(f"{key}: {label} gives {value}, below Q's {by_field['Q']}")
    return problems


def oracle_sample(values, subcomplex_of, degree_value, sample_seed):
    """Compare a seeded sample of small subcomplexes with the oracle.

    values: key -> {field label: number}; subcomplex_of(key) -> facet lists;
    degree_value(key, betti dict) -> the number the program reports;
    sample_seed seeds the choice."""
    small = []
    for key in sorted(values, key=repr):
        facets = subcomplex_of(key)
        fvec = face_vector(facets)
        cells = max((a * b for a, b in zip(fvec, fvec[1:])), default=0)
        if cells <= ORACLE_MAX_CELLS:
            small.append((key, facets))
    problems = []
    for key, facets in random.Random(sample_seed).sample(small, min(ORACLE_SAMPLE, len(small))):
        for label, value in values[key].items():
            expected = degree_value(key, oracle().dense_reduced_betti(facets, _oracle_p(label)))
            if value != expected:
                problems.append(f"{key} over {label}: program {value}, oracle {expected}")
    return problems


# --- betti ------------------------------------------------------------------

_BETTI_RE = re.compile(r"^reduced Betti over (\S+): (.*)$", re.M)
_CELL_RE = re.compile(r"b\[(-?\d+)\]=(\d+)")


def check_betti(result, output, *, facets, field, expected):
    """`betti` output: the known Betti numbers, and an alternating sum equal
    to the reduced Euler characteristic of the instance's own faces."""
    problems = []
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[-200:]}"]
    m = _BETTI_RE.search(result["stdout"])
    if not m:
        return ["no Betti line in the output"]
    if m.group(1) != field_label(field):
        problems.append(f"field {m.group(1)}, asked for {field_label(field)}")
    betti = {int(k): int(v) for k, v in _CELL_RE.findall(m.group(2))}
    fvec = face_vector(facets)
    if sorted(betti) != list(range(-1, len(fvec))):
        problems.append(f"degrees {sorted(betti)}, expected -1..{len(fvec) - 1}")
    nonzero = {k: v for k, v in betti.items() if v}
    if nonzero != expected:
        problems.append(f"Betti numbers {nonzero}, expected {expected}")
    alternating = sum(-v if k % 2 else v for k, v in betti.items())
    if alternating != reduced_euler(fvec):
        problems.append(f"alternating sum {alternating}, reduced Euler characteristic {reduced_euler(fvec)}")
    return problems


# --- check reports ----------------------------------------------------------


def _report_fatal(result, report):
    """Problems that leave nothing else to check: an error exit, no report."""
    if result["code"] not in (0, 1):
        return [f"exit code {result['code']}: {result['stderr'].strip()[-200:]}"]
    if report is None:
        return ["no JSON report written"]
    return []


def _report_common(result, report, facets, classes):
    """Exit code against overall_hold, consistency, and the witnesses
    against this file's own enumeration."""
    problems = []
    if result["code"] != (0 if report["overall_hold"] else 1):
        problems.append(f"exit code {result['code']} with overall_hold {report['overall_hold']}")
    own = rainbow_faces(facets, classes)
    for r in report["reports"]:
        if not r["consistent"]:
            problems.append(f"{r['theorem_id']}: report not consistent")
        witnesses = [frozenset(w) for w in r["rainbow_witnesses"]]
        if len(set(witnesses)) != len(witnesses) or set(witnesses) != own:
            problems.append(f"witnesses {len(witnesses)}, own enumeration {len(own)}")
    return problems


def _collect(report, prefix, key_of, fields):
    """key -> {field label: detail['betti']} over the verdicts whose id
    starts with prefix; a problem if some field misses a key."""
    values = {}
    for r in report["reports"]:
        for v in r["verdicts"]:
            if v["id"].startswith(prefix):
                values.setdefault(key_of(v["detail"]), {})[v["detail"]["field"]] = v["detail"]["betti"]
    labels = {field_label(f) for f in fields}
    missing = [k for k, by_field in values.items() if set(by_field) != labels]
    return values, [f"{k}: fields {sorted(values[k])}" for k in missing]


def _subsets(n_classes, sizes):
    return {S for size in sizes for S in itertools.combinations(range(n_classes), size)}


def _class_union(classes, S):
    return set().union(*(classes[i] for i in S))


def check_meshulam(result, report, *, facets, classes, fields, sample_seed):
    """Meshulam report over several fields."""
    fatal = _report_fatal(result, report)
    if fatal:
        return fatal
    problems = _report_common(result, report, facets, classes)
    values, missing = _collect(report, "vanishing", lambda d: (tuple(d["S"]), d["degree"]), fields)
    problems += missing
    m = len(classes)
    if {S for S, _ in values} != _subsets(m, range(1, m + 1)):
        problems.append(f"{len(values)} subsets checked, expected {2 ** m - 1}")
    problems += universal_coefficients(values)

    def degree_value(key, betti):
        S, d = key
        return betti.get(-1, 0) + betti.get(0, 0) if len(S) == 1 else betti.get(d, 0)

    problems += oracle_sample(
        values, lambda key: induced_facets(facets, _class_union(classes, key[0])), degree_value, sample_seed
    )
    return problems


def check_sperner(result, report, *, facets, classes, fields, sample_seed):
    """Meshulam report on a Sperner instance, whose number of rainbow
    witnesses Sperner's lemma makes odd."""
    problems = check_meshulam(result, report, facets=facets, classes=classes, fields=fields, sample_seed=sample_seed)
    for r in (report or {}).get("reports", []):
        if len(r["rainbow_witnesses"]) % 2 != 1:
            problems.append(f"{len(r['rainbow_witnesses'])} witnesses: Sperner's lemma makes it odd")
    return problems


def check_surface(result, report, *, facets, classes, fields, sample_seed):
    """Surface report on a coloured closed surface."""
    fatal = _report_fatal(result, report)
    if fatal:
        return fatal
    problems = _report_common(result, report, facets, classes)
    verdicts = {v["id"]: v for v in report["reports"][0]["verdicts"]}
    manifold = verdicts["surface_manifold"]["detail"]["pseudomanifold"]
    if not all(manifold.values()):
        problems.append(f"pseudomanifold report of a closed surface: {manifold}")
    nonempty = all(classes)
    if (verdicts["classes_nonempty"]["status"] == "pass") != nonempty:
        problems.append(f"classes_nonempty {verdicts['classes_nonempty']['status']}")
    values, missing = _collect(report, "relative_h1", lambda d: d["i"], fields)
    problems += missing
    if set(values) != set(range(len(classes))):
        problems.append(f"relative_h1 for classes {sorted(values)}")
    problems += universal_coefficients(values)
    problems += oracle_sample(
        values, lambda i: induced_facets(facets, set(classes[i])), lambda i, b: b.get(1, 0), sample_seed
    )
    return problems


def check_sphere(result, report, *, facets, classes, fields, sample_seed):
    """Sphere report on a coloured homology n-sphere."""
    fatal = _report_fatal(result, report)
    if fatal:
        return fatal
    problems = _report_common(result, report, facets, classes)
    n = len(classes) - 1
    for v in report["reports"][0]["verdicts"]:
        if v["id"] == "homology_sphere" and v["detail"]["betti"] != {str(n): 1}:
            problems.append(f"homology_sphere over {v['detail']['field']}: {v['detail']['betti']}")
    values, missing = _collect(report, "vanishing", lambda d: (tuple(d["S"]), d["degree"]), fields)
    problems += missing
    if {S for S, _ in values} != _subsets(n + 1, range(1, n)):
        problems.append(f"{len(values)} subsets checked")
    if any(d != len(S) for S, d in values):
        problems.append("vanishing degree differs from |S|")
    problems += universal_coefficients(values)
    problems += oracle_sample(
        values,
        lambda key: induced_facets(facets, _class_union(classes, key[0])),
        lambda key, b: b.get(key[1], 0),
        sample_seed,
    )
    return problems


_AUDIT_RE = re.compile(
    r"S=\[([\d, ]*)\]: b\[(-?\d+)\]\(K_S\)=(\d+) (!?=) b\[(-?\d+)\]\(K_Sc\)=(\d+)"
)


def check_audit(result, output, *, facets, classes, field, sample_seed):
    """audit-duality on a homology n-sphere: by Alexander duality every
    entry is equal and the audit passes."""
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[-200:]}"]
    problems = []
    n = len(classes) - 1
    if result["stdout"].strip().splitlines()[-1:] != [f"duality audit over {field_label(field)}: pass"]:
        problems.append("audit does not end with a pass")
    values = {}
    for s, ld, lhs, _mark, rd, rhs in _AUDIT_RE.findall(result["stdout"]):
        S = tuple(int(i) for i in s.split(",")) if s else ()
        comp = tuple(i for i in range(n + 1) if i not in S)
        if int(ld) != len(S) - 2 or int(rd) != n + 1 - len(S):
            problems.append(f"S={S}: degrees {ld}, {rd}")
        if int(lhs) != int(rhs):
            problems.append(f"S={S}: b[{ld}](K_S)={lhs} but b[{rd}](K_Sc)={rhs}")
        values[(S, int(ld))] = {field_label(field): int(lhs)}
        values[(comp, int(rd))] = {field_label(field): int(rhs)}
    if {S for S, d in values if d == len(S) - 2} != _subsets(n + 1, range(1, n + 1)):
        problems.append(f"{len(values)} audit entries, expected every S with 1 <= |S| <= {n}")
    problems += oracle_sample(
        values,
        lambda key: induced_facets(facets, _class_union(classes, key[0])),
        lambda key, b: b.get(key[1], 0),
        sample_seed,
    )
    return problems


# --- subdivision ------------------------------------------------------------


def _chain_test():
    """A test of whether a facet's labels form a chain of strictly nested
    multisets of base labels, memoized over the labels and label pairs."""
    tokens = {}
    nested = {}

    def multiset(label):
        if label not in tokens:
            tokens[label] = Counter(label.split("|"))
        return tokens[label]

    def is_chain(labels):
        chain = sorted(labels, key=lambda label: label.count("|"))
        for pair in zip(chain, chain[1:]):
            if pair not in nested:
                nested[pair] = multiset(pair[0]) < multiset(pair[1])
            if not nested[pair]:
                return False
        return True

    return is_chain


def check_subdivision(result, output, *, in_facets, times):
    """`sd --times k` output: facet count (d+1)!^k per input facet, one
    vertex per nonempty face of the level below, every facet a chain of
    nested label multisets, and the input's Euler characteristic."""
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[-200:]}"]
    if output is None:
        return ["no output file written"]
    problems = []
    out_facets = output["facets"]
    d = max(len(f) for f in in_facets) - 1
    expected = len(in_facets) * math.factorial(d + 1) ** times
    if len(out_facets) != expected or len({frozenset(f) for f in out_facets}) != expected:
        problems.append(f"{len(out_facets)} facets, expected {expected}")
    in_fvec = face_vector(in_facets)
    below = in_fvec
    for _ in range(times - 1):
        below = subdivided_face_vector(below)
    vertices = {v for f in out_facets for v in f}
    if len(vertices) != sum(below):
        problems.append(f"{len(vertices)} vertices, expected {sum(below)} faces of the level below")
    is_chain = _chain_test()
    if not all(len(f) == d + 1 and is_chain(f) for f in out_facets):
        problems.append("some facet is not a chain of nested label sets")
    chi_out, chi_in = reduced_euler(face_vector(out_facets)) + 1, reduced_euler(in_fvec) + 1
    if chi_out != chi_in:
        problems.append(f"Euler characteristic {chi_out}, input's {chi_in}")
    return problems
