"""Command-line surface: instance files, checker commands, JSON reports.

Instance file format (JSON):

    {"name": "optional", "facets": [["a","b","c"], ...],
     "classes": [["a"], ["b"], ["c","d"]]}        # classes optional

Files ending in .txt are read as one facet per line (whitespace-separated
labels, '#' comments); they carry no coloring.

Exit codes: 0 = hypotheses hold / informational success, 1 = some
hypothesis fails or proxy-fails, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .chromatic import (
    Coloring,
    CheckReport,
    THEOREM_IDS,
    _jsonable,
    alexander_duality_audit,
    check_theorem,
    coloring_errors,
    rainbow_simplices,
    validate_coloring,
)
from .complexes import (
    SimplicialComplex,
    connected_components,
    euler_characteristic,
    pseudomanifold_report,
)
from .generators import generate, sperner_instance
from .homology import QQ, parse_field, reduced_betti, relative_betti
from .subdivision import barycentric_subdivision

REPORT_SCHEMA_VERSION = 1

# A bound on the faces of a facet list: the sum of 2^|f| - 1 over the facets.
# Input files over this are refused before the complex is built, and so are
# `sd` outputs before subdividing, so each can be read back.  250 000 facets
# of 5 vertices are admitted.
MAX_FACES = 250_000 * 31


class InputError(Exception):
    pass


def _read_txt(path):
    facets = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            labels = line.split()
            if len(set(labels)) != len(labels):
                raise InputError(f"{path}:{lineno}: duplicate vertex in facet")
            facets.append(labels)
    return {"facets": facets}


def _read_instance(path):
    if str(path).endswith(".txt"):
        return _read_txt(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON at line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    if not isinstance(data, dict) or "facets" not in data:
        raise InputError(f"{path}: expected an object with a 'facets' list")
    return data


def _str_labels(path, kind, rows):
    """The str() of the labels of facets or classes, none repeated inside a row;
    exact types, so true is not a number."""
    if not {str, int, float}.issuperset({type(v) for r in rows for v in r}):
        bad = next(r for r in rows if not {str, int, float}.issuperset(map(type, r)))
        raise InputError(f"{path}: {kind} {bad!r} has a label that is not a string or a number")
    labelled = [list(map(str, r)) for r in rows]
    for r in labelled:
        if len(set(r)) != len(r):
            raise InputError(f"{path}: duplicate vertex inside {kind} {r!r}")
    return labelled


def parse_instance(path):
    """Load and validate an instance file; returns (complex, coloring or None)."""
    data = _read_instance(path)
    facets = data["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InputError(f"{path}: 'facets' must be a list of lists of labels")
    if sum(2 ** len(f) - 1 for f in facets) > MAX_FACES:
        raise InputError(f"{path}: the facets may span more than the limit of {MAX_FACES} faces")
    K = SimplicialComplex(_str_labels(path, "facet", facets))
    coloring = None
    if data.get("classes") is not None:
        classes = data["classes"]
        if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
            raise InputError(f"{path}: 'classes' must be a list of lists of labels")
        try:
            coloring = Coloring(_str_labels(path, "class", classes))
        except ValueError as exc:
            raise InputError(f"{path}: {exc}")
        errors = coloring_errors(K, coloring)
        if errors:
            raise InputError(f"{path}: " + "; ".join(errors))
        for warning in validate_coloring(K, coloring):
            import logging  # here, not at the top: it adds ≈10 ms to every start-up

            logging.getLogger("rainbowcheck").warning(warning)
    return K, coloring


def _rows_text(key, rows, line):
    """Yield the top-level `key` and its value `rows`, a list of lists of labels, in
    json.dump's indent=2 layout, 4096 rows a piece; `line(v)` is label v's line."""
    for i in range(0, len(rows), 4096):
        text = ("[" + ",".join(map(line, r)) + "\n    ]" if r else "[]" for r in rows[i : i + 4096])
        yield (",\n    " if i else f'  "{key}": [\n    ') + ",\n    ".join(text)
    yield "\n  ]" if rows else f'  "{key}": []'


def _instance_text(K, coloring=None, name=None):
    """Yield an instance file in pieces that join to exactly what json.dump(...,
    indent=2, sort_keys=True) and a newline write, each label encoded once:
    facets in K's label order, class members in the order of their str()."""
    line = {v: "\n      " + json.dumps(str(v)) for v in K.vertices}.__getitem__
    yield "{\n"
    if coloring is not None:
        yield from _rows_text("classes", [sorted(c, key=str) for c in coloring.classes], line)
        yield ",\n"
    yield from _rows_text("facets", sorted(K.facets), line)
    if name:
        yield ',\n  "name": ' + json.dumps(name)
    yield "\n}\n"


def _write_json(pieces, path):
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as fh:
            fh.writelines(pieces)


def _betti_line(betti, max_degree, label):
    cells = " ".join(f"b[{k}]={betti[k]}" for k in range(-1, max_degree + 1))
    return f"{label}: {cells}"


def _need_coloring(coloring, path):
    if coloring is None:
        raise InputError(f"{path}: this command needs a 'classes' coloring in the instance file")
    return coloring


def _cmd_gen(args):
    named = generate(args.name)
    _write_json(_instance_text(named.complex, name=named.name), args.out)
    return 0


def _cmd_info(args):
    K, coloring = parse_instance(args.path)
    counts = " ".join(f"f{k}={K.face_count(k)}" for k in range(K.dim + 1))
    print(f"dim: {K.dim}")
    print(f"face counts: {counts if counts else '(empty complex)'}")
    print(f"euler characteristic: {euler_characteristic(K)}")
    print(f"connected components: {len(connected_components(K))}")
    report = pseudomanifold_report(K)
    print("pseudomanifold report: " + ", ".join(f"{k}={v}" for k, v in report.as_dict().items()))
    if coloring is not None:
        sizes = [len(c) for c in coloring.classes]
        print(f"coloring: {len(sizes)} classes, sizes {sizes}")
    return 0


def _cmd_betti(args):
    K, _ = parse_instance(args.path)
    F = parse_field(args.field)
    print(_betti_line(reduced_betti(K, F), K.dim, f"reduced Betti over {F}"))
    return 0


def _cmd_relbetti(args):
    K, _ = parse_instance(args.path)
    L, _ = parse_instance(args.sub)
    F = parse_field(args.field)
    try:
        betti = relative_betti(K, L, F)
    except ValueError as exc:
        raise InputError(str(exc))
    print(_betti_line(betti, K.dim, f"relative Betti over {F}"))
    return 0


def _cmd_sd(args):
    if args.times < 0:
        raise InputError(f"--times must be a non-negative integer, got {args.times}")
    K, _ = parse_instance(args.path)
    # Each subdivision turns a facet of k vertices into k! facets of k
    # vertices.  A factor of 2 or more to a power above the limit's bit
    # length is over the limit, so the power is capped there.
    power = min(args.times, MAX_FACES.bit_length())
    if sum(math.factorial(len(f)) ** power * (2 ** len(f) - 1) for f in K.facets) > MAX_FACES:
        raise InputError(f"sd --times {args.times} may make more than the limit of {MAX_FACES} faces")
    for _ in range(args.times):
        if K.is_empty:
            raise InputError("cannot subdivide the empty complex")
        K = barycentric_subdivision(K).complex
    _write_json(_instance_text(K), args.out)
    return 0


def _report_json(theorem, fields, reports, overall, elapsed):
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "theorem": theorem,
        "fields": [str(f) for f in fields],
        "overall_hold": overall,
        "reports": [r.as_dict() for r in reports],
        "elapsed_seconds": round(elapsed, 3),
    }
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    yield "\n"


def _print_report(report: CheckReport):
    for v in report.verdicts:
        if v.status in ("fail", "proxy-fail"):
            print(f"  {v.id}: {v.status}  {json.dumps(_jsonable(v.detail), sort_keys=True)}")
    print(f"  all_hold: {report.all_hold}  consistent: {report.consistent}")
    if report.rainbow_witnesses:
        names = ", ".join("".join(map(str, w)) for w in report.rainbow_witnesses)
        print(f"  rainbow witnesses ({len(report.rainbow_witnesses)}): {names}")
    else:
        print("  rainbow witnesses: none")


def _cmd_check(args):
    K, coloring = parse_instance(args.path)
    coloring = _need_coloring(coloring, args.path)
    fields = [parse_field(f) for f in args.field] or [QQ]
    # One sweep; Meshulam's, over each distinct field once, is split per field.
    per_field = args.theorem == "meshulam"
    swept = dict.fromkeys(fields) if per_field else fields
    start = time.monotonic()
    try:
        report = check_theorem(K, coloring, args.theorem, swept)
    except ValueError as exc:
        raise InputError(str(exc))
    elapsed = time.monotonic() - start
    overall = report.all_hold
    reports = [report.over(F) for F in fields] if per_field else [report]
    for F, r in zip(fields, reports):
        print(f"theorem {args.theorem}" + (f" over {F}" if per_field else ""))
        _print_report(r)
    if args.json:
        _write_json(_report_json(args.theorem, fields, reports, overall, elapsed), args.json)
    print(f"overall: {'HOLD' if overall else 'NOT ESTABLISHED'}")
    return 0 if overall else 1


def _cmd_rainbow(args):
    K, coloring = parse_instance(args.path)
    coloring = _need_coloring(coloring, args.path)
    witnesses = rainbow_simplices(K, coloring)
    print(f"rainbow simplices: {len(witnesses)}")
    for w in witnesses:
        print("  " + " ".join(map(str, w)))
    return 0


def _cmd_audit_duality(args):
    K, coloring = parse_instance(args.path)
    coloring = _need_coloring(coloring, args.path)
    F = parse_field(args.field)
    try:
        audit = alexander_duality_audit(K, coloring, F)
    except ValueError as exc:
        raise InputError(str(exc))
    for entry in audit.entries:
        mark = "=" if entry["equal"] else "!="
        print(
            f"  S={entry['S']}: b[{entry['lhs_degree']}](K_S)={entry['lhs']} "
            f"{mark} b[{entry['rhs_degree']}](K_Sc)={entry['rhs']}"
        )
    print(f"duality audit over {F}: {'pass' if audit.passed else 'fail'}")
    return 0 if audit.passed else 1


def _cmd_sperner(args):
    try:
        K, coloring = sperner_instance(args.dim, args.depth)
    except ValueError as exc:
        raise InputError(str(exc))
    witnesses = rainbow_simplices(K, coloring)
    print(f"sperner instance dim={args.dim} depth={args.depth}: {len(witnesses)} rainbow simplices")
    if args.out:
        _write_json(_instance_text(K, coloring, name=f"sperner({args.dim},{args.depth})"), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rainbowcheck",
        description="Exact homology and rainbow-simplex condition checking for colored complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a catalog complex as an instance file")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", help="summary of an instance file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("betti", help="reduced Betti numbers")
    p.add_argument("path")
    p.add_argument("--field", required=True)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("relbetti", help="relative Betti numbers of a pair")
    p.add_argument("path")
    p.add_argument("--sub", required=True)
    p.add_argument("--field", required=True)
    p.set_defaults(func=_cmd_relbetti)

    p = sub.add_parser("sd", help="barycentric subdivision")
    p.add_argument("path")
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sd)

    p = sub.add_parser("check", help="run a theorem checker")
    p.add_argument("path")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--field", action="append", default=[])
    p.add_argument("--json", help="write a machine-readable report")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rainbow", help="enumerate rainbow simplices")
    p.add_argument("path")
    p.set_defaults(func=_cmd_rainbow)

    p = sub.add_parser("audit-duality", help="Alexander-duality audit on a homology sphere")
    p.add_argument("path")
    p.add_argument("--field", required=True)
    p.set_defaults(func=_cmd_audit_duality)

    p = sub.add_parser("sperner", help="generate a Sperner instance and count rainbows")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sperner)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
