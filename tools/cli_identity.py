"""Compare the bytes of every ``ramcov`` subcommand between two source trees.

Usage::

    python3 tools/cli_identity.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding a ``ramcov`` package, such as the
``src`` directory of a checkout.  One child process per tree imports that
package and calls ``ramcov.cli.main`` in-process on every run; the runs are
the same for both trees.  The corpus is read from the checkout this script
lives in:

* every document in ``demos/covers/``, ``demos/covers/malformed/`` and
  ``tests/fixtures/documents/``;
* 30 ``grid`` and 30 ``cyclic`` documents generated by
  ``perfbench/workloads.py`` (seed 1);
* 2 documents with many distinct crossing shapes, about one for each of
  their 1 296 crossings: each the Z/n cover of P1 x P1, n = 10 007, that
  ``ramcov.golden.ruled_cyclic_cover`` of this checkout's ``src`` builds
  on 36 fibres and 36 sections, with unit weights summing to 0 mod n
  drawn with a fixed seed;
* 4 documents that each repeat one sheet list or point list and retype one
  value of the copy the loader reads last, so that the copy compares equal
  to the list it repeats while one of its values has another type: in
  ``grid(6)`` (``perfbench/workloads.py``, seed 1) a point list's ``0`` as
  ``false``, a point list's ``1`` as ``1.0`` and a sheet list's ``1`` as
  ``true``; in ``repeated_points.json`` a sheet list's ``2`` as ``2.0``;
* 2 documents in which every crossing shares one faulty shape: ``grid(6)``
  (``perfbench/workloads.py``, seed 1) with its one point list's lattice
  replaced by one of e1 = 1, which breaks V3, or by the raw local type
  n = 4, q = 2, which is invalid;
* 5 documents that test the loader's duplicate-key check, each ``grid(6)``
  (``perfbench/workloads.py``, seed 1) with one edit: a crossing record
  that repeats a key; the point record the loader reads last, in a point
  list that every crossing repeats, repeating a key; a component record
  that repeats a key, with the text's last brace dropped, so that a syntax
  error follows the duplicate; every component id ``X`` renamed ``X:1``;
  and those ids with a sheet record that repeats a key;
* 16 documents that the loader's exact-record paths and the reference
  check's quick return do not clear, each ``grid(6)``
  (``perfbench/workloads.py``, seed 1) with one edit: its first component
  record with each of ``COMPONENT_FAULTS`` (an id that is an int, empty or
  not printable; a genus that is a bool, a float or negative; a negative
  ``fiber_deg``; a field as a string or null; a key added or dropped; a
  negative and a float in one record); its first crossing with a bool
  index or an equal pair; and a point on the second sheet of its
  component, once in range and once not;
* 100 faulty documents, drawn with a fixed seed: each is a shipped one
  that loads (from the folders above, less ``bad_parse.json`` and the
  ``two_*`` documents) with one to three faults.  Every other document
  draws only from ``FINDING_FAULTS``: a raw local type that fails V5, a V1
  break or a V3 break, which leave it loadable.  The rest take each of
  ``LOAD_FAULTS`` in turn, and up to two more faults of either kind: a
  dangling ``points_above`` or ``ramification`` key, an unknown
  component, an out-of-range sheet index, a wrong declared count, and the
  ``FORM_FAULTS``, which the loader refuses by path: a leaf retyped to a
  string, bool, float, list or null; a record key dropped or an unknown
  one added; a ``pair`` as a string or with three ids; a lattice with
  three rows or three coordinates, or ``local`` as a string;
  ``ramification`` or ``points_above`` as a list; and the ``points_above``
  key ``"01"``.  The faults in the form go last, as the others read it.
  They compare which error a run names and in which order its findings
  come.

Each document runs through ``invariants`` as text and ``--json``, each with
and without ``--strict`` and with and without ``--ev 1 2 0 2 3``: eight
runs.  The other subcommands run on fixed arguments: ``verify`` at the five
sizes of the ``verify`` workload, at ``--max-n 400 --max-index 150``,
whose chains reach 399 entries, with ``--max-n 1``, and with ``--max-n``
or ``--max-index`` one past the enumeration cap; ``hj`` on a du Val,
a non-du-Val, an invalid and an over-cap type; ``local`` on a product, a
singular and a degenerate lattice; ``bs-bound`` with and without ``h``.
Last, each ``demos/0*.py`` and ``demos/covers/make_kummer.py 3 2`` runs as
a script in a fresh interpreter with ``PYTHONPATH`` set to the tree: the
scripts are those of the checkout that holds the tree (``demos/`` beside
it), or this checkout's when there is none.  With the shipped documents
and demos of this checkout that is 1 706 ``ramcov`` runs over 211
documents, 32 of them on the retyped documents, 16 on the shared faulty
shapes, 40 on the duplicate-key documents and 128 on the fallback
documents, and 5 demo runs: 1 711 runs.

The trees run with ``RAMCOV_MAX_ENUM`` dropped from the environment, so a
caller's shell cannot give an older tree, which reads it, another cap.

The script names every run whose exit code, stdout or stderr differ between
the trees, shows both sides of the first, and exits 1; otherwise it exits 0.
Its last line counts the runs per subcommand.  It uses the standard library
only.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FOLDERS = (
    ROOT / "demos" / "covers",
    ROOT / "demos" / "covers" / "malformed",
    ROOT / "tests" / "fixtures" / "documents",
)
WORKLOAD_DOCUMENTS = 30
SEED = 1
FLAG_SETS = [
    [*json_flag, *strict, *ev]
    for json_flag in ([], ["--json"])
    for strict in ([], ["--strict"])
    for ev in ([], ["--ev", "1", "2", "0", "2", "3"])
]
FIXED_RUNS = [
    ["verify", "--max-n", "400", "--max-index", "150"],  # chains of up to 399 entries
    ["verify", "--max-n", "1"],
    ["verify", "--max-n", "1001"],  # past the enumeration cap
    ["verify", "--max-n", "2", "--max-index", "1001"],  # past the enumeration cap
    ["hj", "5", "4"],  # du Val
    ["hj", "12", "5"],  # not du Val
    ["hj", "4", "2"],  # n and q not coprime
    ["hj", "1000002", "1000001"],  # a chain past the cap
    ["local", "2", "0", "0", "3"],  # a product
    ["local", "2", "0", "1", "1"],  # a node
    ["local", "1", "0", "2", "0"],  # degenerate: index 0
    ["bs-bound", "2", "3"],
    ["bs-bound", "2", "3", "5/2"],
]
# Each demo script, by its path in a checkout, with its arguments.
DEMO_RUNS = [
    *([f"demos/{path.name}"] for path in sorted((ROOT / "demos").glob("0*.py"))),
    ["demos/covers/make_kummer.py", "3", "2"],
]
LABELS = ("exit code", "stdout", "stderr")
FAULTY_DOCUMENTS = 100
FAULT_SEED = 13
SHAPES_DOCUMENTS = 2
SHAPES_K = 36
SHAPES_N = 10_007
SHAPES_SEED = 5
SMALL_GRID_K = 6
# One value of a repeated list, retyped: the source document, the kind of
# list, the route to the value within the list's first record, and the value.
RETYPED = (
    ("grid", "points_above", ("j",), False),
    ("grid", "points_above", ("local", 1, 0), 1.0),
    ("grid", "ramification", ("f",), True),
    ("repeated_points", "ramification", ("f",), 2.0),
)
# The local data put in grid(SMALL_GRID_K)'s one point list, which every crossing shares.
SHARED_FAULTS = (
    [[1, 0], [0, 2]],  # e1 = 1 under sheets with e = 2: V3
    {"n": 4, "q": 2, "m1": 1, "m2": 1},  # n and q not coprime: V5 and an error
)

# Edits to grid(SMALL_GRID_K)'s first component record, each refused by the
# loader; DROP marks a key taken out.
DROP = object()
COMPONENT_FAULTS = (
    {"id": 7},
    {"id": ""},
    {"id": "F\u00010"},
    {"genus": True},
    {"genus": 0.5},
    {"genus": -1},
    {"fiber_deg": -1},
    {"self_int": "0"},
    {"KX_dot": None},
    {"extra": 0},
    {"genus": DROP},
    {"genus": -1, "fiber_deg": 1.0},  # a float and a negative: the float is named
)

# Runs every argv read from stdin through ramcov.cli.main in one process and
# writes [exit code, stdout, stderr] per run; an exception that escapes main
# is recorded in place of the exit code.
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from ramcov.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _workloads():
    """The ``perfbench/workloads.py`` module."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def workload_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write the ``grid`` and ``cyclic`` documents into ``folder``."""
    generators = _workloads().WORKLOADS
    paths = []
    for name in ("grid", "cyclic"):
        for i in range(WORKLOAD_DOCUMENTS):
            path = folder / f"{name}_{i}.json"
            path.write_text(generators[name].request(SEED, i).document, encoding="utf-8")
            paths.append(path)
    return paths


def _unit_weights(rnd: random.Random, prefix: str) -> dict:
    """``SHAPES_K`` random units mod the prime ``SHAPES_N`` summing to 0, named ``prefix0``, ..."""
    while True:
        weights = [rnd.randrange(1, SHAPES_N) for _ in range(SHAPES_K - 1)]
        if last := -sum(weights) % SHAPES_N:
            return {f"{prefix}{k}": w for k, w in enumerate([*weights, last])}


def many_shapes_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write ``SHAPES_DOCUMENTS`` covers, each with a shape per crossing, into ``folder``."""
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's builder, whichever trees are compared
    from ramcov.golden import ruled_cyclic_cover
    from ramcov.report import dumps_document

    rnd = random.Random(SHAPES_SEED)
    paths = []
    for i in range(SHAPES_DOCUMENTS):
        fibres, sections = (_unit_weights(rnd, prefix) for prefix in "FS")
        path = folder / f"many_shapes_{i}.json"
        text = dumps_document(*ruled_cyclic_cover(0, SHAPES_N, fibres, sections))
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def retyped_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write the ``RETYPED`` documents into ``folder``."""
    sources = {
        "grid": _workloads().grid_document(SMALL_GRID_K, random.Random(SEED)),
        "repeated_points": (FOLDERS[2] / "repeated_points.json").read_text(encoding="utf-8"),
    }
    paths = []
    for i, (source, kind, route, value) in enumerate(RETYPED):
        doc = json.loads(sources[source])
        lists = doc["cover"][kind]
        # The copy read last: point lists in document order, sheet lists by id.
        record = lists[list(lists)[-1] if kind == "points_above" else max(lists)][0]
        *steps, last = route
        for step in steps:
            record = record[step]
        assert record[last] == value and type(record[last]) is not type(value)
        record[last] = value
        path = folder / f"retyped_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def shared_fault_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write one ``grid`` document per ``SHARED_FAULTS`` value into ``folder``."""
    source = _workloads().grid_document(SMALL_GRID_K, random.Random(SEED))
    paths = []
    for i, local in enumerate(SHARED_FAULTS):
        doc = json.loads(source)
        for points in doc["cover"]["points_above"].values():
            points[0]["local"] = local
        path = folder / f"shared_fault_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def fallback_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write the ``grid`` documents that the loader's exact-record paths do not clear.

    Each is ``grid(SMALL_GRID_K)`` with one edit: its first component record
    with each of ``COMPONENT_FAULTS``; its first crossing with a bool index,
    or with its first id twice; and a point on the second sheet of a
    component, on a crossing of the one component given two sheets and on
    one of a component with one.
    """
    source = _workloads().grid_document(SMALL_GRID_K, random.Random(SEED))
    docs = []
    for edit in COMPONENT_FAULTS:
        doc = json.loads(source)
        record = {**doc["base"]["components"][0], **edit}
        doc["base"]["components"][0] = {k: v for k, v in record.items() if v is not DROP}
        docs.append(doc)
    for field in ("index", "pair"):
        doc = json.loads(source)
        crossing = doc["base"]["crossings"][0]
        if field == "index":
            crossing["index"] = True
        else:
            crossing["pair"][1] = crossing["pair"][0]
        docs.append(doc)
    for on_two_sheets in (True, False):
        doc = json.loads(source)
        first = doc["base"]["crossings"][0]["pair"][0]
        doc["cover"]["ramification"][first] *= 2
        pair = next(x for x in doc["base"]["crossings"] if (x["pair"][0] == first) == on_two_sheets)
        point = doc["cover"]["points_above"][str(pair["index"])][0]
        doc["cover"]["points_above"][str(pair["index"])] = [{**point, "j": 1}]
        docs.append(doc)
    paths = []
    for i, doc in enumerate(docs):
        path = folder / f"fallback_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def _repeat_first_member(doc: dict, route: tuple) -> str:
    """``doc``'s compact text with the object at ``route`` repeating its first member last."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in route:
        node = node[step]
    key, value = next(iter(node.items()))
    node["@repeat@"] = 0
    text = json.dumps(doc, separators=(",", ":"))
    return text.replace('"@repeat@":0', f"{json.dumps(key)}:{json.dumps(value)}", 1)


def _colon_ids(doc: dict) -> dict:
    """``doc`` with every component id ``X`` renamed ``X:1`` wherever it is written."""
    text = json.dumps(doc)
    for component in doc["base"]["components"]:
        text = text.replace(json.dumps(component["id"]), json.dumps(component["id"] + ":1"))
    return json.loads(text)


def decode_edge_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write the five duplicate-key and colon ``grid`` documents into ``folder``."""
    doc = json.loads(_workloads().grid_document(SMALL_GRID_K, random.Random(SEED)))
    colons = _colon_ids(doc)
    last_point = list(doc["cover"]["points_above"])[-1]
    last_sheets = max(colons["cover"]["ramification"])
    texts = [
        _repeat_first_member(doc, ("base", "crossings", 0)),
        _repeat_first_member(doc, ("cover", "points_above", last_point, 0)),
        _repeat_first_member(doc, ("base", "components", 0))[:-1],
        json.dumps(colons, separators=(",", ":")),
        _repeat_first_member(colons, ("cover", "ramification", last_sheets, 0)),
    ]
    paths = []
    for i, text in enumerate(texts):
        path = folder / f"decode_edge_{i}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def _sheet_lists(doc: dict) -> list:
    return [sheets for sheets in doc["cover"]["ramification"].values() if sheets]


def _points(doc: dict) -> list:
    return [pt for pts in doc["cover"]["points_above"].values() for pt in pts]


def _dangling_point_key(doc: dict, rnd: random.Random) -> None:
    top = max((x["index"] for x in doc["base"]["crossings"]), default=0)
    doc["cover"]["points_above"][str(top + rnd.randint(1, 5))] = [
        {"j": 0, "jp": 0, "local": [[1, 0], [0, 1]]}
    ]


def _dangling_ramification_key(doc: dict, rnd: random.Random) -> None:
    doc["cover"]["ramification"][f"X{rnd.randint(1, 9)}"] = [{"e": 1, "f": doc["cover"]["degree"]}]


def _unknown_component(doc: dict, rnd: random.Random) -> None:
    rnd.choice(doc["base"]["crossings"])["pair"][rnd.randint(0, 1)] = f"X{rnd.randint(1, 9)}"


def _sheet_index_out_of_range(doc: dict, rnd: random.Random) -> None:
    pairs = {str(x["index"]): x["pair"] for x in doc["base"]["crossings"]}
    points_above = doc["cover"]["points_above"]
    key = rnd.choice(sorted(k for k, pts in points_above.items() if pts and k in pairs))
    field = rnd.choice(["j", "jp"])
    sheets = doc["cover"]["ramification"].get(pairs[key][field == "jp"], [])
    rnd.choice(points_above[key])[field] = len(sheets) + rnd.randint(0, 3)


def _invalid_local_type(doc: dict, rnd: random.Random) -> None:
    rnd.choice(_points(doc))["local"] = rnd.choice([
        {"n": 4, "q": 2, "m1": 1, "m2": 1},  # n and q not coprime
        {"n": 3, "q": 0, "m1": 1, "m2": 2},  # q = 0 with n > 1, and not coprime
        {"n": 2, "q": 1, "m1": 0, "m2": 1},  # m1 below 1
        {"n": 5, "q": 7, "m1": 1, "m2": 1},  # q past n
    ])


def _v1_break(doc: dict, rnd: random.Random) -> None:
    rnd.choice(rnd.choice(_sheet_lists(doc)))["f"] += 1


def _v3_break(doc: dict, rnd: random.Random) -> None:
    # The same e*f, so V1 still holds where it held, on another e.
    sheet = rnd.choice(rnd.choice(_sheet_lists(doc)))
    e, f = sheet["e"], sheet["f"]
    sheet["e"], sheet["f"] = (1, e * f) if e > 1 else (f, 1) if f > 1 else (2, 1)


def _bad_declared_count(doc: dict, rnd: random.Random) -> None:
    crossings = doc["base"]["crossings"]
    pair = rnd.choice(crossings)["pair"]
    count = sum(sorted(x["pair"]) == sorted(pair) for x in crossings) + rnd.randint(1, 2)
    doc["base"].setdefault("pair_intersections", []).append({"pair": list(pair), "count": count})


def _entries(node):
    """Every ``(container, key)`` below ``node``: each member of each dict and list."""
    members = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, value in list(members):
        yield node, key
        yield from _entries(value)


def _form_fault(hits, new):
    """The fault that puts ``new(value, rnd)`` in place of one value that ``hits(key, value)``.

    The value is drawn among all such in the document, wherever they are, so
    the fault applies to a document whose form other faults broke; where
    there is none, it does nothing.
    """
    def fault(doc: dict, rnd: random.Random) -> None:
        slots = [(node, key) for node, key in _entries(doc) if hits(key, node[key])]
        if slots:
            node, key = rnd.choice(slots)
            node[key] = new(node[key], rnd)

    return fault


def _rekeyed(record: dict, rnd: random.Random) -> dict:
    """``record`` less one of its keys, or with an unknown one."""
    record = dict(record)
    if record and rnd.randint(0, 1):
        del record[rnd.choice(sorted(record))]
    else:
        record["extra"] = 0
    return record


# Faults in the document's form, which the loader refuses.
FORM_FAULTS = (
    # a leaf retyped to a string, bool, float, list or null
    _form_fault(
        lambda key, value: type(value) in (int, str),
        lambda value, rnd: rnd.choice(
            [new for new in ("1", True, 1.5, [], None) if type(new) is not type(value)]
        ),
    ),
    # a record, or a table keyed by id, with a key dropped or an unknown one added
    _form_fault(lambda key, value: type(value) is dict, _rekeyed),
    # a pair as a string, or with three ids
    _form_fault(lambda key, value: key == "pair", lambda pair, rnd: rnd.choice(["D1", ["D1"] * 3])),
    # a lattice with three rows or three coordinates, or local data as a string
    _form_fault(lambda key, value: key == "local", lambda local, rnd: rnd.choice([
        [[1, 0], [0, 1], [1, 1]], [[1, 0, 0], [0, 1]], [[1, 0], [0, 1, 0]], "1/2(1, 1)",
    ])),
    # the ramification or points_above table as a list
    _form_fault(
        lambda key, value: key in ("ramification", "points_above") and type(value) is dict,
        lambda table, rnd: list(table.values()),
    ),
    # a points_above key in non-canonical decimal form
    _form_fault(
        lambda key, value: key == "points_above" and type(value) is dict,
        lambda table, rnd: {"01": [], **table},
    ),
)
FINDING_FAULTS = (_invalid_local_type, _v1_break, _v3_break)
LOAD_FAULTS = (
    _dangling_point_key,
    _dangling_ramification_key,
    _unknown_component,
    _sheet_index_out_of_range,
    _bad_declared_count,
    *FORM_FAULTS,
)


def faulty_documents(shipped: list[pathlib.Path], folder: pathlib.Path) -> list[pathlib.Path]:
    """Write ``FAULTY_DOCUMENTS`` shipped documents with one to three faults each into ``folder``."""
    originals = [
        json.loads(path.read_text(encoding="utf-8")) for path in shipped
        if path.name != "bad_parse.json" and not path.name.startswith("two_")
    ]
    rnd = random.Random(FAULT_SEED)
    paths = []
    for i in range(FAULTY_DOCUMENTS):
        doc = json.loads(json.dumps(rnd.choice(originals)))
        if i % 2 == 0:
            drawn = [rnd.choice(FINDING_FAULTS) for _ in range(rnd.randint(1, 3))]
        else:  # each load fault in turn, and up to two of either kind
            drawn = [LOAD_FAULTS[i // 2 % len(LOAD_FAULTS)]]
            drawn += [rnd.choice(FINDING_FAULTS + LOAD_FAULTS) for _ in range(rnd.randint(0, 2))]
        # The others read the document's form, so the faults in it go last.
        for fault in sorted(drawn, key=FORM_FAULTS.__contains__):
            fault(doc, rnd)
        path = folder / f"faulty_{i}.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        paths.append(path)
    return paths


def run_tree(src: str, runs: list[list[str]]) -> list:
    """The [exit code, stdout, stderr] of every run, with ``ramcov`` imported from ``src``."""
    env = {name: value for name, value in os.environ.items() if name != "RAMCOV_MAX_ENUM"}
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, src],
        env=env,
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{src}: the runner failed:\n{done.stderr}")
    return json.loads(done.stdout)


def run_demos(src: str) -> list:
    """The [exit code, stdout, stderr] of every ``DEMO_RUNS`` script, with ``ramcov`` from ``src``."""
    tree = pathlib.Path(src).resolve()
    checkout = tree.parent if (tree.parent / "demos").is_dir() else ROOT
    env = {**os.environ, "PYTHONPATH": str(tree)}
    results = []
    for script, *args in DEMO_RUNS:
        done = subprocess.run(
            [sys.executable, "-B", str(checkout / script), *args],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        results.append([done.returncode, done.stdout, done.stderr])
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_identity.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        shipped = [p for folder in FOLDERS for p in sorted(folder.glob("*.json"))]
        documents = shipped + workload_documents(pathlib.Path(tmp))
        documents += faulty_documents(shipped, pathlib.Path(tmp))
        documents += many_shapes_documents(pathlib.Path(tmp))
        documents += retyped_documents(pathlib.Path(tmp))
        documents += shared_fault_documents(pathlib.Path(tmp))
        documents += decode_edge_documents(pathlib.Path(tmp))
        documents += fallback_documents(pathlib.Path(tmp))
        runs = [["invariants", str(doc), *flags] for doc in documents for flags in FLAG_SETS]
        runs += [
            ["verify", "--max-n", str(max_n), "--max-index", str(max_index)]
            for max_n, max_index in _workloads().VERIFY_SIZES
        ]
        runs += FIXED_RUNS
        parent, change = run_tree(parent_src, runs), run_tree(change_src, runs)
    parent += run_demos(parent_src)
    change += run_demos(change_src)
    commands = [["ramcov", *argv_] for argv_ in runs] + [["python3", *run] for run in DEMO_RUNS]
    differing = 0
    for command, before, after in zip(commands, parent, change):
        labels = [label for label, a, b in zip(LABELS, before, after) if a != b]
        if not labels:
            continue
        print(f"differs in {', '.join(labels)}: {' '.join(command)}")
        if not differing:
            for label, a, b in zip(LABELS, before, after):
                if a != b:
                    print(f"--- {parent_src} {label}\n{a}\n+++ {change_src} {label}\n{b}")
        differing += 1
    counts = collections.Counter(argv_[0] for argv_ in runs)
    counts["demos"] = len(DEMO_RUNS)
    per_command = ", ".join(f"{command} {count}" for command, count in counts.items())
    verdict = f"{differing} differ" if differing else "identical exit code, stdout and stderr"
    print(f"{len(commands)} runs ({per_command}; {len(documents)} documents): {verdict}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
