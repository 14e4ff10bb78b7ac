"""The CSV of every task: header, cells that parse back exactly to the
payload's values (for a margin scan, to the samples of ``scan_margin``, and
for a direction scan, to the per-anchor table of ``scan_directions``, which
the payloads do not repeat), and bytes that depend only on the spec and its
seed."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinement_lab import cli
from confinement_lab.cli import main
from confinement_lab.criterion import scan_directions, scan_margin
from confinement_lab.domains import domain_from_json
from confinement_lab.fields import field_from_json

UNIT_FIELD = {"kind": "constant", "two_form": [[0.0, 1.0], [-1.0, 0.0]]}
CTREX = {"kind": "disk_counterexample", "alpha": 0.5}
DISK = {"kind": "disk2d", "radius": 1.0}
BOX = {"kind": "polytope", "functionals": [
    {"normal": [1.0, 0.0], "offset": -2.0}, {"normal": [-1.0, 0.0], "offset": -2.0},
    {"normal": [0.0, 1.0], "offset": -2.0}, {"normal": [0.0, -1.0], "offset": -2.0}]}


def _lattice(task, params, field=UNIT_FIELD):
    return {"task": task, "params": params, "field": field, "domain": DISK}


def _keyed(key, *names):
    """The payload's rows under key, each as its values under names."""
    return lambda p: [[r[n] for n in names] for r in p[key]]


SCAN = dict(_lattice("scan-criterion", {"anchors": 4}, CTREX), seed=3)
DIRECTIONS = dict(_lattice("direction-scan", {"anchors": 4}, CTREX), seed=3)


def _scan_samples(_payload):
    """The samples of ``scan_margin`` on SCAN, one row per sample, read one
    by one from the structured array."""
    report = scan_margin(field_from_json(SCAN["field"]), domain_from_json(SCAN["domain"]),
                         n_anchors=SCAN["params"]["anchors"], seed=SCAN["seed"])
    return [[int(s["anchor"]), float(s["depth"]), float(s["distance"]), float(s["norm_sp"]),
             float(s["margin"]), [float(v) for v in s["point"]]] for s in report.samples]


def _direction_rows(_payload):
    """The per-anchor oscillations of ``scan_directions`` on DIRECTIONS."""
    result = scan_directions(field_from_json(DIRECTIONS["field"]),
                             domain_from_json(DIRECTIONS["domain"]),
                             n_anchors=DIRECTIONS["params"]["anchors"], seed=DIRECTIONS["seed"])
    return list(map(list, enumerate(result["per_anchor"])))


# task -> (spec, CSV header, payload -> the rows the CSV must hold, or None
# where the payload keeps no rows)
TASKS = {
    "scan-criterion": (SCAN, "anchor,depth,distance,norm_sp,margin,point", _scan_samples),
    "direction-scan": (DIRECTIONS, "anchor,oscillation", _direction_rows),
    "eig": (
        _lattice("eig", {"h": 0.2, "k": 2}),
        "index,eigenvalue",
        lambda p: list(map(list, enumerate(p["eigenvalues"])))),
    "hur-probe": (
        _lattice("hur-probe", {"deltas": [0.2]}, CTREX),
        "delta,h,n_sites,lambda_min_field,lambda_min_hardy,hardy_scaled",
        _keyed("rows", "delta", "h", "n_sites", "lambda_min_field", "lambda_min_hardy",
               "hardy_scaled")),
    "classify-radial": (
        {"task": "classify-radial",
         "params": {"problem": "monopole", "charge": 1, "method": "solve"}},
        "endpoint,kind,c,s_minus,s_plus",
        lambda p: sorted([float(ep), r["kind"], r["c"], r["s_minus"], r["s_plus"]]
                         for ep, r in p["endpoints"].items())),
    "sweep-alpha": (
        {"task": "sweep-alpha", "params": {"alphas": [0.5, 0.9]}},
        "alpha,c,s_minus,s_plus,kind",
        _keyed("rows", "alpha", "c", "s_minus", "s_plus", "kind")),
    "monopole-verdict": (
        {"task": "monopole-verdict", "params": {"charges": [1, -2]}},
        "charge,esa_indicial,esa_solve,agree", None),
    "spherical-table": (
        {"task": "spherical-table", "params": {"m": 1, "k_max": 5}},
        "k,numerator,denominator,lambda,multiplicity",
        _keyed("levels", "k", "numerator", "denominator", "value", "multiplicity")),
    "landau-check": (
        {"task": "landau-check", "params": {"side": 4.0, "h": 0.5, "k": 2}},
        "index,eigenvalue",
        lambda p: list(map(list, enumerate(p["eigenvalues"])))),
    "lemma-slack": (
        {"task": "lemma-slack", "params": {"h": 0.4, "K": 0.0884431530, "n_random": 3},
         "field": UNIT_FIELD, "domain": BOX, "seed": 7},
        "trial,h,slack,form,paired,weighted_norm_sq", None),
}

LITERAL = {
    "monopole-verdict": "charge,esa_indicial,esa_solve,agree\n"
                        "1,false,false,true\n"
                        "-2,true,true,true\n",
    "spherical-table": "k,numerator,denominator,lambda,multiplicity\n"
                       "1,1,2,0.5,2\n"
                       "3,7,2,3.5,4\n"
                       "5,17,2,8.5,6\n",
}


def _run(outdir, spec, seed=None):
    """(CSV text, payload) of one run of spec written to outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "spec.json"
    path.write_text(json.dumps(dict(spec, schema=1, output="x")))
    argv = ["run", str(path), "--out", str(outdir)]
    assert main(argv + (["--seed", str(seed)] if seed is not None else [])) == 0
    report = json.loads((outdir / "x.report.json").read_text())
    return (outdir / "x.csv").read_text(), report["payload"]


def _parses_to(cell, value):
    """Whether a CSV cell reads back exactly as the payload's JSON value."""
    if value is None:
        return cell == ""
    if isinstance(value, list):
        parts = cell.split(";")
        return len(parts) == len(value) and all(map(_parses_to, parts, value))
    if isinstance(value, str):
        return cell == value
    return float(cell) == value and (not isinstance(value, int) or cell == str(value))


@pytest.mark.parametrize("task", sorted(TASKS))
def test_csv_of_every_task(tmp_path, task):
    spec, header, rows_of = TASKS[task]
    text, payload = _run(tmp_path, spec)
    lines = text.split("\n")
    assert lines[0] == header and lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert all(len(row) == len(lines[0].split(",")) for row in cells)
    if task in LITERAL:
        assert text == LITERAL[task]
    if rows_of is not None:
        want = rows_of(payload)
        assert len(cells) == len(want) > 0
        for row, values in zip(cells, want):
            assert all(map(_parses_to, row, values)), (row, values)
    if task == "lemma-slack":
        assert len(cells) == payload["n_trials"]
        assert min(float(row[2]) for row in cells) == payload["min_slack"]


@given(seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=8, deadline=None)
def test_repeated_seed_repeats_the_csv_bytes(seed):
    for task in ("direction-scan", "lemma-slack"):
        spec = TASKS[task][0]
        with tempfile.TemporaryDirectory() as tmp:
            first, _ = _run(Path(tmp) / "a", spec, seed)
            second, _ = _run(Path(tmp) / "b", spec, seed)
        assert first == second, task


@pytest.mark.parametrize("value,cell", [
    (0.1, "0.10000000000000001"),
    (2.0, "2"),
    (float("inf"), "inf"),
    (complex(0.5, 0.0), "0.5"),
    (complex(0.5, -0.25), "0.5-0.25i"),
    (complex(0.5, 0.25), "0.5+0.25i"),
    (None, ""),
    (3, "3"),
    ("LimitPoint", "LimitPoint"),
    ([0.1, 0.0], "0.10000000000000001;0"),
])
def test_cell_rules(value, cell):
    assert cli._cell(value) == cell


def test_json_hook_writes_complex_as_float_or_pair():
    data = {"real": complex(0.5, 0.0), "pair": complex(0.5, 0.25)}
    assert json.loads(json.dumps(data, default=cli._json_complex)) == {"real": 0.5,
                                                                       "pair": [0.5, 0.25]}
    with pytest.raises(TypeError):
        json.dumps({1, 2}, default=cli._json_complex)
