import json
import os
import re

import pytest

from confinement_lab import cli
from confinement_lab.cli import main

UNIT_FIELD = {"kind": "constant", "two_form": [[0.0, 1.0], [-1.0, 0.0]]}
DISK = {"kind": "disk2d", "radius": 1.0}
BOX = {
    "kind": "polytope",
    "functionals": [
        {"normal": [1.0, 0.0], "offset": -2.0},
        {"normal": [-1.0, 0.0], "offset": -2.0},
        {"normal": [0.0, 1.0], "offset": -2.0},
        {"normal": [0.0, -1.0], "offset": -2.0},
    ],
}
FORM_CONSTANT = 0.0884431530


def write_spec(tmp_path, spec, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run(tmp_path, spec, *extra):
    spec_path = write_spec(tmp_path, spec)
    outdir = tmp_path / "out"
    rc = main(["run", spec_path, "--out", str(outdir), *extra])
    return rc, outdir


def test_validate_ok(tmp_path, capsys):
    spec = {
        "schema": 1,
        "task": "spherical-table",
        "params": {"m": 1, "k_max": 5},
        "output": "tbl",
    }
    rc = main(["validate", write_spec(tmp_path, spec)])
    assert rc == 0
    assert "spec OK" in capsys.readouterr().out


def test_run_spherical_table(tmp_path, capsys):
    spec = {
        "schema": 1,
        "task": "spherical-table",
        "params": {"m": 1, "k_max": 5},
        "output": "tbl",
    }
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    out = capsys.readouterr().out
    assert str(outdir / "tbl.report.json") in out

    report = json.loads((outdir / "tbl.report.json").read_text())
    assert report["schema"] == 3
    assert report["task"] == "spherical-table"
    assert report["payload"]["ground"]["value"] == 0.5
    assert report["payload"]["counting_check"] is True

    lines = (outdir / "tbl.csv").read_text().splitlines()
    assert lines[0] == "k,numerator,denominator,lambda,multiplicity"
    assert lines[1] == "1,1,2,0.5,2"


def test_malformed_spec_writes_nothing(tmp_path, capsys):
    spec = {
        "schema": 1,
        "task": "scan-criterion",
        "field": {"kind": "disk_counterexample", "alpha": -1.0},
        "params": {},
        "output": "scan",
    }
    rc, outdir = run(tmp_path, spec)
    assert rc == 2
    assert "alpha" in capsys.readouterr().err
    assert not outdir.exists() or not os.listdir(outdir)


def test_unknown_top_level_key(tmp_path):
    spec = {
        "schema": 1,
        "task": "spherical-table",
        "params": {"m": 1, "k_max": 5},
        "output": "tbl",
        "extra": 1,
    }
    rc, outdir = run(tmp_path, spec)
    assert rc == 2
    assert not outdir.exists() or not os.listdir(outdir)


def test_unknown_param_rejected(tmp_path, capsys):
    spec = {
        "schema": 1,
        "task": "spherical-table",
        "params": {"m": 1, "k_max": 5, "bogus": 3},
        "output": "tbl",
    }
    rc, _ = run(tmp_path, spec)
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o1")]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing, "--out", str(tmp_path / "o2")]) == 2


def test_output_name_rejected(tmp_path):
    spec = {
        "schema": 1,
        "task": "spherical-table",
        "params": {"m": 1, "k_max": 5},
        "output": "../escape",
    }
    rc, _ = run(tmp_path, spec)
    assert rc == 2


def test_sweep_alpha_flip_and_bisect(tmp_path):
    spec = {
        "schema": 1,
        "task": "sweep-alpha",
        "params": {"range": [0.8, 0.9], "step": 0.1, "bisect": True},
        "output": "sweep",
    }
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    report = json.loads((outdir / "sweep.report.json").read_text())
    kinds = {row["alpha"]: row["kind"] for row in report["payload"]["rows"]}
    assert kinds[0.8] == "LimitCircle"
    assert kinds[0.9] == "LimitPoint"
    assert abs(report["payload"]["threshold_estimate"] - 0.8660254) < 0.05


def test_sweep_alpha_wide_range_bisects_to_the_transition(tmp_path):
    spec = {
        "schema": 1,
        "task": "sweep-alpha",
        "params": {"range": [0.5, 9.0], "step": 8.5, "method": "solve", "bisect": True},
        "output": "sweep",
    }
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    report = json.loads((outdir / "sweep.report.json").read_text())
    kinds = {row["alpha"]: row["kind"] for row in report["payload"]["rows"]}
    assert kinds == {0.5: "LimitCircle", 9.0: "LimitPoint"}
    assert abs(report["payload"]["threshold_estimate"] - 0.8660254) < 0.05


def test_sweep_alpha_range_lands_on_the_grid():
    # Summing the step drifted: 9,999 alphas, the last 99.990000000014.
    ctx = {"alphas": None, "range": [0.01, 100.0], "step": 0.01}
    cli._expand_alphas(ctx)
    assert ctx["alphas"] == [k / 100 for k in range(1, 10001)]


def test_monopole_verdict_strong_charge_agrees(tmp_path):
    spec = {"schema": 1, "task": "monopole-verdict", "params": {"charges": [2, 140]},
            "output": "mono"}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    payload = json.loads((outdir / "mono.report.json").read_text())["payload"]
    assert [row["solve"] for row in payload["rows"]] == [True, True]
    assert payload["all_agree"] is True


RADIAL_CSV_HEADER = "endpoint,kind,c,s_minus,s_plus\n"
# The solve rows as the Chebyshev collocation writes them, keyed by the rows
# the earlier DOP853 integration wrote (c differs by 3.6e-11 and 3.4e-11
# relative).  The parametrized rows below are those DOP853 rows, kept as an
# oracle at rel 1e-9.
RADIAL_CSV_REPINNED = {
    "0,LimitCircle,0.50000344621109138,-0.36602739345305435,1.3660273934530545\n"
    "inf,LimitPoint,,,\n":
    "0,LimitCircle,0.50000344619289383,-0.36602739344254798,1.366027393442548\n"
    "inf,LimitPoint,,,\n",
    "1,LimitCircle,0.24997522692703877,-0.20708926376168291,1.207089263761683\n":
    "1,LimitCircle,0.24997522693370239,-0.20708926376639492,1.2070892637663948\n",
}


def _csv_cells(text):
    """Numeric cells as floats, the others as strings."""
    def cell(v):
        try:
            return float(v)
        except ValueError:
            return v
    return [cell(v) for line in text.splitlines() for v in line.split(",")]


@pytest.mark.parametrize("problem,method,csv", [
    ({"problem": "monopole", "charge": 1}, "indicial",
     "0,LimitCircle,0.50000000000000022,-0.36602540378443882,1.3660254037844388\n"
     "inf,LimitPoint,0.5,-0.3660254037844386,1.3660254037844386\n"),
    # The solver reports no exponents at the infinite end: empty cells.
    ({"problem": "monopole", "charge": 1}, "solve",
     "0,LimitCircle,0.50000344621109138,-0.36602739345305435,1.3660273934530545\n"
     "inf,LimitPoint,,,\n"),
    ({"problem": "disk_mode", "alpha": 0.5}, "solve",
     "1,LimitCircle,0.24997522692703877,-0.20708926376168291,1.207089263761683\n"),
])
def test_classify_radial_end_to_end(tmp_path, problem, method, csv):
    spec = {"schema": 1, "task": "classify-radial", "output": "radial",
            "params": dict(problem, method=method)}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    written = (outdir / "radial.csv").read_text()
    assert written == RADIAL_CSV_HEADER + RADIAL_CSV_REPINNED.get(csv, csv)
    assert _csv_cells(written) == pytest.approx(_csv_cells(RADIAL_CSV_HEADER + csv),
                                                rel=1e-9, abs=0.0)
    payload = json.loads((outdir / "radial.report.json").read_text())["payload"]
    # A limit-circle endpoint admits boundary conditions: not ESA.
    assert payload["esa"] is False
    assert payload["method"] == method


def test_lemma_slack_calibrates_K_when_omitted(tmp_path, monkeypatch):
    spec = {"schema": 1, "task": "lemma-slack", "field": UNIT_FIELD, "domain": BOX,
            "params": {"h": 0.4, "n_random": 1}, "output": "slack"}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    payload = json.loads((outdir / "slack.report.json").read_text())["payload"]
    # The eigensolves run at one BLAS thread: these bits hold at any pool size.
    assert payload["K"] == 0.08844315298992508
    assert payload["calibration"] == {
        "h": 0.4, "rates": {"1": 0.022792517621245983, "3": 0.04422157649496254}}
    # The polytope-slack check of ``reproduce`` passes this K, rounded to 8 digits.
    canned = []
    monkeypatch.setattr(cli, "_run_canned", lambda spec: canned.append(spec) or {
        "min_slack": 0.0, "n_trials": 0})
    cli.REPRODUCE["polytope-slack"].run({"min_slack": 0.0})
    assert canned[0]["task"] == "lemma-slack"
    assert canned[0]["params"]["K"] == round(payload["K"], 8)


def test_csv_byte_determinism_and_seed(tmp_path):
    spec = {
        "schema": 1,
        "task": "lemma-slack",
        "field": UNIT_FIELD,
        "domain": BOX,
        "params": {"h": 0.4, "K": FORM_CONSTANT, "n_random": 4},
        "seed": 7,
        "output": "slack",
    }
    spec_path = write_spec(tmp_path, spec)
    for d in ("a", "b"):
        assert main(["run", spec_path, "--out", str(tmp_path / d)]) == 0
    first = (tmp_path / "a" / "slack.csv").read_bytes()
    second = (tmp_path / "b" / "slack.csv").read_bytes()
    assert first == second

    assert main(["run", spec_path, "--out", str(tmp_path / "c"), "--seed", "99"]) == 0
    assert (tmp_path / "c" / "slack.csv").read_bytes() != first
    report = json.loads((tmp_path / "c" / "slack.report.json").read_text())
    assert report["spec"]["seed"] == 99


def test_dump_matrix(tmp_path):
    spec = {
        "schema": 1,
        "task": "eig",
        "field": UNIT_FIELD,
        "domain": DISK,
        "params": {"h": 0.2, "k": 2},
        "output": "eig",
    }
    rc, outdir = run(tmp_path, spec, "--dump-matrix")
    assert rc == 0
    mtx = (outdir / "eig.mtx").read_text()
    assert mtx.startswith("%%MatrixMarket")
    report = json.loads((outdir / "eig.report.json").read_text())
    eigs = report["payload"]["eigenvalues"]
    assert len(eigs) == 2
    assert eigs[0] <= eigs[1]


def test_dump_matrix_without_a_matrix_warns_in_the_report(tmp_path):
    spec = {"schema": 1, "task": "spherical-table", "params": {"m": 1, "k_max": 5},
            "output": "tbl"}
    rc, outdir = run(tmp_path, spec, "--dump-matrix")
    assert rc == 0
    assert sorted(os.listdir(outdir)) == ["tbl.csv", "tbl.report.json"]
    report = json.loads((outdir / "tbl.report.json").read_text())
    assert report["warnings"] == ["--dump-matrix: this task assembles no matrix"]


def test_landau_window_starts_at_the_lattice_landau_bottom(monkeypatch):
    from types import SimpleNamespace

    import scipy.sparse.linalg as spla

    from confinement_lab import cli, lattice

    counts = {"factors": 0, "solves": 0}
    splu = spla.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counts["solves"] += 1
            return self.lu.solve(rhs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def counting_splu(*args, **kwargs):
        counts["factors"] += 1
        return Factor(splu(*args, **kwargs))

    monkeypatch.setattr(lattice, "spla", SimpleNamespace(splu=counting_splu, norm=spla.norm))
    payload = cli.REPRODUCE["landau-window"].run({"lo": 0.9, "hi": 1.1})
    # From the zero shift the same box takes 4 factors and 49 solves.
    assert counts["factors"] == 1 and counts["solves"] <= 4
    assert f"{payload['lambda_1_over_b']:.6f}" == "0.992208"


def test_landau_check_warns_below_the_lattice_landau_bottom(tmp_path):
    spec = {"schema": 1, "task": "landau-check", "params": {"side": 20.0, "h": 1.0},
            "output": "coarse"}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    report = json.loads((outdir / "coarse.report.json").read_text())
    assert report["warnings"] == [
        "lambda_1/b = 0.874776 fell outside the window [0.9, 1.1]",
        "lambda_1/b = 0.874776 lies below the lattice Landau bottom 1 - b h^2/8 = 0.875: "
        "the lattice is too coarse for the Landau asymptotics",
    ]
    assert "Landau bottom" not in json.dumps(report["payload"])
    assert "Landau bottom" not in (outdir / "coarse.csv").read_text()
    fine = dict(spec, params={"side": 10.0, "h": 0.25}, output="fine")
    rc, outdir = run(tmp_path, fine)
    assert json.loads((outdir / "fine.report.json").read_text())["warnings"] == []


def test_scan_report_holds_the_summary_and_the_csv_the_samples(tmp_path):
    spec = {"schema": 1, "task": "scan-criterion", "params": {"anchors": 16}, "output": "scan",
            "field": {"kind": "nontoroidal", "domain": {"kind": "ball3d", "radius": 1.0}}}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    report_bytes = (outdir / "scan.report.json").read_bytes()
    csv_lines = (outdir / "scan.csv").read_text().splitlines()
    report = json.loads(report_bytes)
    assert sorted(report["payload"]) == [
        "direction_oscillation", "direction_regular", "eta_margin", "excluded", "kind",
        "liminf_estimate", "params", "theorem_basis", "verdict"]
    # The direction warning appears once, in the report's own list.
    assert report["warnings"] == ["margin clears the threshold but the direction oscillates"]
    assert len(csv_lines) == 1 + 16 * len(report["payload"]["params"]["depths"])
    assert len(report_bytes) < len((outdir / "scan.csv").read_bytes())


def test_direction_scan_report_holds_the_summary_and_the_csv_the_anchors(tmp_path):
    spec = {"schema": 1, "task": "direction-scan", "params": {"anchors": 8}, "output": "dirs",
            "field": {"kind": "disk_counterexample", "alpha": 0.5}, "domain": DISK}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    report = json.loads((outdir / "dirs.report.json").read_text())
    assert sorted(report["payload"]) == ["excluded", "max_oscillation", "params", "regular"]
    csv_lines = (outdir / "dirs.csv").read_text().splitlines()
    assert csv_lines[0] == "anchor,oscillation" and len(csv_lines) == 1 + 8
    assert max(float(line.split(",")[1]) for line in csv_lines[1:]) == report["payload"][
        "max_oscillation"]


def test_reproduce_negative_control(capsys):
    rc = main(["reproduce", "--thresholds", '{"spherical-ground": {"value": 0.75}}'])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL  spherical-ground" in out
    assert out.count("PASS") == 7


def test_reproduce_threshold_validation(capsys):
    assert main(["reproduce", "--thresholds", '{"bogus-check": {}}']) == 2
    assert main(["reproduce", "--thresholds", '{"spherical-ground": {"bogus": 1}}']) == 2
    err = capsys.readouterr().err
    assert "bogus-check" in err


@pytest.mark.parametrize("override,message", [
    ('{"landau-window": {"lo": "x"}}', "threshold 'lo' for 'landau-window' must be a number, got 'x'"),
    ('{"landau-window": {"hi": true}}', "threshold 'hi' for 'landau-window' must be a number, got True"),
    ('{"spherical-ground": {"k": "1"}}', "threshold 'k' for 'spherical-ground' must be an integer, got '1'"),
    ('{"spherical-ground": {"k": 1.0}}', "threshold 'k' for 'spherical-ground' must be an integer, got 1.0"),
    ('{"monopole-esa": {"esa_m1": 0}}', "threshold 'esa_m1' for 'monopole-esa' must be true or false, got 0"),
    ('{"toroidal-direction": {"verdict": null}}',
     "threshold 'verdict' for 'toroidal-direction' must be a string, got None"),
])
def test_reproduce_threshold_types(capsys, override, message):
    assert main(["reproduce", "--thresholds", override]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_reproduce_thresholds_from_file(tmp_path, capsys):
    override = {"spherical-ground": {"value": 0.75}, "landau-window": {"lo": 0.85}}
    path = tmp_path / "thresholds.json"
    path.write_text(json.dumps(override))
    outputs = []
    for arg in (str(path), json.dumps(override)):
        assert main(["reproduce", "--thresholds", arg]) == 1
        outputs.append(re.sub(r" \(\d+\.\ds\)$", "", capsys.readouterr().out, flags=re.M))
    assert outputs[0] == outputs[1]
    assert "FAIL  spherical-ground" in outputs[0]
    assert "in [0.85, 1.1]: True" in outputs[0]


@pytest.mark.parametrize("content,message", [
    (None, "error: cannot read thresholds file: "),
    ("{bad", "error: thresholds are not valid JSON: "),
    ("[1, 2]", "error: thresholds must be a JSON object\n"),
    ('{"landau-window": 3}', "error: thresholds for 'landau-window' must be an object\n"),
])
def test_reproduce_thresholds_file_rejected(tmp_path, capsys, content, message):
    path = tmp_path / "thresholds.json"
    if content is not None:
        path.write_text(content)
    assert main(["reproduce", "--thresholds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""


@pytest.mark.parametrize("arg", ["[1]", "  [1, 2]"])
def test_reproduce_inline_thresholds_not_an_object(capsys, arg):
    assert main(["reproduce", "--thresholds", arg]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: thresholds must be a JSON object\n"
    assert captured.out == ""


@pytest.mark.parametrize("lo,hi", [(1.2, 1.0), (1.0, 1.0)])
def test_reproduce_reversed_landau_window_exits_before_any_check(monkeypatch, capsys, lo, hi):
    from confinement_lab import cli

    ran = []
    monkeypatch.setattr(cli, "REPRODUCE", {
        name: check._replace(run=lambda t, name=name: ran.append(name))
        for name, check in cli.REPRODUCE.items()})
    override = json.dumps({"landau-window": {"lo": lo, "hi": hi}})
    assert main(["reproduce", "--thresholds", override]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 'window' must be [lo, hi] with lo < hi\n"
    assert captured.out == "" and ran == []


def test_reproduce_default_thresholds():
    from confinement_lab import cli

    defaults = {
        "polytope-slack": {"min_slack": 0.0},
        "toroidal-direction": {"verdict": "CONFINING_D2", "max_oscillation": 0.05},
        "ball-boundary-form": {"n_zeros": 2, "norm_lo": 1.95, "norm_hi": 2.05},
        "disk-threshold": {"circle_alpha": 0.8, "point_alpha": 0.9},
        "disk-ctrex-verdict": {"verdict": "BELOW_THRESHOLD", "liminf": 0.5,
                               "liminf_tol": 0.01},
        "monopole-esa": {"esa_m1": False, "esa_m2": True, "esa_m4": True},
        "spherical-ground": {"k": 1, "value": 0.5, "multiplicity": 2},
        "landau-window": {"lo": 0.9, "hi": 1.1},
    }
    ints = {"n_zeros", "k", "multiplicity"}
    loaded = cli._load_thresholds(None)
    assert loaded == defaults
    assert list(loaded) == list(defaults)
    for name, vals in loaded.items():
        for key, val in vals.items():
            want = (int if key in ints else bool if key.startswith("esa_m")
                    else str if key == "verdict" else float)
            assert type(val) is want, (name, key)


def test_reproduce_integer_threshold_reads_as_float():
    from confinement_lab import cli

    lo = cli._load_thresholds('{"landau-window": {"lo": 1}}')["landau-window"]["lo"]
    assert lo == 1.0 and type(lo) is float


def test_schema_version_enforced(tmp_path, capsys):
    # A spec copying the report's schema number (3) is still rejected.
    spec = {
        "schema": 3,
        "task": "spherical-table",
        "params": {"m": 1, "k_max": 5},
        "output": "tbl",
    }
    rc, _ = run(tmp_path, spec)
    assert rc == 2
    assert capsys.readouterr().err == 'error: spec needs "schema": 1\n'


def test_unknown_task(tmp_path):
    spec = {"schema": 1, "task": "no-such-task", "params": {}, "output": "x"}
    rc, _ = run(tmp_path, spec)
    assert rc == 2


def _spec(task, params=None, **entries):
    return {"schema": 1, "task": task, "params": params or {}, "output": "x", **entries}


# One single-fault spec per validation rule, with the exact stderr line.
MESSAGES = [
    ("int-type", _spec("spherical-table", {"m": 1.5, "k_max": 5}),
     "parameter 'm' must be an integer, got 1.5"),
    ("float-type", _spec("landau-check", {"b": "1"}), "parameter 'b' must be a number, got '1'"),
    ("bool-type", _spec("sweep-alpha", {"alphas": [0.5], "bisect": 1}),
     "parameter 'bisect' must be true or false, got 1"),
    ("choice", _spec("classify-radial", {"problem": "disk_mode", "alpha": 0.5, "method": "guess"}),
     "parameter 'method' must be one of ['indicial', 'solve'], got 'guess'"),
    ("choice-missing", _spec("classify-radial", {"alpha": 0.5}),
     "parameter 'problem' must be one of ['disk_mode', 'monopole'], got None"),
    ("choice-set",
     _spec("eig", {"h": 0.1, "quadrature": "simpson"}, field=UNIT_FIELD, domain=DISK),
     "parameter 'quadrature' must be one of ['gauss3', 'midpoint'], got 'simpson'"),
    ("gt-float",
     _spec("landau-check", {"h": 0}), "parameter 'h' must be greater than 0.0, got 0.0"),
    ("gt-bound", _spec("hur-probe", {"h_divisor": 2}, field=UNIT_FIELD, domain=DISK),
     "parameter 'h_divisor' must be greater than 2.0, got 2.0"),
    ("ge-float", _spec("eig", {"h": 0.1, "delta": -1}, field=UNIT_FIELD, domain=DISK),
     "parameter 'delta' must be at least 0.0, got -1.0"),
    ("ge-int", _spec("scan-criterion", {"anchors": 0}, field=UNIT_FIELD, domain=DISK),
     "parameter 'anchors' must be at least 1, got 0"),
    ("nonzero", _spec("classify-radial", {"problem": "monopole", "charge": 0}),
     "parameter 'charge' must be nonzero"),
    ("list-empty", _spec("scan-criterion", {"depths": []}, field=UNIT_FIELD, domain=DISK),
     "parameter 'depths' must be a nonempty list of numbers"),
    ("list-scalar", _spec("direction-scan", {"depths": 0.1}, field=UNIT_FIELD, domain=DISK),
     "parameter 'depths' must be a nonempty list of numbers"),
    ("int-list-empty", _spec("monopole-verdict", {"charges": []}),
     "parameter 'charges' must be a nonempty list of integers"),
    ("list-entry-type",
     _spec("scan-criterion", {"depths": [0.1, "a"]}, field=UNIT_FIELD, domain=DISK),
     "parameter 'depths' holds a non-number 'a'"),
    ("int-list-entry-type", _spec("monopole-verdict", {"charges": [1, 2.5]}),
     "parameter 'charges' holds a non-integer 2.5"),
    ("list-length",
     _spec("landau-check", {"window": [0.9]}), "parameter 'window' must have exactly 2 entries"),
    ("list-entry-gt", _spec("scan-criterion", {"depths": [0.1, 0]}, field=UNIT_FIELD, domain=DISK),
     "entries of 'depths' must be greater than 0.0, got 0.0"),
    ("int-list-entry-nonzero",
     _spec("monopole-verdict", {"charges": [1, 0]}), "entries of 'charges' must be nonzero"),
    ("list-decreasing", _spec("hur-probe", {"deltas": [0.05, 0.1]}, field=UNIT_FIELD, domain=DISK),
     "parameter 'deltas' must be strictly decreasing"),
    ("required",
     _spec("eig", {"k": 2}, field=UNIT_FIELD, domain=DISK), "task 'eig' needs parameter 'h'"),
    ("required-by-choice", _spec("classify-radial", {"problem": "monopole"}),
     "task 'classify-radial' needs parameter 'charge'"),
    ("unknown-params", _spec("spherical-table", {"m": 1, "k_max": 5, "zz": 1, "bogus": 3}),
     "unknown parameter(s) for task 'spherical-table': 'bogus', 'zz'"),
    ("missing-field",
     _spec("scan-criterion", {"anchors": 4}), "task 'scan-criterion' needs a 'field' entry"),
    ("missing-domain",
     _spec("eig", {"h": 0.1}, field=UNIT_FIELD), "task 'eig' needs a 'domain' entry"),
    ("eig-truncation", _spec("eig", {"h": 0.1, "delta": 0.1}, field=UNIT_FIELD, domain=DISK),
     "truncated grids need h < delta/2"),
    ("lemma-slack-truncation",
     _spec("lemma-slack", {"h": 0.1, "delta": 0.2}, field=UNIT_FIELD, domain=DISK),
     "truncated grids need h < delta/2"),
    ("eps-below-one", _spec("hur-probe", {"eps": 1.0}, field=UNIT_FIELD, domain=DISK),
     "parameter 'eps' must lie in (0, 1)"),
    ("alphas-or-range",
     _spec("sweep-alpha", {"mode": 1}), "sweep-alpha needs either 'alphas' or 'range' + 'step'"),
    ("alphas-and-range", _spec("sweep-alpha", {"alphas": [0.5], "range": [0.3, 0.6], "step": 0.1}),
     "give either 'alphas' or 'range', not both"),
    ("range-step", _spec("sweep-alpha", {"range": [0.3, 0.6]}), "'range' needs a 'step'"),
    ("step-range", _spec("sweep-alpha", {"alphas": [0.5], "step": 0.1}), "'step' needs a 'range'"),
    ("range-order", _spec("sweep-alpha", {"range": [0.6, 0.3], "step": 0.1}),
     "'range' must be [lo, hi] with lo < hi"),
    ("k-max-parity", _spec("spherical-table", {"m": 1, "k_max": 4}),
     "'k_max' must be >= |m| and of the same parity"),
    ("window-order",
     _spec("landau-check", {"window": [1.1, 0.9]}), "'window' must be [lo, hi] with lo < hi"),
]


def assert_rejected(tmp_path, capsys, spec, message):
    rc, outdir = run(tmp_path, spec)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("spec,message", [m[1:] for m in MESSAGES],
                         ids=[m[0] for m in MESSAGES])
def test_validation_messages(tmp_path, capsys, spec, message):
    assert_rejected(tmp_path, capsys, spec, message)


# Specs that used to crash a runner or the choice lookup.
FORMER_CRASHES = [
    ("list-for-choice", _spec("sweep-alpha", {"alphas": [0.5], "method": ["solve"]}),
     "parameter 'method' must be one of ['indicial', 'solve'], got ['solve']"),
    ("null-for-default", _spec("landau-check", {"h": None}),
     "parameter 'h' must be a number, got None"),
    ("null-for-required", _spec("eig", {"h": None}, field=UNIT_FIELD, domain=DISK),
     "parameter 'h' must be a number, got None"),
    ("field-domain-dims", _spec("eig", {"h": 0.3}, field=UNIT_FIELD, domain={"kind": "ball3d"}),
     "field is 2-dimensional but the domain is 3-dimensional"),
]


@pytest.mark.parametrize("spec,message", [m[1:] for m in FORMER_CRASHES],
                         ids=[m[0] for m in FORMER_CRASHES])
def test_bad_values_rejected_before_running(tmp_path, capsys, spec, message):
    assert_rejected(tmp_path, capsys, spec, message)


def test_zero_multipole_direction_rejected(tmp_path, capsys):
    # a zero direction used to divide by zero and write nan margins
    spec = _spec("scan-criterion", {"anchors": 4},
                 field={"kind": "multipole", "directions": [[0, 0, 0], [1, 0, 0]]})
    assert_rejected(tmp_path, capsys, spec, "multipole direction must be nonzero")


MALFORMED = {
    "monopole-no-charge": ("field", {"kind": "monopole"}),
    "constant-no-two-form": ("field", {"kind": "constant"}),
    "two-form-string": ("field", {"kind": "constant", "two_form": "abc"}),
    "annulus-no-r-out": ("domain", {"kind": "annulus2d", "r_in": 0.5}),
    "disk-radius-string": ("domain", {"kind": "disk2d", "radius": "x"}),
    "polytope-functionals-int": ("domain", {"kind": "polytope", "functionals": 3}),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key,entry", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_field_or_domain_json(tmp_path, capsys, command, key, entry):
    spec = _spec("eig", {"h": 0.1}, **{"field": UNIT_FIELD, "domain": DISK, key: entry})
    argv = [command, write_spec(tmp_path, spec)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {key!r} entry (")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_rejected(tmp_path, capsys):
    spec = _spec("scan-criterion", {"anchors": 4}, field={"kind": "disk_counterexample",
                                                          "alpha": 0.5})
    rc, outdir = run(tmp_path, spec, "--seed", "-3")
    assert rc == 2
    assert capsys.readouterr().err == "error: '--seed' must be a nonnegative integer\n"
    assert not outdir.exists()


def test_cli_import_stays_stdlib_only():
    import subprocess
    import sys

    import confinement_lab

    src = os.path.dirname(os.path.dirname(confinement_lab.__file__))
    code = ("import sys, confinement_lab.cli; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_readme_usage_lists_exactly_the_parser_flags():
    import argparse
    from pathlib import Path

    from confinement_lab.cli import _build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
                  for line in usage.splitlines()}
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    defined = {name: {flag for action in sub._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, sub in commands.items()}
    assert documented == defined


TORUS = {"kind": "solid_torus3d", "major_radius": 2.0, "minor_radius": 1.0}


@pytest.mark.parametrize("spec, absent", [
    ({"schema": 1, "task": "scan-criterion", "params": {"anchors": 16},
      "field": {"kind": "toroidal", "alpha": 2.0, "domain": TORUS}},
     ["scipy.integrate", "scipy.io", "scipy.optimize"]),
    ({"schema": 1, "task": "hur-probe", "params": {"deltas": [0.2]},
      "field": {"kind": "disk_counterexample", "alpha": 0.5}, "domain": DISK},
     ["scipy.optimize"]),
    ({"schema": 1, "task": "sweep-alpha",
      "params": {"range": [0.5, 1.2], "step": 0.1, "method": "solve", "bisect": True}},
     ["scipy.integrate", "scipy.optimize"]),
    ({"schema": 1, "task": "monopole-verdict", "params": {"charges": [1, 2, 3, 4]}},
     ["scipy.integrate", "scipy.optimize"]),
    (None, ["scipy.integrate", "scipy.optimize"]),
], ids=["torus-scan", "disk-probe", "sweep-solve", "monopole-verdict", "reproduce"])
def test_run_leaves_unused_scipy_subpackages_unloaded(tmp_path, spec, absent):
    import subprocess
    import sys

    import confinement_lab

    src = os.path.dirname(os.path.dirname(confinement_lab.__file__))
    argv = (["reproduce"] if spec is None
            else ["run", write_spec(tmp_path, spec), "--out", str(tmp_path / "out")])
    code = ("import sys; "
            "from confinement_lab import (cli, criterion, domains, exterior, fields, lattice, "
            "radial, spherical); "
            "assert cli.main(sys.argv[1:]) == 0; "
            f"print(sorted(set({absent!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"

def test_reproduce_timers_start_after_module_import():
    import subprocess
    import sys

    import confinement_lab

    src = os.path.dirname(os.path.dirname(confinement_lab.__file__))
    code = ("import sys, confinement_lab.cli as cli; "
            "cli.REPRODUCE = {'probe': cli.Check([], lambda t: [m in sys.modules for m in "
            "('confinement_lab.lattice', 'confinement_lab.fields', 'scipy.optimize')], "
            "lambda p, t: (True, str(p)))}; "
            "cli.main(['reproduce'])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[0].startswith("PASS  probe: [True, True, False] (")


def test_eig_csv_bytes_independent_of_blas_pool_size(tmp_path):
    import subprocess
    import sys

    import confinement_lab

    spec = {"schema": 1, "task": "eig", "output": "disk", "seed": 0,
            "params": {"h": 0.028, "delta": 0.06, "k": 2},
            "field": {"kind": "disk_counterexample", "alpha": 0.5}, "domain": DISK}
    path = write_spec(tmp_path, spec)
    src = os.path.dirname(os.path.dirname(confinement_lab.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = src
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "confinement_lab.cli", "run", path,
                        "--out", str(out)], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
        csvs.append((out / "disk.csv").read_bytes())
    report = json.loads((tmp_path / "threads1" / "disk.report.json").read_text())
    assert report["payload"]["n_sites"] > 1500  # a solve of thousands of sites
    assert csvs[0] == csvs[1]


def test_one_delta_probe_leaves_boundedness_undecided(tmp_path):
    spec = {"schema": 1, "task": "hur-probe", "output": "probe", "params": {"deltas": [0.2]},
            "field": {"kind": "disk_counterexample", "alpha": 0.5}, "domain": DISK}
    rc, outdir = run(tmp_path, spec)
    assert rc == 0
    report = json.loads((outdir / "probe.report.json").read_text())
    assert report["payload"]["bounded_below"] is None
    assert report["warnings"] == ["bounded_below needs at least two deltas"]
    assert len((outdir / "probe.csv").read_text().splitlines()) == 2
