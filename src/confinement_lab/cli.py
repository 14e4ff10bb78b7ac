"""Command-line driver: load a JSON experiment spec, run one task against the
library, and emit a JSON run report plus a CSV payload.

Subcommands
-----------
run        execute a spec file; artifacts land in --out
validate   parse and validate a spec without running it
reproduce  run the bundled example specs and print a pass/fail line each

Exit codes: 0 success, 2 validation failure (malformed spec, bad parameters,
bad field/domain), 3 solver failure.  Top-level imports stay stdlib-only: a
command loads each numeric layer only when it reaches it, so ``--help``
answers without numpy or scipy.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from collections import namedtuple

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

TOP_LEVEL_KEYS = {"schema", "task", "field", "domain", "params", "output", "seed"}
_BASENAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


class SpecError(Exception):
    """Experiment spec rejected before any computation."""


# ---------------------------------------------------------------------------
# parameter table interpreter
#
# A task's parameters are rows (name, type, default, rules).  The type is
# float, int, bool, (float,) or (int,) for a nonempty list, a set of choices,
# or a dict mapping each choice to the rows it brings along.  The rules are
# gt/ge (bounds), nonzero, length and decreasing; list rules bound each entry.

REQUIRED = object()  # default of a parameter the spec must give
_NOUNS = {float: ("a number", "a non-number", "numbers"),
          int: ("an integer", "a non-integer", "integers")}


def _of_type(kind, raw):
    return not isinstance(raw, bool) and isinstance(raw, (int, float) if kind is float else int)


def _bound(subject, val, rules):
    if "gt" in rules and val <= rules["gt"]:
        raise SpecError(f"{subject} must be greater than {rules['gt']}, got {val}")
    if "ge" in rules and val < rules["ge"]:
        raise SpecError(f"{subject} must be at least {rules['ge']}, got {val}")
    if rules.get("nonzero") and val == 0:
        raise SpecError(f"{subject} must be nonzero")


def _param(row, raw):
    name, kind, default, rules = row
    if isinstance(kind, (set, dict)):
        if not isinstance(raw, str) or raw not in kind:
            raise SpecError(f"parameter {name!r} must be one of {sorted(kind)}, got {raw!r}")
        return raw
    if raw is None and default is None:  # an optional number or list left out
        return None
    if kind is bool:
        if not isinstance(raw, bool):
            raise SpecError(f"parameter {name!r} must be true or false, got {raw!r}")
        return raw
    if not isinstance(kind, tuple):
        if not _of_type(kind, raw):
            raise SpecError(f"parameter {name!r} must be {_NOUNS[kind][0]}, got {raw!r}")
        val = kind(raw)
        _bound(f"parameter {name!r}", val, rules)
        return val
    (item,) = kind
    _, non, plural = _NOUNS[item]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SpecError(f"parameter {name!r} must be a nonempty list of {plural}")
    for v in raw:
        if not _of_type(item, v):
            raise SpecError(f"parameter {name!r} holds {non} {v!r}")
    vals = [item(v) for v in raw]
    if "length" in rules and len(vals) != rules["length"]:
        raise SpecError(f"parameter {name!r} must have exactly {rules['length']} entries")
    for v in vals:
        _bound(f"entries of {name!r}", v, rules)
    if rules.get("decreasing") and any(b >= a for a, b in zip(vals, vals[1:])):
        raise SpecError(f"parameter {name!r} must be strictly decreasing")
    return vals


def _read(rows, params, task, ctx):
    for row in rows:
        name, kind, default, _ = row
        raw = params.pop(name, default)
        if raw is REQUIRED:
            raise SpecError(f"task {task!r} needs parameter {name!r}")
        ctx[name] = _param(row, raw)
        if isinstance(kind, dict):
            _read(kind[ctx[name]], params, task, ctx)


def _load(spec, key, required):
    """The spec's "field" or "domain" object; malformed JSON is a SpecError."""
    obj = spec.get(key)
    if obj is None:
        if required:
            raise SpecError(f"task {spec['task']!r} needs a {key!r} entry")
        return None
    from .domains import domain_from_json
    from .errors import ConfinementError
    from .fields import field_from_json

    try:
        return (field_from_json if key == "field" else domain_from_json)(obj)
    except ConfinementError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SpecError(f"malformed {key!r} entry ({type(err).__name__}: {err})") from err


def _validate(spec):
    """Check a loaded spec against its task's table; returns the runner's context."""
    name = spec["task"]
    task = TASKS[name]
    params = dict(spec.get("params") or {})
    ctx = {}
    _read(task.rows, params, name, ctx)
    if params:
        names = ", ".join(sorted(map(repr, params)))
        raise SpecError(f"unknown parameter(s) for task {name!r}: {names}")
    if task.check is not None:
        task.check(ctx)
    for key, required in task.reads.items():
        ctx[key] = _load(spec, key, required)
    field, dom = ctx.get("field"), ctx.get("domain")
    if field is not None and dom is not None and field.dim != dom.dim:
        raise SpecError(f"field is {field.dim}-dimensional but the domain is {dom.dim}-dimensional")
    return ctx


# ---------------------------------------------------------------------------
# CSV helpers (byte-deterministic for a given spec + seed)


def _g(x):
    return "%.17g" % float(x)


def _gc(x):
    """Format a possibly-complex scalar (indicial exponents oscillate below
    the transition); empty cell when the method reports none."""
    if x is None:
        return ""
    z = complex(x)
    if z.imag == 0.0:
        return _g(z.real)
    return "%s%+si" % (_g(z.real), _g(z.imag))


def _jc(x):
    """JSON form of a possibly-complex scalar: plain float, or [re, im]."""
    if x is None:
        return None
    z = complex(x)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _csv_table(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _flag(b):
    if b is None:
        return "none"
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# task runners (context -> payload, CSV, warnings, operator) and the task table


def _r_scan_criterion(ctx, seed):
    from .criterion import scan_margin

    report = scan_margin(
        ctx["field"],
        ctx["domain"],
        n_anchors=ctx["anchors"],
        depths=ctx["depths"],
        eta0=ctx["eta0"],
        seed=seed,
    )
    samples = report.samples
    columns = [samples[name].tolist() for name in samples.dtype.names]
    payload = dict(vars(report), samples=[dict(zip(samples.dtype.names, row))
                                          for row in zip(*columns)])
    rows = [[str(a)] + [_g(v) for v in rest] + [";".join(map(_g, point))]
            for a, *rest, point in zip(*columns)]
    return payload, _csv_table(samples.dtype.names, rows), list(report.warnings), None


def _r_direction_scan(ctx, seed):
    from .criterion import scan_directions

    result = scan_directions(
        ctx["field"],
        ctx["domain"],
        n_anchors=ctx["anchors"],
        depths=ctx["depths"],
        seed=seed,
    )
    rows = [[str(i), _g(v)] for i, v in enumerate(result["per_anchor"])]
    csv = _csv_table(["anchor", "oscillation"], rows)
    warnings = list(result.pop("warnings"))
    return result, csv, warnings, None


def _r_eig(ctx, seed):
    from .lattice import assemble

    op = assemble(ctx["field"], ctx["domain"], ctx["h"], delta=ctx["delta"],
                  quadrature=ctx["quadrature"])
    vals, _ = op.lowest_eigenvalues(k=ctx["k"])
    payload = {
        "n_sites": op.n_sites,
        "h": ctx["h"],
        "delta": ctx["delta"],
        "quadrature": ctx["quadrature"],
        "eigenvalues": [float(v) for v in vals],
    }
    rows = [[str(i), _g(v)] for i, v in enumerate(vals)]
    return payload, _csv_table(["index", "eigenvalue"], rows), [], op


def _r_hur_probe(ctx, seed):
    from .lattice import hur_hypothesis_probe

    rows = hur_hypothesis_probe(
        ctx["field"],
        ctx["domain"],
        eps=ctx["eps"],
        deltas=ctx["deltas"],
        h_divisor=ctx["h_divisor"],
        tol=ctx["tol"],
    )
    payload = {
        "eps": ctx["eps"],
        "h_divisor": ctx["h_divisor"],
        "rows": [dict(r) for r in rows],
        "bounded_below": bool(rows[-1]["lambda_min_hardy"]
                              >= rows[0]["lambda_min_hardy"] - abs(rows[0]["lambda_min_hardy"])),
    }
    table = [
        [_g(r["delta"]), _g(r["h"]), str(r["n_sites"]), _g(r["lambda_min_field"]),
         _g(r["lambda_min_hardy"]), _g(r["hardy_scaled"])]
        for r in rows
    ]
    csv = _csv_table(
        ["delta", "h", "n_sites", "lambda_min_field", "lambda_min_hardy",
         "hardy_scaled"],
        table,
    )
    return payload, csv, [], None


def _endpoint_rows(verdict):
    rows = []
    for ep in sorted(verdict.endpoint_reports):
        cls = verdict.endpoint_reports[ep]
        rows.append([_g(ep), cls.kind, _gc(cls.c), _gc(cls.s_minus), _gc(cls.s_plus)])
    return rows


def _r_classify_radial(ctx, seed):
    from .radial import esa_verdict_radial, reduce_disk_mode, reduce_monopole

    if ctx["problem"] == "disk_mode":
        problem = reduce_disk_mode(ctx["alpha"], ctx["mode"])
    else:
        problem = reduce_monopole(ctx["charge"])
    verdict = esa_verdict_radial(problem, method=ctx["method"])
    payload = {
        "problem": ctx["problem"],
        "method": ctx["method"],
        "esa": verdict.esa,
        "basis": verdict.basis,
        "caveats": list(verdict.caveats),
        "endpoints": {
            _g(ep): {
                "kind": cls.kind,
                "c": _jc(cls.c),
                "s_minus": _jc(cls.s_minus),
                "s_plus": _jc(cls.s_plus),
            }
            for ep, cls in verdict.endpoint_reports.items()
        },
    }
    csv = _csv_table(["endpoint", "kind", "c", "s_minus", "s_plus"],
                     _endpoint_rows(verdict))
    return payload, csv, [], None


def _r_sweep_alpha(ctx, seed):
    from .radial import sweep_alpha, threshold_bisection

    rows = sweep_alpha(ctx["alphas"], mode=ctx["mode"], method=ctx["method"])
    json_rows = [
        {"alpha": r["alpha"], "c": float(r["c"]), "s_minus": _jc(r["s_minus"]),
         "s_plus": _jc(r["s_plus"]), "kind": r["kind"]}
        for r in rows
    ]
    payload = {"method": ctx["method"], "mode": ctx["mode"], "rows": json_rows}
    warnings = []
    if ctx["bisect"]:
        estimate = threshold_bisection(
            lo=min(ctx["alphas"]), hi=max(ctx["alphas"]), mode=ctx["mode"],
            method="solve",
        )
        payload["threshold_estimate"] = float(estimate)
    table = [
        [_g(r["alpha"]), _g(r["c"]), _gc(r["s_minus"]), _gc(r["s_plus"]), r["kind"]]
        for r in rows
    ]
    csv = _csv_table(["alpha", "c", "s_minus", "s_plus", "kind"], table)
    return payload, csv, warnings, None


def _r_monopole_verdict(ctx, seed):
    from .radial import esa_verdict_radial, reduce_monopole

    rows = []
    payload_rows = []
    all_agree = True
    for m in ctx["charges"]:
        problem = reduce_monopole(m)
        by_method = {
            method: esa_verdict_radial(problem, method=method).esa
            for method in ("indicial", "solve")
        }
        agree = by_method["indicial"] == by_method["solve"]
        all_agree = all_agree and agree
        payload_rows.append({"charge": m, **by_method, "agree": agree})
        rows.append([str(m), _flag(by_method["indicial"]), _flag(by_method["solve"]),
                     _flag(agree)])
    payload = {"rows": payload_rows, "all_agree": all_agree}
    csv = _csv_table(["charge", "esa_indicial", "esa_solve", "agree"], rows)
    return payload, csv, [], None


def _r_spherical_table(ctx, seed):
    from .spherical import counting_check, spectrum

    spec_table = spectrum(ctx["m"], ctx["k_max"])
    rows = [
        [str(k), str(num), str(den), _g(num / den), str(mult)]
        for k, num, den, mult in spec_table.rows()
    ]
    ground = spec_table.levels[0]
    payload = {
        "charge": ctx["m"],
        "k_max": ctx["k_max"],
        "ground": {
            "k": ground.k,
            "value": float(ground.value),
            "numerator": ground.value.numerator,
            "denominator": ground.value.denominator,
            "multiplicity": ground.multiplicity,
        },
        "levels": [
            {"k": k, "numerator": num, "denominator": den, "value": num / den,
             "multiplicity": mult}
            for k, num, den, mult in spec_table.rows()
        ],
        "counting_check": bool(counting_check(ctx["m"], ctx["k_max"])),
    }
    csv = _csv_table(["k", "numerator", "denominator", "lambda", "multiplicity"],
                     rows)
    return payload, csv, [], None


def _r_landau_check(ctx, seed):
    from .domains import axis_box
    from .exterior import plane_two_form
    from .fields import ConstantField
    from .lattice import assemble

    half = ctx["side"] / 2.0
    op = assemble(ConstantField(plane_two_form(ctx["b"])),
                  axis_box([-half, -half], [half, half]), ctx["h"])
    vals, _ = op.lowest_eigenvalues(k=ctx["k"])
    lo, hi = ctx["window"]
    scaled = float(vals[0]) / ctx["b"]
    within = bool(lo <= scaled <= hi)
    warnings = []
    if not within:
        warnings.append(
            f"lambda_1/b = {scaled:.6g} fell outside the window [{lo}, {hi}]"
        )
    payload = {
        "b": ctx["b"],
        "side": ctx["side"],
        "h": ctx["h"],
        "n_sites": op.n_sites,
        "eigenvalues": [float(v) for v in vals],
        "lambda_1_over_b": scaled,
        "window": [lo, hi],
        "within_window": within,
    }
    rows = [[str(i), _g(v)] for i, v in enumerate(vals)]
    return payload, _csv_table(["index", "eigenvalue"], rows), warnings, op


def _r_lemma_slack(ctx, seed):
    from .domains import axis_box
    from .exterior import plane_two_form
    from .fields import ConstantField
    from .lattice import calibrate_form_constant, commutator_bound_test

    payload = {"h": ctx["h"], "delta": ctx["delta"]}
    K = ctx["K"]
    if K is None:
        half = ctx["calibration_side"] / 2.0
        K, rates = calibrate_form_constant(
            axis_box([-half, -half], [half, half]),
            ctx["calibration_h"],
            lambda s: ConstantField(plane_two_form(s)),
        )
        payload["calibration"] = {
            "h": ctx["calibration_h"],
            "rates": {_g(s): float(r) for s, r in rates.items()},
        }
    rows = commutator_bound_test(
        ctx["field"], ctx["domain"], ctx["h"], K, delta=ctx["delta"],
        n_random=ctx["n_random"], seed=seed,
        n_eigenvectors=ctx["n_eigenvectors"],
    )
    payload.update(
        K=float(K),
        n_trials=len(rows),
        min_slack=float(min(r["slack"] for r in rows)),
    )
    table = [
        [r["trial"], _g(r["h"]), _g(r["slack"]), _g(r["form"]), _g(r["paired"]),
         _g(r["weighted_norm_sq"])]
        for r in rows
    ]
    csv = _csv_table(
        ["trial", "h", "slack", "form", "paired", "weighted_norm_sq"], table
    )
    return payload, csv, [], None


def _check_truncation(ctx):
    if ctx["delta"] > 0.0 and not ctx["h"] < ctx["delta"] / 2.0:
        raise SpecError("truncated grids need h < delta/2")


def _check_eps(ctx):
    if ctx["eps"] >= 1.0:
        raise SpecError("parameter 'eps' must lie in (0, 1)")


def _expand_alphas(ctx):
    alphas, rng, step = ctx["alphas"], ctx.pop("range"), ctx.pop("step")
    if alphas is None and rng is None:
        raise SpecError("sweep-alpha needs either 'alphas' or 'range' + 'step'")
    if alphas is not None and rng is not None:
        raise SpecError("give either 'alphas' or 'range', not both")
    if rng is None and step is not None:
        raise SpecError("'step' needs a 'range'")
    if rng is not None:
        if step is None:
            raise SpecError("'range' needs a 'step'")
        lo, hi = rng
        if hi <= lo:
            raise SpecError("'range' must be [lo, hi] with lo < hi")
        alphas = []
        v = lo
        while v <= hi + 1e-12:
            alphas.append(round(v, 12))
            v += step
    ctx["alphas"] = alphas


def _check_parity(ctx):
    if ctx["k_max"] < abs(ctx["m"]) or (ctx["k_max"] - abs(ctx["m"])) % 2:
        raise SpecError("'k_max' must be >= |m| and of the same parity")


def _check_window(ctx):
    if ctx["window"][1] <= ctx["window"][0]:
        raise SpecError("'window' must be [lo, hi] with lo < hi")


# runner, parameter rows, cross-parameter check (run after the rows), and the
# spec entries read after it: {"field"/"domain": required?}
Task = namedtuple("Task", "runner rows check reads")
POSITIVE = {"gt": 0.0}
METHODS = {"indicial", "solve"}
SCAN_ROWS = [("anchors", int, 64, {"ge": 1}), ("depths", (float,), None, POSITIVE)]
SCAN_READS = {"field": True, "domain": False}
LATTICE_READS = {"field": True, "domain": True}

TASKS = {
    "scan-criterion": Task(_r_scan_criterion,
                           SCAN_ROWS + [("eta0", float, 0.05, POSITIVE)], None, SCAN_READS),
    "direction-scan": Task(_r_direction_scan, SCAN_ROWS, None, SCAN_READS),
    "eig": Task(_r_eig, [
        ("h", float, REQUIRED, POSITIVE),
        ("delta", float, 0.0, {"ge": 0.0}),
        ("k", int, 6, {"ge": 1}),
        ("quadrature", {"midpoint", "gauss3"}, "midpoint", {}),
    ], _check_truncation, LATTICE_READS),
    "hur-probe": Task(_r_hur_probe, [
        ("eps", float, 0.1, POSITIVE),
        ("deltas", (float,), [0.1, 0.05, 0.025], {"gt": 0.0, "decreasing": True}),
        ("h_divisor", float, 2.5, {"gt": 2.0}),
        ("tol", float, 1e-6, POSITIVE),
    ], _check_eps, LATTICE_READS),
    "classify-radial": Task(_r_classify_radial, [
        ("problem", {"disk_mode": [("alpha", float, REQUIRED, POSITIVE), ("mode", int, 0, {})],
                     "monopole": [("charge", int, REQUIRED, {"nonzero": True})]}, None, {}),
        ("method", METHODS, "indicial", {}),
    ], None, {}),
    "sweep-alpha": Task(_r_sweep_alpha, [
        ("alphas", (float,), None, POSITIVE),
        ("range", (float,), None, {"gt": 0.0, "length": 2}),
        ("step", float, None, POSITIVE),
        ("mode", int, 0, {}),
        ("method", METHODS, "indicial", {}),
        ("bisect", bool, False, {}),
    ], _expand_alphas, {}),
    "monopole-verdict": Task(_r_monopole_verdict,
                             [("charges", (int,), [1, 2, 3, 4], {"nonzero": True})], None, {}),
    "spherical-table": Task(_r_spherical_table, [
        ("m", int, REQUIRED, {}),
        ("k_max", int, REQUIRED, {"ge": 0}),
    ], _check_parity, {}),
    "landau-check": Task(_r_landau_check, [
        ("b", float, 1.0, POSITIVE),
        ("side", float, 20.0, POSITIVE),
        ("h", float, 0.25, POSITIVE),
        ("k", int, 1, {"ge": 1}),
        ("window", (float,), [0.9, 1.1], {"length": 2}),
    ], _check_window, {}),
    "lemma-slack": Task(_r_lemma_slack, [
        ("h", float, REQUIRED, POSITIVE),
        ("delta", float, 0.0, {"ge": 0.0}),
        ("K", float, None, {"ge": 0.0}),
        ("n_random", int, 50, {"ge": 0}),
        ("n_eigenvectors", int, 2, {"ge": 0}),
        ("calibration_h", float, 0.4, POSITIVE),
        ("calibration_side", float, 8.0, POSITIVE),
    ], _check_truncation, LATTICE_READS),
}


# ---------------------------------------------------------------------------
# spec loading / report writing


def _load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as err:
        raise SpecError(f"cannot read spec file: {err}") from err
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SpecError(f"spec is not valid JSON: {err}") from err
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(spec) - TOP_LEVEL_KEYS
    if unknown:
        raise SpecError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    if spec.get("schema") != SCHEMA_VERSION:
        raise SpecError(f"spec needs \"schema\": {SCHEMA_VERSION}")
    task = spec.get("task")
    if task not in TASKS:
        raise SpecError(
            f"unknown task {task!r}; expected one of {sorted(TASKS)}"
        )
    params = spec.get("params")
    if params is not None and not isinstance(params, dict):
        raise SpecError("'params' must be an object")
    seed = spec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SpecError("'seed' must be a nonnegative integer")
    base = spec.get("output", task)
    if (not isinstance(base, str) or not base
            or not set(base) <= _BASENAME_OK or base.startswith(".")):
        raise SpecError("'output' must be a plain file basename")
    return spec


def _spec_echo(spec, seed):
    echo = {k: spec[k] for k in TOP_LEVEL_KEYS & set(spec)}
    echo["seed"] = seed
    return echo


def _run_spec(path, outdir, seed_flag, dump_matrix):
    spec = _load_spec(path)
    ctx = _validate(spec)
    seed = seed_flag if seed_flag is not None else spec.get("seed", 0)
    if seed < 0:
        raise SpecError("'--seed' must be a nonnegative integer")
    started = time.perf_counter()
    payload, csv_text, warnings, op = TASKS[spec["task"]].runner(ctx, seed)
    wall = time.perf_counter() - started

    from . import __version__

    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "task": spec["task"],
        "spec": _spec_echo(spec, seed),
        "wall_time_s": wall,
        "payload": payload,
        "warnings": warnings,
    }
    os.makedirs(outdir, exist_ok=True)
    base = spec.get("output", spec["task"])
    json_path = os.path.join(outdir, base + ".report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [json_path]
    if csv_text is not None:
        csv_path = os.path.join(outdir, base + ".csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        written.append(csv_path)
    if dump_matrix:
        if op is None:
            warnings.append("--dump-matrix: this task assembles no matrix")
        else:
            mtx_path = os.path.join(outdir, base + ".mtx")
            op.to_matrix_market(mtx_path)
            written.append(mtx_path)
    for p in written:
        print(p)
    return EXIT_OK


def _validate_spec(path):
    spec = _load_spec(path)
    _validate(spec)
    print(f"spec OK: task {spec['task']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce: bundled example specs with pass/fail lines


DEFAULT_THRESHOLDS = {
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


def _run_canned(task, params=None, field=None, domain=None, seed=0):
    spec = {"schema": SCHEMA_VERSION, "task": task}
    if params:
        spec["params"] = params
    if field is not None:
        spec["field"] = field
    if domain is not None:
        spec["domain"] = domain
    payload, _, _, _ = TASKS[task].runner(_validate(spec), seed)
    return payload


def _check_polytope_slack(t):
    from .domains import rotated_unit_square

    dom = rotated_unit_square().to_json()
    payload = _run_canned(
        "lemma-slack",
        params={"h": 0.02, "K": 0.08844315, "n_random": 10},
        field={"kind": "polytope_field", "domain": dom},
        domain=dom,
        seed=5,
    )
    ok = payload["min_slack"] >= t["min_slack"]
    return ok, f"min slack {payload['min_slack']:.3e} over {payload['n_trials']} trials"


def _check_toroidal_direction(t):
    from .domains import SolidTorus3D

    dom = SolidTorus3D(2.0, 1.0).to_json()
    payload = _run_canned(
        "scan-criterion",
        params={"anchors": 32},
        field={"kind": "toroidal", "alpha": 2.0, "domain": dom},
    )
    ok = (payload["verdict"] == t["verdict"]
          and payload["direction_oscillation"] <= t["max_oscillation"])
    return ok, (f"verdict {payload['verdict']}, oscillation "
                f"{payload['direction_oscillation']:.2e}")


def _check_ball_boundary_form(t):
    from .domains import Ball3D
    from .fields import (NonToroidalField, RotationOneForm,
                         boundary_one_form_analysis)

    report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0)))
    norms = [z.derivative_norm_sp for z in report.zeros]
    ok = (len(report.zeros) == t["n_zeros"]
          and all(t["norm_lo"] <= v <= t["norm_hi"] for v in norms)
          and report.assumption_satisfied)
    weak = boundary_one_form_analysis(
        NonToroidalField(Ball3D(1.0), base_one_form=RotationOneForm(0.4))
    )
    ok = ok and not weak.assumption_satisfied
    return ok, (f"{len(report.zeros)} zeros, |d omega|_sp = "
                + ", ".join(f"{v:.4f}" for v in norms)
                + f"; weakened flag {weak.assumption_satisfied}")


def _check_disk_threshold(t):
    payload = _run_canned(
        "sweep-alpha",
        params={"range": [0.3, 1.2], "step": 0.1},
    )
    kinds = {round(r["alpha"], 6): r["kind"] for r in payload["rows"]}
    ok = (kinds.get(t["circle_alpha"]) == "LimitCircle"
          and kinds.get(t["point_alpha"]) == "LimitPoint")
    return ok, (f"alpha {t['circle_alpha']} -> {kinds.get(t['circle_alpha'])}, "
                f"alpha {t['point_alpha']} -> {kinds.get(t['point_alpha'])}")


def _check_disk_ctrex_verdict(t):
    payload = _run_canned(
        "scan-criterion",
        field={"kind": "disk_counterexample", "alpha": 0.5},
    )
    ok = (payload["verdict"] == t["verdict"]
          and abs(payload["liminf_estimate"] - t["liminf"]) <= t["liminf_tol"])
    return ok, (f"verdict {payload['verdict']}, liminf "
                f"{payload['liminf_estimate']:.4f}")


def _check_monopole_esa(t):
    payload = _run_canned("monopole-verdict", params={"charges": [1, 2, 4]})
    by_charge = {r["charge"]: r for r in payload["rows"]}
    ok = (payload["all_agree"]
          and by_charge[1]["indicial"] is t["esa_m1"]
          and by_charge[2]["indicial"] is t["esa_m2"]
          and by_charge[4]["indicial"] is t["esa_m4"])
    verdicts = ", ".join(f"m={m}: {_flag(by_charge[m]['indicial'])}"
                         for m in (1, 2, 4))
    return ok, verdicts + ("; methods agree" if payload["all_agree"]
                           else "; METHODS DISAGREE")


def _check_spherical_ground(t):
    payload = _run_canned("spherical-table", params={"m": 1, "k_max": 5})
    g = payload["ground"]
    ok = (g["k"] == t["k"] and g["value"] == t["value"]
          and g["multiplicity"] == t["multiplicity"]
          and payload["counting_check"])
    return ok, (f"ground (k={g['k']}, lambda={g['value']}, "
                f"mult={g['multiplicity']}), counting "
                f"{'ok' if payload['counting_check'] else 'BROKEN'}")


def _check_landau_window(t):
    payload = _run_canned(
        "landau-check",
        params={"side": 20.0, "h": 0.25, "window": [t["lo"], t["hi"]]},
    )
    return payload["within_window"], (
        f"lambda_1/b = {payload['lambda_1_over_b']:.6f} in "
        f"[{t['lo']}, {t['hi']}]: {payload['within_window']}"
    )


REPRODUCE_CHECKS = [
    ("polytope-slack", _check_polytope_slack),
    ("toroidal-direction", _check_toroidal_direction),
    ("ball-boundary-form", _check_ball_boundary_form),
    ("disk-threshold", _check_disk_threshold),
    ("disk-ctrex-verdict", _check_disk_ctrex_verdict),
    ("monopole-esa", _check_monopole_esa),
    ("spherical-ground", _check_spherical_ground),
    ("landau-window", _check_landau_window),
]


def _load_thresholds(arg):
    merged = {name: dict(vals) for name, vals in DEFAULT_THRESHOLDS.items()}
    if arg is None:
        return merged
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise SpecError(f"cannot read thresholds file: {err}") from err
    try:
        override = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecError(f"thresholds are not valid JSON: {err}") from err
    if not isinstance(override, dict):
        raise SpecError("thresholds must be a JSON object")
    for name, vals in override.items():
        if name not in merged:
            raise SpecError(f"unknown reproduce check {name!r}")
        if not isinstance(vals, dict):
            raise SpecError(f"thresholds for {name!r} must be an object")
        unknown = set(vals) - set(merged[name])
        if unknown:
            raise SpecError(
                f"unknown threshold key(s) for {name!r}: {', '.join(sorted(unknown))}"
            )
        for key, val in vals.items():
            kind = type(merged[name][key])
            if not (isinstance(val, kind) if kind in (bool, str) else _of_type(kind, val)):
                noun = {bool: "true or false", str: "a string"}.get(kind) or _NOUNS[kind][0]
                raise SpecError(f"threshold {key!r} for {name!r} must be {noun}, got {val!r}")
        merged[name].update(vals)
    return merged


def _reproduce(thresholds_arg):
    thresholds = _load_thresholds(thresholds_arg)
    # Import the numeric layers before the first timer, so that no check's
    # printed time includes module import.
    from . import criterion, domains, fields, lattice, radial, spherical  # noqa: F401

    failures = []
    for name, check in REPRODUCE_CHECKS:
        started = time.perf_counter()
        try:
            ok, detail = check(thresholds[name])
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"error: {err}"
        wall = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail} ({wall:.1f}s)")
        if not ok:
            failures.append(name)
    if failures:
        print(f"{len(failures)} of {len(REPRODUCE_CHECKS)} checks failed: "
              + ", ".join(failures))
        return 1
    print(f"all {len(REPRODUCE_CHECKS)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _thread_cap(n):
    """Context capping the bundled OpenBLAS pools at n threads (None: no cap)."""
    if n is None:
        return contextlib.nullcontext()
    if n < 1:
        raise SpecError("'--threads' must be a positive integer")
    from .lattice import blas_threads

    return blas_threads(n)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="confinement-lab",
        description="Run confinement experiments from JSON specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a spec file")
    run_p.add_argument("spec", help="path to the experiment spec (JSON)")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the spec seed")
    run_p.add_argument("--threads", type=int, default=None,
                       help="cap the numpy and scipy OpenBLAS thread pools")
    run_p.add_argument("--dump-matrix", action="store_true",
                       help="also write the assembled operator (Matrix Market)")

    val_p = sub.add_parser("validate", help="validate a spec without running it")
    val_p.add_argument("spec", help="path to the experiment spec (JSON)")

    rep_p = sub.add_parser("reproduce",
                           help="run the bundled examples, print pass/fail lines")
    rep_p.add_argument("--thresholds", default=None,
                       help="JSON object or file overriding check thresholds")
    rep_p.add_argument("--threads", type=int, default=None,
                       help="cap the numpy and scipy OpenBLAS thread pools")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with _thread_cap(getattr(args, "threads", None)):
            if args.command == "run":
                return _run_spec(args.spec, args.out, args.seed, args.dump_matrix)
            if args.command == "validate":
                return _validate_spec(args.spec)
            return _reproduce(args.thresholds)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as err:  # noqa: BLE001 - mapped to exit codes below
        from . import errors

        if isinstance(err, errors.SolverError):
            print(f"solver failure: {err}", file=sys.stderr)
            return EXIT_SOLVER
        if isinstance(err, errors.ConfinementError):
            print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        raise


if __name__ == "__main__":
    sys.exit(main())
