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
import json
import os
import sys
import time
from collections import namedtuple

SPEC_SCHEMA = 1    # the "schema" a spec must declare
REPORT_SCHEMA = 3  # the "schema" written to report.json
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
# float, int, bool, str, (float,) or (int,) for a nonempty list, a set of
# choices, or a dict mapping each choice to the rows it brings along.  The
# rules are gt/ge (bounds), nonzero, length and decreasing; list rules bound
# each entry.  The thresholds of reproduce's checks are rows of the same form.

REQUIRED = object()  # default of a parameter the spec must give
_NOUNS = {float: ("a number", "a non-number", "numbers"),
          int: ("an integer", "a non-integer", "integers"),
          bool: ("true or false",), str: ("a string",)}


def _of_type(kind, raw):
    """Whether raw is a JSON value of the row type; a bool is no number."""
    return (isinstance(raw, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(raw, bool)))


def _bound(subject, val, rules):
    if "gt" in rules and val <= rules["gt"]:
        raise SpecError(f"{subject} must be greater than {rules['gt']}, got {val}")
    if "ge" in rules and val < rules["ge"]:
        raise SpecError(f"{subject} must be at least {rules['ge']}, got {val}")
    if rules.get("nonzero") and val == 0:
        raise SpecError(f"{subject} must be nonzero")


def _param(subject, row, raw):
    """The value of one row, read from raw; subject names it in errors."""
    name, kind, default, rules = row
    if isinstance(kind, (set, dict)):
        if not isinstance(raw, str) or raw not in kind:
            raise SpecError(f"{subject} must be one of {sorted(kind)}, got {raw!r}")
        return raw
    if raw is None and default is None:  # an optional number or list left out
        return None
    if not isinstance(kind, tuple):
        if not _of_type(kind, raw):
            raise SpecError(f"{subject} must be {_NOUNS[kind][0]}, got {raw!r}")
        val = kind(raw)
        _bound(subject, val, rules)
        return val
    (item,) = kind
    _, non, plural = _NOUNS[item]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SpecError(f"{subject} must be a nonempty list of {plural}")
    for v in raw:
        if not _of_type(item, v):
            raise SpecError(f"{subject} holds {non} {v!r}")
    vals = [item(v) for v in raw]
    if "length" in rules and len(vals) != rules["length"]:
        raise SpecError(f"{subject} must have exactly {rules['length']} entries")
    for v in vals:
        _bound(f"entries of {name!r}", v, rules)
    if rules.get("decreasing") and any(b >= a for a, b in zip(vals, vals[1:])):
        raise SpecError(f"{subject} must be strictly decreasing")
    return vals


def _read(rows, params, task, ctx):
    for row in rows:
        name, kind, default, _ = row
        raw = params.pop(name, default)
        if raw is REQUIRED:
            raise SpecError(f"task {task!r} needs parameter {name!r}")
        ctx[name] = _param(f"parameter {name!r}", row, raw)
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
# output encoding (byte-deterministic for a given spec + seed)


def _cell(v):
    """One CSV cell: a float as %.17g, a complex as a+bi (a float when its
    imaginary part is zero), None empty, a list ';'-joined, else str."""
    if v is None:
        return ""
    if isinstance(v, list):
        return ";".join(map(_cell, v))
    if isinstance(v, complex):
        return _cell(v.real) if v.imag == 0.0 else "%.17g%+.17gi" % (v.real, v.imag)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _json_complex(v):
    """``json.dump`` hook: a complex is a float when real, else [re, im]."""
    if not isinstance(v, complex):
        raise TypeError(f"{type(v).__name__} is not JSON serializable")
    return v.real if v.imag == 0.0 else [v.real, v.imag]


def _pick(header, dicts):
    """(header, rows) of the dicts' values under the header's keys."""
    return header, [[d[k] for k in header] for d in dicts]


def _flag(b):
    if b is None:
        return "none"
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# task runners (context -> payload, (CSV header, rows), warnings, operator),
# all raw values, and the task table


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
    payload = dict(vars(report))  # samples go to the CSV only, warnings to report["warnings"]
    samples, warnings = payload.pop("samples"), payload.pop("warnings")
    names = samples.dtype.names
    return payload, (names, list(zip(*(samples[n].tolist() for n in names)))), warnings, None


def _r_direction_scan(ctx, seed):
    from .criterion import scan_directions

    result = scan_directions(
        ctx["field"],
        ctx["domain"],
        n_anchors=ctx["anchors"],
        depths=ctx["depths"],
        seed=seed,
    )
    table = (["anchor", "oscillation"], list(enumerate(result.pop("per_anchor"))))
    return result, table, result.pop("warnings"), None


def _r_eig(ctx, seed):
    from .lattice import assemble

    op = assemble(ctx["field"], ctx["domain"], ctx["h"], delta=ctx["delta"],
                  quadrature=ctx["quadrature"])
    vals = op.lowest_eigenvalues(k=ctx["k"])[0].tolist()
    payload = {
        "n_sites": op.n_sites,
        "h": ctx["h"],
        "delta": ctx["delta"],
        "quadrature": ctx["quadrature"],
        "eigenvalues": vals,
    }
    return payload, (["index", "eigenvalue"], list(enumerate(vals))), [], op


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
    first, last = rows[0]["lambda_min_hardy"], rows[-1]["lambda_min_hardy"]
    if len(rows) > 1:
        bounded, warnings = bool(last >= first - abs(first)), []
    else:  # a single row would compare with itself
        bounded, warnings = None, ["bounded_below needs at least two deltas"]
    payload = {
        "eps": ctx["eps"],
        "h_divisor": ctx["h_divisor"],
        "rows": rows,
        "bounded_below": bounded,
    }
    header = ["delta", "h", "n_sites", "lambda_min_field", "lambda_min_hardy", "hardy_scaled"]
    return payload, _pick(header, rows), warnings, None


def _r_classify_radial(ctx, seed):
    from .radial import esa_verdict_radial, reduce_disk_mode, reduce_monopole

    if ctx["problem"] == "disk_mode":
        problem = reduce_disk_mode(ctx["alpha"], ctx["mode"])
    else:
        problem = reduce_monopole(ctx["charge"])
    verdict = esa_verdict_radial(problem, method=ctx["method"])
    header = ["endpoint", "kind", "c", "s_minus", "s_plus"]
    rows = [[ep, cls.kind, cls.c, cls.s_minus, cls.s_plus]
            for ep, cls in sorted(verdict.endpoint_reports.items())]
    payload = {
        "problem": ctx["problem"],
        "method": ctx["method"],
        "esa": verdict.esa,
        "basis": verdict.basis,
        "caveats": list(verdict.caveats),
        "endpoints": {_cell(ep): dict(zip(header[1:], rest)) for ep, *rest in rows},
    }
    return payload, (header, rows), [], None


def _r_sweep_alpha(ctx, seed):
    from .radial import sweep_alpha, threshold_bisection

    rows = sweep_alpha(ctx["alphas"], mode=ctx["mode"], method=ctx["method"])
    payload = {"method": ctx["method"], "mode": ctx["mode"], "rows": rows}
    if ctx["bisect"]:
        estimate = threshold_bisection(
            lo=min(ctx["alphas"]), hi=max(ctx["alphas"]), mode=ctx["mode"],
            method="solve",
        )
        payload["threshold_estimate"] = float(estimate)
    return payload, _pick(["alpha", "c", "s_minus", "s_plus", "kind"], rows), [], None


def _r_monopole_verdict(ctx, seed):
    from .radial import esa_verdict_radial, reduce_monopole

    problems = [reduce_monopole(m) for m in ctx["charges"]]
    esa = {method: [esa_verdict_radial(p, method=method).esa for p in problems]
           for method in ("indicial", "solve")}
    rows = [{"charge": m, "indicial": indicial, "solve": solve, "agree": indicial == solve}
            for m, indicial, solve in zip(ctx["charges"], esa["indicial"], esa["solve"])]
    payload = {"rows": rows, "all_agree": all(r["agree"] for r in rows)}
    table = [[r["charge"], _flag(r["indicial"]), _flag(r["solve"]), _flag(r["agree"])]
             for r in rows]
    return payload, (["charge", "esa_indicial", "esa_solve", "agree"], table), [], None


def _r_spherical_table(ctx, seed):
    from .spherical import counting_check, spectrum

    spec_table = spectrum(ctx["m"], ctx["k_max"])
    rows = [[k, num, den, num / den, mult] for k, num, den, mult in spec_table.rows()]
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
        "levels": [dict(zip(("k", "numerator", "denominator", "value", "multiplicity"), row))
                   for row in rows],
        "counting_check": bool(counting_check(ctx["m"], ctx["k_max"])),
    }
    return payload, (["k", "numerator", "denominator", "lambda", "multiplicity"], rows), [], None


def _r_landau_check(ctx, seed):
    from .domains import axis_box
    from .exterior import plane_two_form
    from .fields import ConstantField
    from .lattice import assemble

    b, h, half = ctx["b"], ctx["h"], ctx["side"] / 2.0
    op = assemble(ConstantField(plane_two_form(b)), axis_box([-half, -half], [half, half]), h)
    # The lattice Landau bottom: the solve starts there if no eigenvalue lies below it.
    bottom = 1.0 - b * h * h / 8.0
    guess = b * bottom
    vals = op.lowest_eigenvalues(k=ctx["k"], guess=guess)[0].tolist()
    lo, hi = ctx["window"]
    scaled = vals[0] / b
    within = bool(lo <= scaled <= hi)
    warnings = []
    if not within:
        warnings.append(
            f"lambda_1/b = {scaled:.6g} fell outside the window [{lo}, {hi}]"
        )
    if vals[0] < guess:
        warnings.append(f"lambda_1/b = {scaled:.6g} lies below the lattice Landau bottom "
                        f"1 - b h^2/8 = {bottom:.6g}: the lattice is too coarse for the "
                        "Landau asymptotics")
    payload = {
        "b": ctx["b"],
        "side": ctx["side"],
        "h": ctx["h"],
        "n_sites": op.n_sites,
        "eigenvalues": vals,
        "lambda_1_over_b": scaled,
        "window": [lo, hi],
        "within_window": within,
    }
    return payload, (["index", "eigenvalue"], list(enumerate(vals))), warnings, op


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
            "rates": {_cell(s): float(r) for s, r in rates.items()},
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
    header = ["trial", "h", "slack", "form", "paired", "weighted_norm_sq"]
    return payload, _pick(header, rows), [], None


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
        alphas, i = [], 0
        while lo + i * step <= hi + 1e-12:
            alphas.append(round(lo + i * step, 12))
            i += 1
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
    if spec.get("schema") != SPEC_SCHEMA:
        raise SpecError(f"spec needs \"schema\": {SPEC_SCHEMA}")
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
    payload, (header, rows), warnings, op = TASKS[spec["task"]].runner(ctx, seed)
    wall = time.perf_counter() - started
    if dump_matrix and op is None:
        warnings.append("--dump-matrix: this task assembles no matrix")

    from . import __version__

    report = {
        "schema": REPORT_SCHEMA,
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
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_complex)
        fh.write("\n")
    csv_path = os.path.join(outdir, base + ".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
    written = [json_path, csv_path]
    if dump_matrix and op is not None:
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


def _run_canned(spec):
    payload, _, _, _ = TASKS[spec["task"]].runner(_validate(spec), spec.get("seed", 0))
    return payload


def _polytope_slack(t):
    from .domains import rotated_unit_square

    dom = rotated_unit_square().to_json()
    return _run_canned({"task": "lemma-slack", "field": {"kind": "polytope_field", "domain": dom},
                        "domain": dom, "params": {"h": 0.02, "K": 0.08844315, "n_random": 10},
                        "seed": 5})


def _ball_boundary_form(t):
    # No task serves boundary_one_form_analysis, so the check calls it itself.
    from .domains import Ball3D
    from .fields import NonToroidalField, RotationOneForm, boundary_one_form_analysis

    report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0)))
    weak = boundary_one_form_analysis(
        NonToroidalField(Ball3D(1.0), base_one_form=RotationOneForm(0.4))
    )
    return {"norms": [z.derivative_norm_sp for z in report.zeros],
            "assumption_satisfied": report.assumption_satisfied,
            "weakened_satisfied": weak.assumption_satisfied}


def _disk_threshold(p, t):
    kinds = {round(r["alpha"], 6): r["kind"] for r in p["rows"]}
    circle, point = kinds.get(t["circle_alpha"]), kinds.get(t["point_alpha"])
    return (circle == "LimitCircle" and point == "LimitPoint",
            f"alpha {t['circle_alpha']} -> {circle}, alpha {t['point_alpha']} -> {point}")


def _monopole_esa(p, t):
    esa = {r["charge"]: r["indicial"] for r in p["rows"]}
    ok = p["all_agree"] and all(esa[m] is t[f"esa_m{m}"] for m in (1, 2, 4))
    return ok, (", ".join(f"m={m}: {_flag(esa[m])}" for m in (1, 2, 4))
                + ("; methods agree" if p["all_agree"] else "; METHODS DISAGREE"))


def _spherical_ground(p, t):
    g = p["ground"]
    ok = ((g["k"], g["value"], g["multiplicity"]) == (t["k"], t["value"], t["multiplicity"])
          and p["counting_check"])
    return ok, (f"ground (k={g['k']}, lambda={g['value']}, mult={g['multiplicity']}), "
                f"counting {'ok' if p['counting_check'] else 'BROKEN'}")


# threshold rows (as in Task.rows), thresholds -> payload,
# (payload, thresholds) -> (passed, detail line), and a cross-threshold check
# run after the rows (as Task.check)
Check = namedtuple("Check", "rows run verdict check", defaults=(None,))

REPRODUCE = {
    "polytope-slack": Check(
        [("min_slack", float, 0.0, {})],
        _polytope_slack,
        lambda p, t: (p["min_slack"] >= t["min_slack"],
                      f"min slack {p['min_slack']:.3e} over {p['n_trials']} trials")),
    "toroidal-direction": Check(
        [("verdict", str, "CONFINING_D2", {}), ("max_oscillation", float, 0.05, {})],
        lambda t: _run_canned({"task": "scan-criterion", "params": {"anchors": 32}, "field": {
            "kind": "toroidal", "alpha": 2.0,
            "domain": {"kind": "solid_torus3d", "major_radius": 2.0, "minor_radius": 1.0}}}),
        lambda p, t: (p["verdict"] == t["verdict"]
                      and p["direction_oscillation"] <= t["max_oscillation"],
                      f"verdict {p['verdict']}, oscillation {p['direction_oscillation']:.2e}")),
    "ball-boundary-form": Check(
        [("n_zeros", int, 2, {}), ("norm_lo", float, 1.95, {}), ("norm_hi", float, 2.05, {})],
        _ball_boundary_form,
        lambda p, t: (len(p["norms"]) == t["n_zeros"]
                      and all(t["norm_lo"] <= v <= t["norm_hi"] for v in p["norms"])
                      and p["assumption_satisfied"] and not p["weakened_satisfied"],
                      f"{len(p['norms'])} zeros, |d omega|_sp = "
                      + ", ".join(f"{v:.4f}" for v in p["norms"])
                      + f"; weakened flag {p['weakened_satisfied']}")),
    "disk-threshold": Check(
        [("circle_alpha", float, 0.8, {}), ("point_alpha", float, 0.9, {})],
        lambda t: _run_canned({"task": "sweep-alpha",
                               "params": {"range": [0.3, 1.2], "step": 0.1}}),
        _disk_threshold),
    "disk-ctrex-verdict": Check(
        [("verdict", str, "BELOW_THRESHOLD", {}), ("liminf", float, 0.5, {}),
         ("liminf_tol", float, 0.01, {})],
        lambda t: _run_canned({"task": "scan-criterion",
                               "field": {"kind": "disk_counterexample", "alpha": 0.5}}),
        lambda p, t: (p["verdict"] == t["verdict"]
                      and abs(p["liminf_estimate"] - t["liminf"]) <= t["liminf_tol"],
                      f"verdict {p['verdict']}, liminf {p['liminf_estimate']:.4f}")),
    "monopole-esa": Check(
        [("esa_m1", bool, False, {}), ("esa_m2", bool, True, {}), ("esa_m4", bool, True, {})],
        lambda t: _run_canned({"task": "monopole-verdict", "params": {"charges": [1, 2, 4]}}),
        _monopole_esa),
    "spherical-ground": Check(
        [("k", int, 1, {}), ("value", float, 0.5, {}), ("multiplicity", int, 2, {})],
        lambda t: _run_canned({"task": "spherical-table", "params": {"m": 1, "k_max": 5}}),
        _spherical_ground),
    "landau-window": Check(
        [("lo", float, 0.9, {}), ("hi", float, 1.1, {})],
        lambda t: _run_canned({"task": "landau-check", "params": {
            "side": 20.0, "h": 0.25, "window": [t["lo"], t["hi"]]}}),
        lambda p, t: (p["within_window"], f"lambda_1/b = {p['lambda_1_over_b']:.6f} in "
                                          f"[{t['lo']}, {t['hi']}]: {p['within_window']}"),
        lambda t: _check_window({"window": [t["lo"], t["hi"]]})),
}


def _load_thresholds(arg):
    """Each check's thresholds: the rows' defaults, overridden by the
    ``--thresholds`` JSON and read by ``_param``, then each cross-threshold
    check.  A value starting with ``{`` or ``[`` is inline JSON, any other a
    file path."""
    override = {}
    if arg is not None:
        text = arg
        if not arg.lstrip().startswith(("{", "[")):
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
        if name not in REPRODUCE:
            raise SpecError(f"unknown reproduce check {name!r}")
        if not isinstance(vals, dict):
            raise SpecError(f"thresholds for {name!r} must be an object")
        unknown = set(vals) - {row[0] for row in REPRODUCE[name].rows}
        if unknown:
            raise SpecError(
                f"unknown threshold key(s) for {name!r}: {', '.join(sorted(unknown))}"
            )
    thresholds = {name: {row[0]: _param(f"threshold {row[0]!r} for {name!r}", row,
                                        override.get(name, {}).get(row[0], row[2]))
                         for row in check.rows}
                  for name, check in REPRODUCE.items()}
    for name, check in REPRODUCE.items():
        if check.check is not None:
            check.check(thresholds[name])
    return thresholds


def _reproduce(thresholds_arg):
    thresholds = _load_thresholds(thresholds_arg)
    # Import the numeric layers before the first timer, so that no check's
    # printed time includes module import.
    from . import criterion, domains, fields, lattice, radial, spherical  # noqa: F401

    failures = []
    for name, check in REPRODUCE.items():
        started = time.perf_counter()
        try:
            ok, detail = check.verdict(check.run(thresholds[name]), thresholds[name])
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"error: {err}"
        wall = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail} ({wall:.1f}s)")
        if not ok:
            failures.append(name)
    if failures:
        print(f"{len(failures)} of {len(REPRODUCE)} checks failed: "
              + ", ".join(failures))
        return 1
    print(f"all {len(REPRODUCE)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


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
    run_p.add_argument("--dump-matrix", action="store_true",
                       help="also write the assembled operator (Matrix Market)")

    val_p = sub.add_parser("validate", help="validate a spec without running it")
    val_p.add_argument("spec", help="path to the experiment spec (JSON)")

    rep_p = sub.add_parser("reproduce",
                           help="run the bundled examples, print pass/fail lines")
    rep_p.add_argument("--thresholds", default=None,
                       help="JSON object or file overriding check thresholds")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
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
