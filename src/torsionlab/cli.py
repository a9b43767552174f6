"""Command line experiment runner.

Subcommands: `run` executes one experiment into an output directory and
writes result.csv, result.json and manifest.json; `verify-all` executes the
acceptance suite and prints one PASS/FAIL line per criterion.

Config values come from an optional file of flat `key=value` lines plus
`--set key=value` flags (flags win). Exit codes: 0 success, 1 verification
failure, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

# cap the BLAS pools (one thread unless TORSION_LAB_THREADS says otherwise)
# before any numerical module is imported; a pool variable already set wins
_threads = os.environ.get("TORSION_LAB_THREADS", "1")
if _threads:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, _threads)


class ConfigError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# each experiment: {param: (converter, default)} and a runner
SCHEMAS = {
    "torsion": {"theta": (float, 1.5707963267948966)},
    "anomaly": {"m": (int, 64), "tau": (float, 1e-3), "t_max": (float, 80.0),
                "n_t": (int, 200)},
    "birth-death": {
        "A": (float, 1000.0), "y": (float, 0.0), "n": (int, 6), "i": (int, 3),
        "r1": (float, 0.04), "r2": (float, 0.06), "delta": (float, 0.0015),
    },
    "witten-glue": {
        "T": (float, 40.0), "amplitude": (float, 0.05), "r": (float, 0.12),
        "A_ladder": (str, "1,4,16,64"), "k": (int, 7), "dump_vectors": (int, 0),
    },
    "small-eig": {
        "amplitude": (float, 0.1), "T_min": (float, 20.0), "T_max": (float, 80.0),
        "T_step": (float, 10.0),
    },
    "agmon": {"amplitude": (float, 0.1), "b": (float, 0.5),
              "T_list": (str, "20,40,60,80")},
    "cubic": {"T_list": (str, "1,8,64"), "k": (int, 5), "n_nodes": (int, 1500)},
    "cheeger-muller": {"theta": (float, 3.141592653589793), "n_grid": (int, 2000)},
    "suspension": {"N": (int, 4), "T": (float, 1.0), "T2": (float, 2.0)},
}


def _floats(csv_str):
    return [float(x) for x in str(csv_str).split(",") if x.strip()]


def run_torsion(p):
    import numpy as np

    from .graded import complex_to_json, finite_torsion, finite_torsion_integral
    from .morse import build_complex, circle_model

    theta = p["theta"]
    rep = np.array([[np.exp(1j * theta)]])
    cpx = build_complex(circle_model(rep=rep)).complex
    comb = finite_torsion(cpx)
    integral = finite_torsion_integral(cpx)
    closed = -np.log(abs(1 - np.exp(1j * theta)))
    rows = [(theta, comb, integral, closed)]
    header = ["theta", "torsion_closed_sum", "torsion_integral", "reference"]
    return rows, header, {"max_route_gap": abs(comb - integral),
                          "complex": complex_to_json(cpx)}


def run_anomaly(p):
    from .acceptance import anomaly_family
    from .forms import anomaly_check

    fam = anomaly_family(p["m"])
    out = anomaly_check(fam, tau=p["tau"], t_max=p["t_max"], n_t=p["n_t"])
    res = out["residual"]
    rows = [(j, float(res[j].real), float(res[j].imag)) for j in range(len(res))]
    header = ["edge", "residual_re", "residual_im"]
    return rows, header, {"max_residual": out["max_residual"]}


def run_birth_death(p):
    from . import birthdeath as B

    params = B.ModelParams(n=p["n"], i=p["i"], r1=p["r1"], r2=p["r2"],
                           delta=p["delta"], y=p["y"], A=p["A"])
    prof = B.build_profiles(params, verify=False)
    census = B.find_critical_points(params, prof)
    rows = []
    for c in census:
        rows.append(
            (c.morse_index, int(c.birth_death), c.value,
             float(sum(x * x for x in c.location) ** 0.5), c.newton_residual)
        )
    header = ["index", "birth_death", "value", "radius", "newton_residual"]
    return rows, header, {"count": len(census),
                          "records": B.census_records(census)}


def run_witten_glue(p):
    import numpy as np

    from .acceptance import cos2
    from .witten1d import (build_p_profile, circle_problem, factor_eigenpairs,
                           gluing_scan)

    ladder = _floats(p["A_ladder"])
    out = gluing_scan(cos2(p["amplitude"]), T=p["T"], A_ladder=ladder,
                      interface_r=p["r"], k=p["k"])
    rows = []
    for deg in sorted(out):
        for row in out[deg]:
            for k in range(len(row["lambda"])):
                rows.append(
                    (deg, row["A"], k, row["lambda"][k], row["lambda_split"][k],
                     row["gaps"][k])
                )
    header = ["form_degree", "a", "k", "lambda", "lambda_split", "gap"]
    # companion table in the (t, a, bc, k, lambda, residual) convention: the
    # 0-form eigenpairs of the factored full-circle operator B^H B at the
    # last rung (positive semi-definite by construction, unlike the
    # central-difference realization at large A)
    a_top = ladder[-1]
    prof = build_p_profile(a_top, p["r"])
    cuts = (np.pi / 4, 7 * np.pi / 4)
    prob = circle_problem(cos2(p["amplitude"]), p["T"], A=a_top,
                          interface=(cuts, p["r"], prof))
    res = factor_eigenpairs(prob, min(p["k"], 6))
    spectra_rows = []
    vec_dump = []
    for k, lam in enumerate(res.eigenvalues):
        spectra_rows.append((p["T"], a_top, "none", k, float(lam),
                             float(res.metadata["residuals"][k])))
        if p["dump_vectors"]:
            vec_dump.append((k, res.eigenvectors[:, k]))
    extra = {
        str(deg): {
            "cluster_counts": [r["cluster_count"] for r in out[deg]],
            "kernel_sums": [r["kernel_sum"] for r in out[deg]],
        }
        for deg in out
    }
    extra["_spectra"] = {
        "header": ["t", "a", "bc", "k", "lambda", "residual"],
        "rows": spectra_rows,
    }
    if p["dump_vectors"]:
        extra["_vector_dump"] = {
            "nodes": prob.nodes.tolist(),
            "vectors": {str(k): v.tolist() for k, v in vec_dump},
        }
    return rows, header, extra


def run_small_eig(p):
    import numpy as np

    from .acceptance import cos2
    from .witten1d import small_eigenvalue_scan

    if not p["T_step"] > 0:
        raise ValueError(f"T_step must be positive, got {p['T_step']}")
    ladder = list(np.arange(p["T_min"], p["T_max"] + 0.5 * p["T_step"], p["T_step"]))
    out = small_eigenvalue_scan(cos2(p["amplitude"]), ladder)
    r = out[1]
    if len(r["T"]) < 3:
        # too few values for the log fit: its slope would be NaN, not JSON
        raise RuntimeError(f"only {len(r['T'])} of {len(ladder)} T values survive the "
                           "underflow cut; the slope fit needs 3")
    rows = [(float(t), float(l)) for t, l in zip(r["T"], r["lambda"])]
    header = ["t", "lambda"]
    return rows, header, {"slope": r["slope"], "prediction": r["prediction"],
                          "within_10_percent": bool(r["ok"])}


def run_agmon(p):
    from .acceptance import cos2
    from .witten1d import agmon_decay_check

    ladder = _floats(p["T_list"])
    sups = agmon_decay_check(cos2(p["amplitude"]), ladder, b=p["b"])
    rows = [(t, float(s)) for t, s in zip(ladder, sups)]
    header = ["t", "sup_log_u_plus_b_rho"]
    return rows, header, {"spread": float(sups.max() - sups.min())}


def run_cubic(p):
    from .witten1d import cubic_model_eigs

    rows = []
    for t in _floats(p["T_list"]):
        w = cubic_model_eigs(t, p["k"], n_nodes=p["n_nodes"])
        for k, lam in enumerate(w):
            rows.append((t, k, float(lam), float(lam / t ** (2.0 / 3.0))))
    header = ["t", "k", "lambda", "lambda_over_t23"]
    return rows, header, {}


def run_cheeger_muller(p):
    from .morse import cheeger_muller_compare

    out = cheeger_muller_compare(p["theta"], n_grid=p["n_grid"])
    rows = [(p["theta"], out["combinatorial"], out["analytic_exact"],
             out["analytic_fem"], out["gap_comb_exact"], out["gap_fem_exact"])]
    header = ["theta", "comb", "exact", "fem", "gap_comb_exact", "gap_fem_exact"]
    return rows, header, {k: out[k] for k in ("gap_comb_exact", "gap_fem_exact")}


def run_suspension(p):
    from .morse import build_complex, circle_model, gaussian_normalization_probe, suspend

    data = build_complex(circle_model())
    sus = suspend(data, p["N"], T=p["T"])
    probe = gaussian_normalization_probe(p["N"], p["T"], p["T2"])
    rows = [
        (p["N"], sus["chi"], sus["chi_prime"], int(sus["chi_prime_shift_ok"]),
         sus["torsion"], probe["stated"]["ratio"], probe["probability"]["ratio"])
    ]
    header = ["n", "chi", "chi_prime", "chi_prime_shift_ok", "torsion",
              "stated_ratio", "probability_ratio"]
    return rows, header, {"T_independent_choice": probe["T_independent_choice"]}


RUNNERS = {
    "torsion": run_torsion,
    "anomaly": run_anomaly,
    "birth-death": run_birth_death,
    "witten-glue": run_witten_glue,
    "small-eig": run_small_eig,
    "agmon": run_agmon,
    "cubic": run_cubic,
    "cheeger-muller": run_cheeger_muller,
    "suspension": run_suspension,
}


def parse_config(experiment, file_path=None, overrides=()):
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    schema = SCHEMAS[experiment]
    values = {k: v[1] for k, v in schema.items()}
    pairs = []
    if file_path:
        try:
            with open(file_path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"malformed config line: {line!r}")
                    k, v = line.split("=", 1)
                    pairs.append((k.strip(), v.strip()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"malformed --set entry: {item!r}")
        k, v = item.split("=", 1)
        pairs.append((k.strip(), v.strip()))
    for k, v in pairs:
        if k.startswith(experiment + "."):
            k = k[len(experiment) + 1 :]
        if k == "output_dir":
            continue
        if k not in schema:
            raise ConfigError(f"unknown key '{k}' for experiment '{experiment}'")
        conv = schema[k][0]
        try:
            values[k] = conv(v)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{k}': {v!r}") from exc
    return values


def _write_outputs(outdir, rows, header, extra):
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "result.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(h.lower() for h in header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(extra, fh, indent=2, default=str, sort_keys=True)
        fh.write("\n")
    return csv_path


def cmd_run(args):
    from . import __version__

    try:
        params = parse_config(args.experiment, args.config, args.set or ())
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        rows, header, extra = RUNNERS[args.experiment](params)
    except Exception as exc:
        import numpy as np

        from .graded import IndeterminateKernelError

        # LinAlgError and IndeterminateKernelError subclass ValueError but
        # report numerical failures, not invalid parameters
        numerical = (np.linalg.LinAlgError, IndeterminateKernelError)
        if isinstance(exc, ValueError) and not isinstance(exc, numerical):
            print(f"validation error: {exc}", file=sys.stderr)
            return 2
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    spectra = extra.pop("_spectra", None)
    vecdump = extra.pop("_vector_dump", None)
    wall = time.perf_counter() - t0
    config_record = {
        "experiment": args.experiment,
        "parameters": {k: params[k] for k in sorted(params)},
    }
    digest = hashlib.sha256(
        json.dumps(config_record, sort_keys=True).encode()
    ).hexdigest()
    csv_path = _write_outputs(args.output_dir, rows, header, extra)
    if spectra is not None:
        with open(os.path.join(args.output_dir, "spectra.csv"), "w", newline="") as fh:
            fh.write(",".join(spectra["header"]) + "\n")
            for row in spectra["rows"]:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
    if vecdump is not None:
        with open(os.path.join(args.output_dir, "eigenvectors.txt"), "w") as fh:
            for kk, vec in vecdump["vectors"].items():
                fh.write(f"# eigenvector {kk}\n")
                for node, val in zip(vecdump["nodes"], vec):
                    fh.write(f"{_fmt(node)} {_fmt(val)}\n")
    with open(os.path.join(args.output_dir, "manifest.json"), "w") as fh:
        json.dump(
            {
                "config": config_record,
                "config_sha256": digest,
                "version": __version__,
                "wall_seconds": wall,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {csv_path}")
    return 0


def cmd_verify_all(args):
    from .acceptance import run_all

    results = run_all()
    n_fail = sum(1 for r in results if not r["passed"])
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="torsion-lab",
                                 description="torsion-form numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("experiment", choices=sorted(RUNNERS))
    runp.add_argument("--config", help="flat key=value config file")
    runp.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="override a parameter (repeatable)")
    runp.add_argument("--output-dir", default="torsion_lab_out")
    runp.set_defaults(func=cmd_run)
    ver = sub.add_parser("verify-all", help="run the acceptance suite")
    ver.set_defaults(func=cmd_verify_all)
    args, extras = ap.parse_known_args(argv)
    # accept direct --key value flags for experiment parameters
    extra_sets = []
    i = 0
    while i < len(extras):
        tok = extras[i]
        if tok.startswith("--") and "=" in tok:
            extra_sets.append(tok[2:])
            i += 1
        elif tok.startswith("--") and i + 1 < len(extras):
            extra_sets.append(f"{tok[2:]}={extras[i + 1]}")
            i += 2
        else:
            ap.error(f"unrecognized argument: {tok}")
    if extra_sets:
        if getattr(args, "set", None) is None:
            args.set = []
        args.set = list(args.set) + extra_sets
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
