"""Config-driven command-line front end.

Every run writes ``result.json`` (an envelope with the command, the full
effective parameter set, and the result) into the output directory, plus
optional CSV/SVG artifacts.  Standard output carries a one-line summary;
progress and warnings go to standard error.  Exit codes: 0 success (and
"similar"), 1 "not similar", 2 "inconclusive", 64 config errors, 70
computation errors.

Config files are flat ``key = value`` text with optional ``[section]``
headers; keys match the long flag names and flags override the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import classify, frames, geometry, monodromy, operators, verify
from .errors import ConfigError, DomainError
from .funcspec import BlaschkeSpec, parse_function_spec
from .svgout import emit_svg
from .weights import equivalent, growth_classify, parse_weight_id

__all__ = ["main", "run", "RunConfig", "parse_config_file"]

_KNOWN_KEYS = {
    "command", "weights", "weights2", "fn", "f1", "f2", "blaschke",
    "n-max", "trunc", "res", "bounds", "t", "probe", "out", "normalization",
    "csv",
}
_NORMALIZATIONS = ("raw", "beta", "beta-inv")


class RunConfig:
    """Validated command id plus option mapping."""

    def __init__(self, command, options):
        self.command = command
        self.options = options

    def get(self, key, default=None):
        return self.options.get(key, default)


def parse_config_file(path):
    """Flat key = value lines with optional [section] headers.

    Unknown keys are rejected with their line and column.
    """
    options = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", ";")):
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                continue  # sections are organizational only
            if "=" not in stripped:
                raise ConfigError("expected key = value", line=lineno, column=1)
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _KNOWN_KEYS:
                col = line.index(key) + 1
                raise ConfigError(f"unknown key {key!r}", line=lineno, column=col)
            options[key] = value.strip()
    return options


def _progress(msg):
    print(msg, file=sys.stderr)


def _parse_bounds(text):
    b = tuple(float(p) for p in text.split(","))
    if len(b) != 4 or not (-np.inf < b[0] < b[1] < np.inf and -np.inf < b[2] < b[3] < np.inf):
        raise ValueError("need re_min,re_max,im_min,im_max spanning a finite rectangle")
    return b


def _option(config, key, default, parse, valid=lambda value: True):
    """Option ``key`` converted by ``parse``; a ConfigError names the key.

    A value that ``parse`` rejects (a bad number, a Blaschke zero outside the
    disk, a weight parameter out of range) or that fails ``valid`` is a
    configuration error, not a computation error.
    """
    text = config.get(key, default)
    try:
        value = parse(text)
    except (DomainError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad value {text!r} for {key}: {exc}") from None
    if not valid(value):
        raise ConfigError(f"value {text!r} for {key} is out of range")
    return value


def _spec_option(config, key, default):
    """The function spec of option ``key`` and the text it was parsed from."""
    return _option(config, key, default, parse_function_spec), config.get(key, default)


def _blaschke_from(config):
    """The Blaschke product of the ``blaschke`` option and its text."""
    spec, text = _spec_option(config, "blaschke", "blaschke(0; 0, 0.5)")
    if not isinstance(spec, BlaschkeSpec):
        raise ConfigError("expected a blaschke(...) literal")
    return spec.product, text


def _write_json(out_dir, name, payload):
    path = Path(out_dir) / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return str(path)


def _sanitize(value):
    """JSON-safe copy: numpy scalars to python, non-finite to strings."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    return value


def _emit(config, params, result, artifacts=()):
    envelope = {
        "command": config.command,
        "parameters": _sanitize(params),
        "result": _sanitize(result),
    }
    out = config.get("out", ".")
    os.makedirs(out, exist_ok=True)
    path = _write_json(out, "result.json", envelope)
    for note in artifacts:
        _progress(f"wrote {note}")
    _progress(f"wrote {path}")
    return envelope


# -- command implementations -------------------------------------------------


def _cmd_weights_classify(config):
    w = _option(config, "weights", "hardy", parse_weight_id)
    K = _option(config, "probe", 10000, int, lambda k: k >= 10)
    rep = growth_classify(w, K)
    result = {
        "probe_limit": rep.probe_limit,
        "sup_val": rep.sup_val,
        "tail_trend": rep.tail_trend,
        "classification": rep.classification,
        "certified": rep.certified,
    }
    params = {"weights": w.id, "probe": K}
    _emit(config, params, result)
    tag = "certified" if rep.certified else "empirical"
    print(
        f"weights-classify {w.id}: {rep.classification} ({tag}), "
        f"sup {rep.sup_val:.6g}, trend {rep.tail_trend:+.3g}"
    )
    return 0


def _cmd_equivalent(config):
    w = _option(config, "weights", "hardy", parse_weight_id)
    w2 = _option(config, "weights2", "hardy", parse_weight_id)
    K = _option(config, "probe", 10000, int, lambda k: k >= 1)
    ok, K1, K2 = equivalent(w, w2, K)
    result = {"equivalent": bool(ok), "K1": K1, "K2": K2, "probe": K}
    _emit(config, {"weights": w.id, "weights2": w2.id, "probe": K}, result)
    print(
        f"equivalent {w.id} ~ {w2.id}: {ok} "
        f"(ratio range [{K1:.6g}, {K2:.6g}] over k <= {K})"
    )
    return 0


def _cmd_gram(config):
    w = _option(config, "weights", "hardy", parse_weight_id)
    B, blaschke = _blaschke_from(config)
    n_max = _option(config, "n-max", 40, int, lambda n: n >= 0)
    K = _option(config, "trunc", 256, int, lambda k: k >= 8)
    norm = _option(config, "normalization", "raw", str, lambda n: n in _NORMALIZATIONS)
    F = frames.build_frame(B, w, n_max, K)
    G = frames.gram(F, norm)
    herm = float(np.max(np.abs(G.matrix - G.matrix.conj().T)))
    result = {
        "normalization": norm,
        "shape": list(G.matrix.shape),
        "hermitian_dev": herm,
        "max_tail": float(np.max(G.column_tails)) if G.column_tails.size else 0.0,
    }
    artifacts = []
    out = config.get("out", ".")
    os.makedirs(out, exist_ok=True)
    if config.get("csv", "yes") != "no":
        path = str(Path(out) / "gram.csv")
        operators.dump_matrix_csv(G.matrix, path)
        result["csv"] = "gram.csv"
        artifacts.append(path)
    params = {"weights": w.id, "blaschke": blaschke,
              "n-max": n_max, "trunc": K, "normalization": norm,
              "csv": config.get("csv", "yes")}
    _emit(config, params, result, artifacts)
    print(
        f"gram {norm} {G.matrix.shape[0]}x{G.matrix.shape[1]}: "
        f"hermitian dev {herm:.3e}, tail {result['max_tail']:.3e}"
    )
    return 0


def _cmd_riesz(config):
    w = _option(config, "weights", "hardy", parse_weight_id)
    B, blaschke = _blaschke_from(config)
    n_max = _option(config, "n-max", 100, int, lambda n: n >= 0)
    K = _option(config, "trunc", 512, int, lambda k: k >= 8)
    _progress(f"building frame for {w.id}, order {B.order}, n_max {n_max}, K {K}")
    F = frames.build_frame(B, w, n_max, K)
    rep = frames.riesz_bounds(F)
    _emit(config, {"weights": w.id, "blaschke": blaschke,
                   "n-max": n_max, "trunc": K}, rep.to_dict())
    print(
        f"riesz {w.id}: c1 {rep.c1:.6g}, c2 {rep.c2:.6g}, cond {rep.cond:.4g}, "
        f"verdict {rep.verdict}"
    )
    return 0


def _cmd_index_map(config):
    spec, fn = _spec_option(config, "fn", "poly(2,1,1)")
    bounds = _option(config, "bounds", "-1,5,-3,3", _parse_bounds)
    res = _option(config, "res", 400, int, lambda r: 1 <= r <= 2048)
    _progress(f"index map on {bounds} at {res}x{res}")
    imap = geometry.index_map(spec, bounds, res)
    out = config.get("out", ".")
    os.makedirs(out, exist_ok=True)
    svg_path = str(Path(out) / "map.svg")
    emit_svg(imap, svg_path)
    grid_path = _write_json(out, "grid.json", {
        "bounds": list(imap.bounds),
        "resolution": imap.resolution,
        "grid": imap.grid.tolist(),
    })
    # artifact references are relative so identical configs give identical bytes
    counts = {str(v): int(np.sum(imap.grid == v)) for v in imap.index_values}
    result = {
        "bounds": list(imap.bounds),
        "resolution": imap.resolution,
        "index_values": imap.index_values,
        "cells_per_index": counts,
        "probes": [
            {"omega": [o.real, o.imag], "index": n} for o, n in imap.probes
        ],
        "branch_values": [[b.real, b.imag] for b in imap.branch_points],
        "svg": "map.svg",
        "grid": "grid.json",
    }
    _emit(config, {"fn": fn, "bounds": list(bounds), "res": res},
          result, [svg_path, grid_path])
    print(
        f"index-map: values {imap.index_values}, "
        f"{len(imap.probes)} probes cross-checked, svg {svg_path}"
    )
    return 0


def _cmd_decompose(config):
    spec, fn = _spec_option(config, "fn", "poly(0,1,0,2)")
    dec = monodromy.decompose(spec)
    _emit(config, {"fn": fn}, dec.to_dict())
    print(
        f"decompose: m = {dec.m}, residual {dec.residual:.3e} "
        f"({'indecomposable' if dec.m == 1 else f'inner order {dec.m}'})"
    )
    return 0


def _cmd_jordan(config):
    w = _option(config, "weights", "bergman:alpha=1", parse_weight_id)
    spec, fn = _spec_option(config, "fn", "poly(0,1,0,2)")
    K = _option(config, "trunc", 512, int, lambda k: k >= 8)
    j = classify.jordan(spec, w, K=K)
    result = {
        "m": j.m,
        "direct_residual": None if np.isnan(j.direct_residual) else j.direct_residual,
        "checked_columns": j.checked_columns,
        "decomposition": j.decomposition.to_dict(),
        "certificate": j.certificate.to_dict() if j.certificate else None,
    }
    _emit(config, {"weights": w.id, "fn": fn, "trunc": K}, result)
    print(
        f"jordan: m = {j.m}, direct residual "
        f"{j.direct_residual if j.checked_columns else 0.0:.3e}, "
        f"certificate {'accepted' if j.certificate and j.certificate.accepted else 'trivial' if j.m == 1 else 'failed'}"
    )
    return 0


def _cmd_similar(config):
    w = _option(config, "weights", "bergman:alpha=1", parse_weight_id)
    f1, f1_text = _spec_option(config, "f1", "poly(0,0,1)")
    f2, f2_text = _spec_option(config, "f2", "poly(0,0,1)")
    K = _option(config, "trunc", 512, int, lambda k: k >= 8)
    v = classify.similar(f1, f2, w, K=K)
    _emit(config, {"weights": w.id, "f1": f1_text,
                   "f2": f2_text, "trunc": K}, v.to_dict())
    print(f"similar: {v.status}" + (f" ({v.reason})" if v.reason else ""))
    return v.exit_code


def _cmd_kaplansky(config):
    w = _option(config, "weights", "bergman:alpha=1", parse_weight_id)
    f1, f1_text = _spec_option(config, "f1", "poly(0,0,1)")
    f2, f2_text = _spec_option(config, "f2", "poly(0,0,1)")
    K = _option(config, "trunc", 512, int, lambda k: k >= 8)
    double, single, consistent = classify.kaplansky(f1, f2, w, K=K)
    result = {
        "double": double.to_dict(),
        "single": single.to_dict(),
        "consistent": bool(consistent),
    }
    _emit(config, {"weights": w.id, "f1": f1_text,
                   "f2": f2_text, "trunc": K}, result)
    print(
        f"kaplansky: double {double.status}, single {single.status}, "
        f"consistent {consistent}"
    )
    return 0 if consistent else 1


def _cmd_douglas(config):
    w = _option(config, "weights", "bergman:alpha=1", parse_weight_id)
    B, blaschke = _blaschke_from(config)
    K = _option(config, "trunc", 512, int, lambda k: k >= 8)
    n_max = _option(config, "n-max", 100, int, lambda n: n >= 1)
    cert = classify.douglas_intertwiner(B, w, K=K, n_max=n_max)
    _emit(config, {"weights": w.id, "blaschke": blaschke,
                   "trunc": K, "n-max": n_max}, cert.to_dict())
    print(
        f"douglas: residual {cert.residual:.3e}, cond {cert.cond:.4g}, "
        f"{'accepted' if cert.accepted else 'failed'}"
    )
    return 0 if cert.accepted else 1


def _cmd_counterexample(config):
    w = _option(config, "weights", "reciprocal:nln", parse_weight_id)
    t = _option(config, "t", 0.5, float, lambda t: 0.0 < t < 1.0)
    n_max = _option(config, "n-max", 400, int, lambda n: n >= 2)
    rep = classify.counterexample_probe(t, w, n_max)
    result = rep.to_dict()
    out = config.get("out", ".")
    os.makedirs(out, exist_ok=True)
    if config.get("csv", "yes") != "no":
        path = str(Path(out) / "profile.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "r_n"])
            for n, r in enumerate(rep.profile):
                writer.writerow([n, f"{r:.17g}"])
        result["csv"] = "profile.csv"
    _emit(config, {"weights": w.id, "t": t, "n-max": n_max,
                   "csv": config.get("csv", "yes")}, result)
    print(f"counterexample {w.id} t={t}: {rep.verdict} (slope {rep.slope:+.4f})")
    return 0


def _cmd_verify(config):
    passed, failed, records = verify.run_all(report=print)
    result = {"passed": passed, "failed": failed, "checks": records}
    _emit(config, {}, result)
    print(f"verify: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "weights-classify": _cmd_weights_classify,
    "equivalent": _cmd_equivalent,
    "gram": _cmd_gram,
    "riesz": _cmd_riesz,
    "index-map": _cmd_index_map,
    "decompose": _cmd_decompose,
    "jordan": _cmd_jordan,
    "similar": _cmd_similar,
    "kaplansky": _cmd_kaplansky,
    "douglas": _cmd_douglas,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 64 like every configuration error, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
        prog="bundle-lab",
        description="finite-truncation laboratory for weighted Hardy space geometry",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), nargs="?")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--weights", help="weight preset id, e.g. bergman:alpha=1")
    parser.add_argument("--weights2", help="second weight preset (equivalent)")
    parser.add_argument("--fn", help="function spec expression")
    parser.add_argument("--f1", help="first function spec")
    parser.add_argument("--f2", help="second function spec")
    parser.add_argument("--blaschke", help="blaschke(theta; z1, z2, ...) literal")
    parser.add_argument("--n-max", dest="n_max", help="frame power cutoff")
    parser.add_argument("--trunc", help="row truncation K")
    parser.add_argument("--res", help="index map cells per axis")
    parser.add_argument("--bounds", help="re_min,re_max,im_min,im_max")
    parser.add_argument("--t", help="automorphism parameter in (0,1)")
    parser.add_argument("--probe", help="weight probe horizon")
    parser.add_argument("--normalization", choices=_NORMALIZATIONS)
    parser.add_argument("--csv", choices=["yes", "no"], help="write CSV artifacts")
    parser.add_argument("--out", help="output directory (default .)")
    return parser


def run(config):
    """Dispatch a RunConfig; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command](config)


_VALUE_FLAGS = {"--config"} | {f"--{key}" for key in _KNOWN_KEYS - {"command"}}


def _preprocess(argv):
    """Join value flags with their argument so negative values survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None):
    parser = _build_parser()
    options = {}
    try:
        args = parser.parse_args(_preprocess(list(sys.argv[1:] if argv is None else argv)))
        if args.config:
            options.update(parse_config_file(args.config))
        for key in _KNOWN_KEYS - {"command"}:
            val = getattr(args, key.replace("-", "_"))
            if val is not None:
                options[key] = val
        command = args.command or options.get("command")
        if not command:
            parser.print_usage(sys.stderr)
            raise ConfigError("no command given (argument or config 'command =')")
        return run(RunConfig(command, options))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except Exception as exc:  # every other failure is a computation error
        diag = {"error": type(exc).__name__, "message": str(exc)}
        out = options.get("out") or "."
        try:
            os.makedirs(out, exist_ok=True)
            _write_json(out, "error.json", diag)
        except OSError:
            pass
        print(f"computation error: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
