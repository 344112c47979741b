"""Config-driven command-line front end.

Every run writes ``result.json`` (an envelope with the command, the full
effective parameter set, and the result) into the output directory, plus
optional CSV/SVG artifacts.  Standard output carries a one-line summary;
progress and warnings go to standard error.  Exit codes, by the verdict
(``classify.EXIT_CODES``): 0 resolved and positive, 1 not similar,
degenerating or refused, 2 inconclusive; 64 config errors, 70 computation
errors.

Config files are flat ``key = value`` text with optional ``[section]``
headers; keys match the long flag names and flags override the file.
Each option is stated once, in ``_OPTIONS``, and each command's options,
defaults and ranges once, in ``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from csv import writer as csv_writer
from pathlib import Path

import numpy as np

from . import classify, frames, geometry, monodromy, operators, verify
from .blaschke import BlaschkeProduct
from .errors import ConfigError, DomainError
from .funcspec import parse_function_spec
from .svgout import emit_svg
from .weights import equivalent, growth_classify, parse_weight_id

__all__ = ["main", "run", "parse_config_file"]


def _parse_bounds(text):
    b = tuple(float(p) for p in text.split(","))
    if len(b) != 4 or not (-np.inf < b[0] < b[1] < np.inf and -np.inf < b[2] < b[3] < np.inf):
        raise ValueError("need re_min,re_max,im_min,im_max spanning a finite rectangle")
    return b


def _parse_blaschke(text):
    spec = parse_function_spec(text)
    if not isinstance(spec, BlaschkeProduct):
        raise ValueError("expected a blaschke(...) literal")
    return spec


def _value(value, text):
    return value


def _text(value, text):
    return text


def _weight_id(w, text):
    return w.id


# key: (help, parse of the option text, its parameters echo from (value, text));
# every key is both a --flag and a config key; no command declares ``out``
_OPTIONS = {
    "weights": ("weight preset id, e.g. bergman:alpha=1", parse_weight_id, _weight_id),
    "weights2": ("second weight preset (equivalent)", parse_weight_id, _weight_id),
    "fn": ("function spec expression", parse_function_spec, _text),
    "f1": ("first function spec", parse_function_spec, _text),
    "f2": ("second function spec", parse_function_spec, _text),
    "blaschke": ("blaschke(theta; z1, z2, ...) literal", _parse_blaschke, _text),
    "n-max": ("frame power cutoff", int, _value),
    "trunc": ("row truncation K", int, _value),
    "res": ("index map cells per axis", int, _value),
    "bounds": ("re_min,re_max,im_min,im_max", _parse_bounds, _value),
    "t": ("automorphism parameter in (0,1)", float, _value),
    "probe": ("weight probe horizon", int, _value),
    "normalization": ("Gram normalization: raw, beta or beta-inv", str, _value),
    "csv": ("write CSV artifacts: yes or no", str, _value),
    "out": ("output directory (default .)", None, None),
}


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
            if key != "command" and key not in _OPTIONS:
                col = line.index(key) + 1
                raise ConfigError(f"unknown key {key!r}", line=lineno, column=col)
            options[key] = value.strip()
    return options


def _progress(msg):
    print(msg, file=sys.stderr)


def _write_json(out_dir, name, payload):
    """Write the non-empty dict ``payload`` as ``json.dump`` with sorted keys
    and indent 1 writes it, plus a newline.

    A value that is a 2-D integer array (at least 1 x 1, of a small range of
    values like the int16 index grid) is written as its nested lists would
    be, but from its rows with ``str.join`` and a table of the texts of the
    values in its range, without the pure-Python encoder.
    """
    items = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, np.ndarray):
            lo = int(value.min())
            names = np.array([str(v) for v in range(lo, int(value.max()) + 1)], dtype=object)
            cells = names[value.astype(np.intp) - lo].tolist()
            rows = ("  [\n   " + ",\n   ".join(row) + "\n  ]" for row in cells)
            text = "[\n" + ",\n".join(rows) + "\n ]"
        else:
            text = json.dumps(value, sort_keys=True, indent=1, allow_nan=False).replace("\n", "\n ")
        items.append(f" {json.dumps(key)}: {text}")
    path = Path(out_dir) / name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(items) + "\n}\n")
    return str(path)


def _sanitize(value):
    """JSON-safe copy: numpy scalars to python, non-finite to strings."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    return value


# -- command implementations -------------------------------------------------
# Each takes the output directory and its parsed options (``n-max`` as n_max)
# and returns (result, exit code, summary line, paths of the artifacts written).


def _cmd_weights_classify(out, weights, probe):
    rep = growth_classify(weights, probe)
    result = {
        "probe_limit": rep.probe_limit,
        "sup_val": rep.sup_val,
        "tail_trend": rep.tail_trend,
        "classification": rep.classification,
        "certified": rep.certified,
    }
    tag = "certified" if rep.certified else "empirical"
    return result, 0, (
        f"weights-classify {weights.id}: {rep.classification} ({tag}), "
        f"sup {rep.sup_val:.6g}, trend {rep.tail_trend:+.3g}"
    ), ()


def _cmd_equivalent(out, weights, weights2, probe):
    ok, K1, K2 = equivalent(weights, weights2, probe)
    result = {"equivalent": bool(ok), "K1": K1, "K2": K2, "probe": probe}
    return result, 0, (
        f"equivalent {weights.id} ~ {weights2.id}: {ok} "
        f"(ratio range [{K1:.6g}, {K2:.6g}] over k <= {probe})"
    ), ()


def _cmd_gram(out, weights, blaschke, n_max, trunc, normalization, csv):
    F = frames.build_frame(blaschke, weights, n_max, trunc)
    G = frames.gram(F, normalization)
    herm = float(np.max(np.abs(G.matrix - G.matrix.conj().T)))
    result = {
        "normalization": normalization,
        "shape": list(G.matrix.shape),
        "hermitian_dev": herm,
        "max_tail": float(np.max(G.column_tails)) if G.column_tails.size else 0.0,
        "conjugator": F.conjugator_zero(),
    }
    artifacts = []
    if csv == "yes":
        path = str(Path(out) / "gram.csv")
        operators.dump_matrix_csv(G.matrix, path)
        result["csv"] = "gram.csv"
        artifacts.append(path)
    return result, 0, (
        f"gram {normalization} {G.matrix.shape[0]}x{G.matrix.shape[1]}: "
        f"hermitian dev {herm:.3e}, tail {result['max_tail']:.3e}"
    ), artifacts


def _cmd_riesz(out, weights, blaschke, n_max, trunc):
    _progress(f"building frame for {weights.id}, order {blaschke.order}, "
              f"n_max {n_max}, K {trunc}")
    F = frames.build_frame(blaschke, weights, n_max, trunc)
    rep = frames.riesz_bounds(F)
    result = {**rep.to_dict(), "conjugator": F.conjugator_zero()}
    return result, classify.EXIT_CODES[rep.verdict], (
        f"riesz {weights.id}: c1 {rep.c1:.6g}, c2 {rep.c2:.6g}, cond {rep.cond:.4g}, "
        f"verdict {rep.verdict}"
    ), ()


def _cmd_index_map(out, fn, bounds, res):
    _progress(f"index map on {bounds} at {res}x{res}")
    imap = geometry.index_map(fn, bounds, res)
    svg_path = str(Path(out) / "map.svg")
    emit_svg(imap, svg_path)
    grid_path = _write_json(out, "grid.json", {
        "bounds": list(imap.bounds),
        "resolution": imap.resolution,
        "grid": imap.grid,
    })
    # artifact references are relative so identical configs give identical bytes
    result = {
        "bounds": list(imap.bounds),
        "resolution": imap.resolution,
        "index_values": imap.index_values,
        "cells_per_index": {str(v): n for v, n in imap.cells_per_index.items()},
        "probes": [
            {"omega": [o.real, o.imag], "index": n} for o, n in imap.probes
        ],
        "branch_values": [[b.real, b.imag] for b in imap.branch_points],
        "svg": "map.svg",
        "grid": "grid.json",
    }
    return result, 0, (
        f"index-map: values {imap.index_values}, "
        f"{len(imap.probes)} probes cross-checked, svg {svg_path}"
    ), [svg_path, grid_path]


def _cmd_decompose(out, fn):
    dec = monodromy.decompose(fn)
    return dec.to_dict(), 0, (
        f"decompose: m = {dec.m}, residual {dec.residual:.3e} "
        f"({'indecomposable' if dec.m == 1 else f'inner order {dec.m}'})"
    ), ()


def _cmd_jordan(out, weights, fn, trunc):
    j = classify.jordan(fn, weights, K=trunc)
    m = j.decomposition.m
    failed = j.certificate is not None and not j.certificate.accepted
    result = {
        "m": m,
        "direct_residual": None if np.isnan(j.direct_residual) else j.direct_residual,
        "checked_columns": j.checked_columns,
        "decomposition": j.decomposition.to_dict(),
        "certificate": j.certificate.to_dict() if j.certificate else None,
    }
    return result, int(failed), (
        f"jordan: m = {m}, direct residual "
        f"{j.direct_residual if j.checked_columns else 0.0:.3e}, "
        f"certificate {'failed' if failed else 'trivial' if m == 1 else 'accepted'}"
    ), ()


def _cmd_similar(out, weights, f1, f2, trunc):
    v = classify.similar(f1, f2, weights, K=trunc)
    summary = f"similar: {v.status}" + (f" ({v.reason})" if v.reason else "")
    return v.to_dict(), v.exit_code, summary, ()


def _cmd_kaplansky(out, weights, f1, f2, trunc):
    double, single, consistent = classify.kaplansky(f1, f2, weights, K=trunc)
    result = {
        "double": double.to_dict(),
        "single": single.to_dict(),
        "consistent": bool(consistent),
    }
    code = single.exit_code if single.status == "inconclusive" else int(not consistent)
    return result, code, (
        f"kaplansky: double {double.status}, single {single.status}, "
        f"consistent {consistent}"
    ), ()


def _cmd_douglas(out, weights, blaschke, trunc, n_max):
    cert = classify.douglas_intertwiner(blaschke, weights, K=trunc, n_max=n_max)
    return cert.to_dict(), 0 if cert.accepted else 1, (
        f"douglas: residual {cert.residual:.3e}, cond {cert.cond:.4g}, "
        f"{'accepted' if cert.accepted else 'failed'}"
    ), ()


def _cmd_counterexample(out, weights, t, n_max, csv):
    rep = classify.counterexample_probe(t, weights, n_max)
    result = rep.to_dict()
    artifacts = []
    if csv == "yes":
        path = str(Path(out) / "profile.csv")
        with open(path, "w", newline="") as fh:
            writer = csv_writer(fh)
            writer.writerow(["n", "r_n"])
            for n, r in enumerate(rep.profile):
                writer.writerow([n, f"{r:.17g}"])
        result["csv"] = "profile.csv"
        artifacts.append(path)
    return result, classify.EXIT_CODES[rep.verdict], (
        f"counterexample {weights.id} t={t}: {rep.verdict} "
        f"({rep.reason + '; ' if rep.reason else ''}cond {rep.cond_trend}, r_n {rep.profile_trend})"
    ), artifacts


def _cmd_verify(out):
    passed, failed, records = verify.run_all()
    result = {"passed": passed, "failed": failed, "checks": records}
    return result, 0 if failed == 0 else 1, f"verify: {passed} passed, {failed} failed", ()


_WEIGHTS = ("hardy", None)
_BERGMAN = ("bergman:alpha=1", None)
_BLASCHKE = ("blaschke(0; 0, 0.5)", None)
_TRUNC = ("512", lambda k: k >= 8)
_CSV = ("yes", lambda c: c in ("yes", "no"))

# command: (implementation, {option: (default text, range check or None)}),
# options parsed in this order
_COMMANDS = {
    "weights-classify": (_cmd_weights_classify, {
        "weights": _WEIGHTS, "probe": ("10000", lambda k: k >= 10)}),
    "equivalent": (_cmd_equivalent, {
        "weights": _WEIGHTS, "weights2": _WEIGHTS, "probe": ("10000", lambda k: k >= 1)}),
    "gram": (_cmd_gram, {
        "weights": _WEIGHTS, "blaschke": _BLASCHKE, "n-max": ("40", lambda n: n >= 0),
        "trunc": ("256", lambda k: k >= 8),
        "normalization": ("raw", lambda n: n in ("raw", "beta", "beta-inv")), "csv": _CSV}),
    "riesz": (_cmd_riesz, {
        "weights": _WEIGHTS, "blaschke": _BLASCHKE, "n-max": ("100", lambda n: n >= 0),
        "trunc": _TRUNC}),
    "index-map": (_cmd_index_map, {
        "fn": ("poly(2,1,1)", None), "bounds": ("-1,5,-3,3", None),
        "res": ("400", lambda r: 1 <= r <= 2048)}),
    "decompose": (_cmd_decompose, {"fn": ("poly(0,1,0,2)", None)}),
    "jordan": (_cmd_jordan, {
        "weights": _BERGMAN, "fn": ("poly(0,1,0,2)", None), "trunc": _TRUNC}),
    "similar": (_cmd_similar, {
        "weights": _BERGMAN, "f1": ("poly(0,0,1)", None), "f2": ("poly(0,0,1)", None),
        "trunc": _TRUNC}),
    "kaplansky": (_cmd_kaplansky, {
        "weights": _BERGMAN, "f1": ("poly(0,0,1)", None), "f2": ("poly(0,0,1)", None),
        "trunc": _TRUNC}),
    "douglas": (_cmd_douglas, {
        "weights": _BERGMAN, "blaschke": _BLASCHKE, "trunc": _TRUNC,
        "n-max": ("100", lambda n: n >= 1)}),
    "counterexample": (_cmd_counterexample, {
        "weights": ("reciprocal:nln", None), "t": ("0.5", lambda t: 0.0 < t < 1.0),
        "n-max": ("400", lambda n: n >= 2), "csv": _CSV}),
    "verify": (_cmd_verify, {}),
}


def run(command, options):
    """Run ``command`` on the option texts ``options``; returns the exit status.

    Each option the command declares is parsed from its text (or its default)
    in table order; a value that does not parse (a bad number, a Blaschke zero
    outside the disk, a weight parameter out of range) or fails the range
    check is a configuration error.  Options the command does not declare are
    ignored.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    impl, declared = _COMMANDS[command]
    values, params = {}, {}
    for key, (default, valid) in declared.items():
        _, parse, echo = _OPTIONS[key]
        text = options.get(key, default)
        try:
            value = parse(text)
        except (DomainError, ValueError, TypeError, OSError) as exc:
            raise ConfigError(f"bad value {text!r} for {key}: {exc}") from None
        if valid is not None and not valid(value):
            raise ConfigError(f"value {text!r} for {key} is out of range")
        values[key.replace("-", "_")] = value
        params[key] = echo(value, text)
    out = options.get("out", ".")
    os.makedirs(out, exist_ok=True)
    result, code, summary, artifacts = impl(out, **values)
    envelope = {"command": command, "parameters": _sanitize(params), "result": _sanitize(result)}
    path = _write_json(out, "result.json", envelope)
    for note in artifacts:
        _progress(f"wrote {note}")
    _progress(f"wrote {path}")
    print(summary)
    return code


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 64 like every configuration error, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser():
    parser = _Parser(
        prog="bundle-lab",
        description="finite-truncation laboratory for weighted Hardy space geometry",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), nargs="?")
    parser.add_argument("--config", help="key = value config file")
    for key, (help_text, _, _) in _OPTIONS.items():
        parser.add_argument(f"--{key}", dest=key, help=help_text)
    return parser


_VALUE_FLAGS = {"--config"} | {f"--{key}" for key in _OPTIONS}


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
        args = vars(parser.parse_args(_preprocess(list(sys.argv[1:] if argv is None else argv))))
        if args["config"]:
            options.update(parse_config_file(args["config"]))
        options.update((key, args[key]) for key in _OPTIONS if args[key] is not None)
        command = args["command"] or options.get("command")
        if not command:
            parser.print_usage(sys.stderr)
            raise ConfigError("no command given (argument or config 'command =')")
        return run(command, options)
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
