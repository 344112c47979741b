"""JSON schemas for the artifacts the CLI emits.

Every result.json is an envelope {command, parameters, result}; the result
member matches the per-command schema below.  Schemas are plain dicts in
jsonschema draft-07 style so downstream tools can validate without this
package.
"""

_COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
# the zero z_k whose swap psi_k laid a frame out, or null (see frames.build_frame)
_CONJUGATOR = {"anyOf": [{"type": "null"}, _COMPLEX_PAIR]}

GROWTH_REPORT = {
    "type": "object",
    "required": ["probe_limit", "sup_val", "tail_trend", "classification", "certified"],
    "properties": {
        "probe_limit": {"type": "integer", "minimum": 10},
        "sup_val": {"type": "number", "minimum": 0},
        "tail_trend": {"type": "number"},
        "classification": {
            "enum": ["polynomial", "intermediate", "empirical-undetermined"]
        },
        "certified": {"type": "boolean"},
    },
    "additionalProperties": False,
}

RIESZ_REPORT = {
    "type": "object",
    "required": ["c1", "c2", "cond", "K", "n_max", "tail", "stability", "verdict"],
    "properties": {
        "c1": {"type": "number", "minimum": 0},
        "c2": {"type": "number", "minimum": 0},
        "cond": {"type": "number"},
        "K": {"type": "integer"},
        "n_max": {"type": "integer"},
        "tail": {"type": "number"},
        "stability": {"type": "object"},
        "verdict": {"enum": ["Riesz-consistent", "degenerating", "inconclusive"]},
        "conjugator": _CONJUGATOR,  # the riesz command's, not a certificate's copy
    },
    "additionalProperties": False,
}

GRAM_RESULT = {
    "type": "object",
    "required": ["normalization", "shape", "hermitian_dev", "max_tail", "conjugator"],
    "properties": {
        "normalization": {"enum": ["raw", "beta", "beta-inv"]},
        "shape": {"type": "array", "items": {"type": "integer"}},
        "hermitian_dev": {"type": "number"},
        "max_tail": {"type": "number"},
        "conjugator": _CONJUGATOR,
        "csv": {"type": "string"},
    },
    "additionalProperties": False,
}

# An outer factor: the spec itself when m == 1, else the exact rational h.
OUTER_SPEC = {"type": "object", "required": ["spec"],
              "properties": {"spec": {"type": "string"}}, "additionalProperties": False}

_PAIRS = {"type": "array", "items": _COMPLEX_PAIR, "minItems": 1}
OUTER_RATIONAL = {
    "type": "object",
    "required": ["numerator", "denominator", "taylor", "block_score"],
    "properties": {"numerator": _PAIRS, "denominator": _PAIRS, "taylor": _PAIRS,
                   "block_score": {"type": "number", "minimum": 0}},
    "additionalProperties": False,
}

DECOMPOSITION = {
    "type": "object",
    "required": [
        "certificate", "inner_zeros", "inner_theta", "m", "outer",
        "residual", "base_point", "test_points", "branch_values",
        "candidates_tried",
    ],
    "properties": {
        "certificate": {"type": "string"},
        "inner_zeros": {"type": "array", "items": _COMPLEX_PAIR},
        "inner_theta": {"type": "number"},
        "m": {"type": "integer", "minimum": 1},
        "outer": {"oneOf": [OUTER_SPEC, OUTER_RATIONAL]},
        "residual": {"type": "number", "minimum": 0},
        "base_point": _COMPLEX_PAIR,
        "test_points": {"type": "integer", "minimum": 0},
        "branch_values": {"type": "array", "items": _COMPLEX_PAIR},
        "candidates_tried": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

CERTIFICATE = {
    "type": "object",
    "required": [
        "residual", "cond", "tail", "K", "n_max", "order", "accepted", "conjugator",
    ],
    "properties": {
        "residual": {"type": "number"},
        "cond": {"type": "number"},
        "tail": {"type": "number", "minimum": 0},
        "K": {"type": "integer"},
        "n_max": {"type": "integer"},
        "order": {"type": "integer"},
        "accepted": {"type": "boolean"},
        "riesz": {"anyOf": [{"type": "null"}, RIESZ_REPORT]},
        "conjugator": _CONJUGATOR,
    },
    "additionalProperties": False,
}

VERDICT = {
    "type": "object",
    "required": ["status", "reason", "evidence"],
    "properties": {
        "status": {"enum": ["similar", "not_similar", "inconclusive"]},
        "reason": {"type": "string"},
        "evidence": {"type": "object"},
    },
    "additionalProperties": False,
}

JORDAN_RESULT = {
    "type": "object",
    "required": ["m", "direct_residual", "checked_columns", "decomposition"],
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "direct_residual": {"type": ["number", "null"]},
        "checked_columns": {"type": "integer"},
        "decomposition": DECOMPOSITION,
        "certificate": {"anyOf": [{"type": "null"}, CERTIFICATE]},
    },
    "additionalProperties": False,
}

KAPLANSKY_RESULT = {
    "type": "object",
    "required": ["double", "single", "consistent"],
    "properties": {
        "double": VERDICT,
        "single": VERDICT,
        "consistent": {"type": "boolean"},
    },
    "additionalProperties": False,
}

INDEX_MAP_RESULT = {
    "type": "object",
    "required": ["bounds", "resolution", "index_values", "cells_per_index",
                 "probes", "svg", "grid"],
    "properties": {
        "bounds": {"type": "array", "items": {"type": "number"}},
        "resolution": {"type": "integer"},
        "index_values": {"type": "array", "items": {"type": "integer"}},
        "cells_per_index": {"type": "object"},
        "probes": {"type": "array"},
        "svg": {"type": "string"},
        "grid": {"type": "string"},
        "branch_values": {"type": "array", "items": _COMPLEX_PAIR},
    },
    "additionalProperties": False,
}

_TREND = {"enum": ["converging", "diverging", "open"]}  # frames.ladder_trend

COUNTEREXAMPLE_RESULT = {
    "type": "object",
    "required": ["t", "weights", "n_max", "ladder", "cond_trend", "profile_trend",
                 "verdict", "reason", "profile_head", "profile_last"],
    "properties": {
        "t": {"type": "number"},
        "weights": {"type": "string"},
        "n_max": {"type": "integer"},
        "ladder": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n_max", "K", "cond", "r", "tail"],
                "properties": {
                    "n_max": {"type": "integer"},
                    "K": {"type": "integer"},
                    "cond": {"type": "number"},
                    "r": {"type": "number"},
                    "tail": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
        "cond_trend": _TREND,
        "profile_trend": _TREND,
        "verdict": {"type": "string"},
        "reason": {"type": "string"},
        "profile_head": {"type": "array", "items": {"type": "number"}},
        "profile_last": {"type": "number"},
        "csv": {"type": "string"},
    },
    "additionalProperties": False,
}

EQUIVALENCE_RESULT = {
    "type": "object",
    "required": ["equivalent", "K1", "K2", "probe"],
    "properties": {
        "equivalent": {"type": "boolean"},
        "K1": {"type": "number"},
        "K2": {"type": "number"},
        "probe": {"type": "integer"},
    },
    "additionalProperties": False,
}

VERIFY_RESULT = {
    "type": "object",
    "required": ["passed", "failed", "checks"],
    "properties": {
        "passed": {"type": "integer"},
        "failed": {"type": "integer"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ok", "info"],
                "properties": {
                    "name": {"type": "string"},
                    "ok": {"type": "boolean"},
                    "info": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

ENVELOPE = {
    "type": "object",
    "required": ["command", "parameters", "result"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "result": {"type": "object"},
    },
    "additionalProperties": False,
}

BY_COMMAND = {
    "weights-classify": GROWTH_REPORT,
    "equivalent": EQUIVALENCE_RESULT,
    "gram": GRAM_RESULT,
    "riesz": RIESZ_REPORT,
    "index-map": INDEX_MAP_RESULT,
    "decompose": DECOMPOSITION,
    "jordan": JORDAN_RESULT,
    "similar": VERDICT,
    "kaplansky": KAPLANSKY_RESULT,
    "douglas": CERTIFICATE,
    "counterexample": COUNTEREXAMPLE_RESULT,
    "verify": VERIFY_RESULT,
}
