"""bundle-lab: finite-truncation laboratory for weighted Hardy space geometry.

Weight sequences, truncated series, Blaschke products, operator matrices,
kernel-direction frames with Riesz diagnostics, argument-principle index
maps, inner/outer decomposition by a complete block search, and similarity
verdicts with machine-checkable certificates.
"""

from .blaschke import BlaschkeProduct, MoebiusTransform, moebius
from .funcspec import parse_function_spec
from .series import PowerSeries
from .weights import WeightSequence, parse_weight_id

__version__ = "0.1.0"

__all__ = [
    "BlaschkeProduct",
    "MoebiusTransform",
    "PowerSeries",
    "WeightSequence",
    "moebius",
    "parse_function_spec",
    "parse_weight_id",
    "__version__",
]
