"""Exact-rational construction of a separately continuous function on Q x Q
whose diagonal pair set is dense while mapping to the single value 1.

The pieces, bottom up: `rationals` fixes exact arithmetic and a bijective
enumeration of Q; `pairing` builds the dense pair sequence with singleton
sections; `cross_extension` builds one continuous interpolant per level on a
cross of lines; `weave` threads them into one function on the whole rational
plane; `oracle` rebuilds it from the pair coordinates alone, as an
independent reference; `verify` certifies the claimed properties at desk
scale; `cli` wraps it all for the command line.
"""

from .cross_extension import CrossFunction
from .oracle import MAX_ORACLE_LEVEL, oracle_eval
from .pairing import Box, Pairing, Point, Refusal, enumerate_box
from .rationals import (
    Rational,
    decimal_approx,
    enumerate_rational,
    format_rational,
    index_of,
    parse_rational,
)
from .verify import (
    Report,
    check_image_density,
    check_oracle_equivalence,
    check_parameter_range,
    check_sections,
    check_singleton_image,
    check_welldefined,
    image_density_search,
    nonfeeble_witness,
    run_suite,
)
from .weave import WovenFunction

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CrossFunction",
    "MAX_ORACLE_LEVEL",
    "Pairing",
    "Point",
    "Rational",
    "Refusal",
    "Report",
    "WovenFunction",
    "check_image_density",
    "check_oracle_equivalence",
    "check_parameter_range",
    "check_sections",
    "check_singleton_image",
    "check_welldefined",
    "decimal_approx",
    "enumerate_box",
    "enumerate_rational",
    "format_rational",
    "image_density_search",
    "index_of",
    "nonfeeble_witness",
    "oracle_eval",
    "parse_rational",
    "run_suite",
    "__version__",
]
