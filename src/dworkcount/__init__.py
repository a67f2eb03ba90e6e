"""Counting F_p-points on Dwork hypersurfaces via p-adic hypergeometric functions.

The stack, bottom up: exact p-adic unit/valuation arithmetic and Teichmuller
lifts (padic), Morita's p-adic gamma and its one table at the arguments
r/(p-1), whose negated entries are the Gross-Koblitz Gauss-sum units (pgamma),
the mGm / mFm evaluators (hyperfun), the Dwork-hypersurface combinatorics and
count formulas (dwork), an exhaustive-enumeration oracle and sweep harness
(oracle), and a CLI (cli).

The count names load with the package; the oracle and evaluator names
(hyperfun, oracle) load on first use, so a count never imports them.
"""

from .dwork import (DworkInstance, InstanceError, canonical_classes, count_ff,
                    count_koblitz, count_main, count_relprime, enumerate_W,
                    k_target, k_working)
from .padic import (PadicError, PadicUnit, PrecisionError, ValuedPadic,
                    char_value, reconstruct_integer, teichmuller)

__all__ = [
    "DworkInstance", "InstanceError", "canonical_classes", "count_ff",
    "count_koblitz", "count_main", "count_relprime", "enumerate_W",
    "k_target", "k_working",
    "FParams", "GParams", "eval_F", "eval_G",
    "CountReport", "brute_count", "brute_count_all", "sweep_verify",
    "PadicError", "PadicUnit", "PrecisionError", "ValuedPadic",
    "char_value", "reconstruct_integer", "teichmuller",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Resolve an oracle or evaluator name on first use (PEP 562)."""
    if name in ("FParams", "GParams", "eval_F", "eval_G"):
        from . import hyperfun as module
    elif name in ("CountReport", "brute_count", "brute_count_all", "sweep_verify"):
        from . import oracle as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
