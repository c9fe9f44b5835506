"""Consent-evolution authorization engine.

A ledger of time-stamped consents and events over a growing concept
hierarchy, a decision procedure for collection/access authorization
that understands retroactive and non-retroactive grants and
withdrawals, a small scripting language for scenarios, and an ex-post
log monitor.

`import consentry` loads the ledger and its parts; the script interpreter
(`consentry.script`) and the log monitor (`consentry.monitor`) load on
first use of a name they define, so a program that drives `Ledger`
directly never imports them.
"""

from .chronology import StepInterval, advance, format_step, parse_step
from .core import (
    ActionType,
    AuthzQuery,
    ConsentRecord,
    Decision,
    EventRecord,
    Ledger,
    Mode,
    Reason,
    Withdrawal,
)
from .errors import ConsentryError
from .ontology import ConceptGraph, ConceptKind

__version__ = "0.1.0"

__all__ = [
    "ActionType",
    "AuthzQuery",
    "ConceptGraph",
    "ConceptKind",
    "ConsentRecord",
    "ConsentryError",
    "Decision",
    "EventRecord",
    "Ledger",
    "Mode",
    "Reason",
    "RunReport",
    "StepInterval",
    "ViolationReport",
    "Withdrawal",
    "advance",
    "execute",
    "format_step",
    "parse_script",
    "parse_step",
    "print_program",
    "run_script",
    "scan",
    "translate_to_script",
    "__version__",
]

# The names that load a submodule on first access (PEP 562), each mapped to
# the submodule that defines it; a submodule maps to itself.
_LAZY = {
    "script": "script", "RunReport": "script", "execute": "script",
    "parse_script": "script", "print_program": "script", "run_script": "script",
    "monitor": "monitor", "ViolationReport": "monitor", "scan": "monitor",
    "translate_to_script": "monitor",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # found here from now on, without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
