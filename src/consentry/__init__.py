"""Consent-evolution authorization engine.

A ledger of time-stamped consents and events over a growing concept
hierarchy, a decision procedure for collection/access authorization
that understands retroactive and non-retroactive grants and
withdrawals, a small scripting language for scenarios, and an ex-post
log monitor.
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
from .monitor import ViolationReport, scan, translate_to_script
from .ontology import ConceptGraph, ConceptKind
from .script import RunReport, execute, parse_script, print_program, run_script

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
