"""Discrete Bayesian inference carried out in information space.

Probabilities become information contents (bits of surprisal), a single
observation's effect on each hypothesis becomes a signed bit transfer,
and the familiar Shannon quantities (KL divergence, mutual information)
fall out as expectations of those transfers. Exact rational arithmetic
is supported end to end, and an independent probability-space oracle
re-derives every number for cross-checking.

The names below load their submodule on first access, so importing the
package (or ``bayesbits.cli``) loads no more than the caller uses. Every
other name is imported from its submodule, e.g. ``bayesbits.errors``.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Distribution": "core",
    "evidence": "engine",
    "local_transfer_entropy": "engine",
    "posterior_prob_info_form": "engine",
    "tic": "engine",
    "transfer_report": "engine",
    "kl_classical": "aggregates",
    "kl_expected_tic": "aggregates",
    "mutual_information": "aggregates",
    "mutual_information_classical": "aggregates",
    "HostPolicy": "scenario",
    "MhpConfig": "scenario",
    "ModelSpace": "scenario",
    "ObservationModel": "scenario",
    "Scenario": "scenario",
    "door_labels": "scenario",
    "load_scenario": "scenario",
    "mhp_scenario": "scenario",
    "save_scenario": "scenario",
    "enumerate_joint": "oracle",
    "oracle_metrics": "oracle",
    "oracle_mi": "oracle",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
