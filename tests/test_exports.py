"""The package namespace is exactly the concatenation of its modules' lists,
and its surface is pinned: a new public name, defaulted parameter or CLI
flag shows up as a one-line diff here."""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import catvis
from catvis.cli import _FLAGS

MODULES = ("fock", "operators", "phase_space", "heisenberg", "experiment")


@pytest.mark.parametrize("name", MODULES)
def test_reexported_names_are_in_their_module_list(name):
    module = importlib.import_module(f"catvis.{name}")
    reexported = {
        attr
        for attr, value in vars(catvis).items()
        if not attr.startswith("_")
        and getattr(value, "__module__", None) == module.__name__
    }
    assert reexported, f"catvis re-exports nothing from catvis.{name}"
    assert reexported <= set(module.__all__)


def test_package_list_resolves_once_and_is_public():
    names = catvis.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        assert hasattr(catvis, name)


def test_package_names_are_pinned():
    assert sorted(catvis.__all__) == [
        "BeamSplitter",
        "BranchTerm",
        "ContrastReport",
        "CoverageWarning",
        "ExperimentParams",
        "FringeFit",
        "FringeScan",
        "ModeState",
        "OverlapWarning",
        "QGrid",
        "TruncationError",
        "TwoModeState",
        "beam_split_term",
        "bs_fock_apply",
        "bs_label_pair_map",
        "cat_fock",
        "cat_norm_constant",
        "cat_quadrature_stats",
        "coherent_fock",
        "coherent_overlap",
        "contrast_report",
        "default_cutoff",
        "environment_overlap_oracle",
        "fit_fringe",
        "fock_brute_force_visibility",
        "fringe_scan",
        "initial_cat_terms",
        "integrate_q_term",
        "interference_reduced_a",
        "q_full",
        "q_integral_visibility",
        "q_marginal",
        "sweep",
        "visibility_closed_form",
    ]


def test_source_stays_within_its_line_budget():
    # ``cat src/catvis/*.py | wc -l``: a ceiling, so the package may shrink
    # but any growth shows up here
    package = Path(catvis.__file__).parent
    lines = sum(p.read_bytes().count(b"\n") for p in package.glob("*.py"))
    assert lines <= 2457


def _defaulted(name, obj):
    """``(name, parameter)`` for each defaulted parameter of a public
    function, of a dataclass's fields and of a class's public methods."""
    if not inspect.isclass(obj):
        return {
            (name, p.name)
            for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty
        }
    pairs = set()
    if dataclasses.is_dataclass(obj):
        pairs |= {
            (name, f.name) for f in dataclasses.fields(obj)
            if f.init and (f.default is not dataclasses.MISSING
                           or f.default_factory is not dataclasses.MISSING)
        }
    for attr, value in vars(obj).items():
        value = getattr(value, "__func__", value)  # class and static methods
        if not attr.startswith("_") and inspect.isfunction(value):
            pairs |= _defaulted(f"{name}.{attr}", value)
    return pairs


def test_defaulted_parameters_are_pinned():
    found = set()
    for name in catvis.__all__:
        obj = getattr(catvis, name)
        if callable(obj):
            found |= _defaulted(name, obj)
    assert found == {
        ("ExperimentParams", "cutoff_a"),
        ("ExperimentParams", "cutoff_b"),
        ("QGrid", "center_a"),
        ("QGrid", "center_b"),
        ("QGrid", "extent"),
        ("QGrid", "spacing"),
        ("cat_fock", "cutoff"),
        ("coherent_fock", "cutoff"),
        ("fringe_scan", "n_theta"),
        ("integrate_q_term", "grid"),
        ("sweep", "include_brute"),
        ("sweep", "include_fringe"),
        ("sweep", "n_theta"),
    }


def test_cli_flags_are_pinned():
    assert [flag.opts for flag in _FLAGS] == [
        ("--alpha0",), ("--alpha0-phase",), ("--phi",), ("--R",),
        ("--format",), ("--output",), ("--degrees",), ("-v", "--verbose"),
        ("--R-values",), ("--alpha0-values",), ("--phi-values",),
        ("--brute-force",), ("--fringe",), ("--cutoff-a",), ("--cutoff-b",),
        ("--qmode",), ("--stage",), ("--extent",), ("--spacing",),
        ("--n-theta",),
    ]
