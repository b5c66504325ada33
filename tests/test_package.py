"""What a command loads: the package's lazy attributes and the CLI's per-handler imports.

Each command runs in a fresh interpreter, so ``sys.modules`` afterwards holds
exactly what it loaded (and, without a bytecode cache, compiled).
"""

import json
import subprocess
import sys

import pytest

import borelideals

# Every name ``borelideals`` exported when it imported all its submodules up front.
EXPORTED = {
    "errors": ["CapacityError", "InvalidInputError", "StructuralError"],
    "roots": [
        "CartanMatrix", "Root", "RootSystem", "cartan_matrix", "coroot_pairing",
        "dynkin_description", "generate_positive_roots", "is_root", "reflect_simple",
        "root_ascii", "root_height", "root_sort_key", "root_system", "root_vector_str",
    ],
    "borel": [
        "BasisElement", "BorelBasis", "CartanGenerator", "RootVector", "basis_element_ascii",
        "borel_basis", "monomial_bracket", "nilradical_basis",
    ],
    "ideals": [
        "CartanKernelBasis", "ClassificationEntry", "IdealClassification", "MonomialIdeal",
        "ZERO_IDEAL", "abelian_ideals", "brute_force_ideals", "cartan_kernel",
        "enumerate_nilradical_ideals", "extension_candidates", "full_ideal_classification",
        "ideal_ascii", "ideal_sort_key", "is_abelian", "is_monomial_ideal",
        "one_dimensional_ideals",
    ],
    "lattice": [
        "DimensionCounts", "DotOptions", "IdealLattice", "build_lattice",
        "counts_by_dimension", "export_dot",
    ],
    "subalgebras": [
        "MonomialSubalgebra", "is_monomial_subalgebra", "monomial_centralizer",
        "monomial_normalizer", "monomial_subalgebra",
    ],
}

# Runs ``cli.run`` on the arguments, then prints its status and the modules
# loaded that the package's start-up might have pulled in.  ``dataclasses``
# and ``inspect`` are watched too, so each exact module set below also
# asserts that the command loads neither.
LOADED = """
import contextlib, io, json, sys
from borelideals import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.run(sys.argv[1:])
watched = ("fractions", "decimal", "dataclasses", "inspect")
names = [m for m in sys.modules if m.startswith("borelideals.") or m in watched]
print(json.dumps([status, sorted(n.removeprefix("borelideals.") for n in names)]))
"""


def loaded(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    status, names = json.loads(proc.stdout)
    assert status == 0
    return set(names)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_every_old_export_resolves_lazily(module, name):
    namespace = {}
    exec(f"from borelideals import {name}", namespace)
    assert namespace[name] is getattr(sys.modules[f"borelideals.{module}"], name)
    assert getattr(borelideals, name) is namespace[name]
    assert name in borelideals.__all__
    assert name in dir(borelideals)


def test_all_holds_exactly_the_exports():
    assert sorted(borelideals.__all__) == sorted(n for names in EXPORTED.values() for n in names)


def test_submodules_import_from_the_package():
    from borelideals import ideals, roots

    assert ideals.__name__ == "borelideals.ideals"
    assert roots.root_system is borelideals.root_system


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        borelideals.no_such_name
    with pytest.raises(ImportError):
        exec("from borelideals import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    code = "import sys, borelideals; print(sorted(m for m in sys.modules if m.startswith('borelideals')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['borelideals']\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_roots_loads_only_errors_and_roots(fmt):
    assert loaded("roots", "A", "40", "--format", fmt) == {"cli", "errors", "roots"}


@pytest.mark.parametrize(
    "argv,ideals",
    [
        (["normalizer", "A", "40", "--set", "a1, a1+a2"], False),
        (["centralizer", "D", "24", "--set", "a1", "--format", "json"], False),
        (["check", "B", "20", "--set", "a1, a2"], True),
    ],
    ids=["normalizer", "centralizer", "check"],
)
def test_set_queries_load_no_lattice_or_linear_algebra(argv, ideals):
    want = {"cli", "errors", "roots", "subalgebras"} | ({"ideals"} if ideals else set())
    assert loaded(*argv) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["ideals", "E", "6"],
        ["ideals", "A", "4", "--format", "json"],
        ["abelian", "E", "6"],
        ["lattice", "B", "3", "--format", "dot"],
        ["lattice", "G", "2", "--format", "json"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_listings_other_than_classify_load_no_linear_algebra(argv):
    # a text listing other than the lattice keeps no counts, so it loads no lattice
    lattice = argv[0] == "lattice" or "json" in argv
    assert loaded(*argv) == {"cli", "errors", "roots", "ideals"} | ({"lattice"} if lattice else set())


def test_classify_loads_linear_algebra():
    names = loaded("classify", "A", "3")
    assert {"linalg", "fractions"} <= names
    assert not {"dataclasses", "inspect"} & names
