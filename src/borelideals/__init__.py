"""Root systems of simple Lie algebras and the ideals of their Borel subalgebras.

The public names below are loaded on first access (PEP 562), each from its
submodule, so that ``import borelideals`` and a command that needs only
``roots`` load nothing more.
"""

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "errors": "CapacityError InvalidInputError StructuralError",
        "roots": """
            CartanMatrix Root RootSystem cartan_matrix coroot_pairing dynkin_description
            generate_positive_roots is_root monomial_bracket reflect_simple root_ascii
            root_height root_sort_key root_system root_vector_str
        """,
        "ideals": """
            CartanKernelBasis ClassificationEntry IdealClassification MonomialIdeal
            ZERO_IDEAL abelian_ideals brute_force_ideals cartan_kernel
            enumerate_nilradical_ideals extension_candidates full_ideal_classification
            ideal_ascii ideal_sort_key is_abelian is_monomial_ideal one_dimensional_ideals
        """,
        "lattice": """
            DimensionCounts DotOptions IdealLattice build_lattice counts_by_dimension
            export_dot
        """,
        "subalgebras": """
            MonomialSubalgebra is_monomial_subalgebra monomial_centralizer
            monomial_normalizer monomial_subalgebra
        """,
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
