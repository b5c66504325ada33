"""Value semantics of the public types: read-only, equal and hashed by value, stable repr.

The result types are NamedTuples, and ``RootSystem`` is a read-only class
that compares by its public fields; these tests pin what that keeps.
"""

import pytest

from borelideals import (
    CartanKernelBasis,
    ClassificationEntry,
    DimensionCounts,
    DotOptions,
    IdealClassification,
    IdealLattice,
    InvalidInputError,
    MonomialIdeal,
    MonomialSubalgebra,
    RootSystem,
    ZERO_IDEAL,
    build_lattice,
    cartan_kernel,
    cartan_matrix,
    counts_by_dimension,
    enumerate_nilradical_ideals,
    full_ideal_classification,
    monomial_subalgebra,
    root_system,
)
from borelideals.ideals import NOTE_GENERAL_IDEALS
from borelideals.roots import coxeter_exponents, positive_root_count

A1 = root_system("A", 1)
FULL = MonomialIdeal(((1,),))

ENTRY_REPRS = (
    "ClassificationEntry(ideal=MonomialIdeal(roots=()), kernel=CartanKernelBasis(vectors=()), mixed=False)",
    "ClassificationEntry(ideal=MonomialIdeal(roots=((1,),)), kernel=CartanKernelBasis(vectors=((1,),)), mixed=False)",
)

# Each record type: a builder of fresh instances, an unequal instance of the
# same type, and the repr of what the builder makes (all on A1).
RECORDS = {
    MonomialIdeal: (lambda: MonomialIdeal(((1,),)), ZERO_IDEAL, "MonomialIdeal(roots=((1,),))"),
    CartanKernelBasis: (
        lambda: cartan_kernel(FULL, A1),
        cartan_kernel(ZERO_IDEAL, A1),
        "CartanKernelBasis(vectors=((1,),))",
    ),
    ClassificationEntry: (
        lambda: full_ideal_classification(A1).entries[1],
        full_ideal_classification(A1).entries[0],
        ENTRY_REPRS[1],
    ),
    IdealClassification: (
        lambda: full_ideal_classification(A1),
        IdealClassification(full_ideal_classification(A1).entries[:1]),
        f"IdealClassification(entries=({', '.join(ENTRY_REPRS)}), note={NOTE_GENERAL_IDEALS!r})",
    ),
    IdealLattice: (
        lambda: build_lattice(enumerate_nilradical_ideals(A1), A1),
        IdealLattice((ZERO_IDEAL,), (), (True,)),
        "IdealLattice(nodes=(MonomialIdeal(roots=()), MonomialIdeal(roots=((1,),))), "
        "cover_edges=((0, 1),), abelian=(True, True))",
    ),
    DimensionCounts: (
        lambda: counts_by_dimension(enumerate_nilradical_ideals(A1), A1),
        DimensionCounts({}, 0, 1, 1),
        "DimensionCounts(by_dimension={1: 1}, nonzero_total=1, with_zero_total=2, abelian_total=2)",
    ),
    DotOptions: (
        DotOptions,
        DotOptions(mark_abelian=False),
        "DotOptions(graph_name='ideal_lattice', unicode_alpha=False, mark_abelian=True)",
    ),
    MonomialSubalgebra: (
        lambda: monomial_subalgebra([(1,)], A1),
        MonomialSubalgebra(()),
        "MonomialSubalgebra(roots=((1,),))",
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_read_only_value(cls):
    make, other, text = RECORDS[cls]
    value = make()
    assert type(value) is cls and type(other) is cls
    assert value is not make() and value == make() and value != other
    assert value == tuple(make())  # a NamedTuple equals the plain tuple of its fields
    if cls is DimensionCounts:  # its histogram is a dict, as it was before
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(make())
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], getattr(other, cls._fields[0]))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_record_defaults_and_properties():
    assert DotOptions() == DotOptions("ideal_lattice", False, True)
    entries = full_ideal_classification(A1).entries
    assert IdealClassification(entries).note == NOTE_GENERAL_IDEALS
    assert FULL.dimension == 1 and ZERO_IDEAL.dimension == 0
    assert cartan_kernel(FULL, A1).dimension == 1
    assert [e.kernel_dimension for e in entries] == [0, 1]
    assert monomial_subalgebra([(1,)], A1).dimension == 1


def test_root_system_compares_and_hashes_by_its_public_fields():
    a3 = root_system("A", 3)
    again = root_system("A", 3)
    assert a3 is not again and a3 == again and hash(a3) == hash(again)
    assert a3 != root_system("B", 3)
    assert a3 != (a3.family, a3.rank, a3.cartan, a3.simple_roots, a3.positive_roots, a3.highest_root)
    assert len({a3, again, root_system("B", 3)}) == 2
    # the lazily filled tables are no part of the value
    full_ideal_classification(a3)  # every missing set has an ideal: all 2^3 kernels
    for g in range(len(a3.positive_roots)):
        a3._sum_masks[g]
    assert (len(a3._kernels), len(a3._sum_masks)) == (8, 6)
    assert not again._kernels and not again._sum_masks
    assert a3 == again and hash(a3) == hash(again) and repr(a3) == repr(again)


def test_root_system_builds_its_own_tables():
    e8 = RootSystem("E", 8)
    assert e8 == root_system("E", 8)
    assert e8._up_masks == root_system("E", 8)._up_masks


@pytest.mark.parametrize(
    "family,rank",
    [("H", 3), ("E", 9), ("D", 2), ("A", 0), ("G", 3), ("A", "2"), ("A", 2.0), ("A", True), ("E", None)],
)
def test_root_system_and_its_builder_reject_bad_input_alike(family, rank):
    messages = []
    for build in (RootSystem, root_system, cartan_matrix, coxeter_exponents, positive_root_count):
        with pytest.raises(InvalidInputError) as raised:
            build(family, rank)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1


def test_root_system_repr_shows_its_public_fields():
    assert repr(A1) == (
        "RootSystem(family='A', rank=1, cartan=((2,),), simple_roots=((1,),), "
        "positive_roots=((1,),), highest_root=(1,))"
    )


def test_root_system_is_read_only():
    rs = root_system("A", 3)
    with pytest.raises(AttributeError):
        rs.rank = 4
    with pytest.raises(AttributeError):
        del rs.rank
    with pytest.raises(AttributeError):
        rs.extra = 1
    assert rs.rank == 3


def test_root_system_renders_its_labels():
    rs = root_system("A", 3)
    assert rs.labels()[:3] == ("a1", "a2", "a3")
    assert rs.labels(True)[3] == "α1+α2"
