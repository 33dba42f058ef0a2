"""The record decorator against the dataclass methods it replaces.

Each record class is built by ``nhdm._record.record``; its ``__init__``,
``__eq__``, ``__hash__``, ``__repr__``, order methods and frozen attributes
must behave as ``dataclass(frozen=True)`` (with ``order=True``) wrote them,
so that every set and dict of records iterates in the same order.
"""

import dataclasses
import operator
from fractions import Fraction as F

import pytest

from nhdm import classifier, constructions, cpext, exactmath, groups, monomials, torus
from nhdm._record import record
from nhdm.classifier import (ClassificationEntry, SymmetryGroup, classify, probe_conjecture,
                             verify_order_bound, witness_potential)
from nhdm.constructions import ConstructedMatrix, cyclic_c_matrix
from nhdm.cpext import (AbelianBase, CpVerdict, GenPermMatrix, _term_action, backbone_classes,
                        check_z3z3, classify_cp, cp_bases, cp_extensions, cp_realizable)
from nhdm.exactmath import IntMatrix, SnfResult, snf
from nhdm.groups import GroupSignature
from nhdm.monomials import Monomial
from nhdm.torus import PhaseVector, TorusBasis, torus_basis


@record(order=True)
class Pair:
    first: int
    second: tuple = ()


@dataclasses.dataclass(frozen=True, order=True)
class DataPair:
    first: int
    second: tuple = ()


@record
class Single:
    value: tuple


@dataclasses.dataclass(frozen=True)
class DataSingle:
    value: tuple


def fields(r):
    return tuple(getattr(r, name) for name in type(r).__annotations__)


def record_classes():
    """Every class of src/nhdm built by ``record``."""
    return [cls for module in (classifier, constructions, cpext, exactmath, groups, monomials,
                               torus)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and getattr(vars(cls).get("__setattr__"), "__module__", None) == "nhdm._record"]


def samples():
    """Records of several classes, each with an equal copy built apart from it."""
    def copies(make):
        return make(), make()

    sig = GroupSignature((2, 4), 1)
    pv = PhaseVector((F(0), F(1, 3), F(2, 3)))
    return [
        copies(lambda: Monomial(((1, 2), (1, 3)))),
        copies(lambda: GroupSignature((2, 4), 1)),
        copies(lambda: GroupSignature((3,), star=2)),
        copies(lambda: PhaseVector((F(0), F(1, 3), F(2, 3)))),
        copies(lambda: IntMatrix(((1, 2, 3), (4, 5, 6)))),
        copies(lambda: SymmetryGroup(sig, ((F(1, 2), F(0)),), (pv,), ((1, 0),))),
        copies(lambda: snf(IntMatrix(((2, 4), (6, 8))))),
        copies(lambda: GenPermMatrix((1, 0, 2), (F(1, 8), F(3, 8), F(0)))),
        copies(lambda: CpVerdict("realizable", "detail")),
        copies(lambda: AbelianBase.from_lattice(3, [(2, 0), (0, 3)])),
        copies(lambda: Pair(1, (2,))),
        copies(lambda: Single((1, 2))),
    ]


class TestEqualityAndHash:
    @pytest.mark.parametrize("a, b", samples(), ids=lambda r: type(r).__name__)
    def test_equal_records_hash_as_their_field_tuple(self, a, b):
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(fields(a))

    def test_hash_is_the_dataclass_hash(self):
        # one field included: the hash of the 1-tuple, not of the value
        assert hash(Pair(1, (2,))) == hash(DataPair(1, (2,))) == hash((1, (2,)))
        assert hash(Single((1, 2))) == hash(DataSingle((1, 2))) == hash(((1, 2),))
        m = Monomial(((1, 2),))
        assert hash(m) == hash((m.factors,)) != hash(m.factors)

    def test_sets_iterate_as_under_dataclass(self):
        values = [(k % 5, (k,) * (k % 3)) for k in range(40)]
        assert [fields(r) for r in set(Pair(*v) for v in values)] == \
            [fields(r) for r in set(DataPair(*v) for v in values)]

    def test_unequal_fields_and_other_classes(self):
        assert Monomial(((1, 2),)) != Monomial(((1, 3),))
        assert GroupSignature((2,)) != GroupSignature((2,), 1)
        # same fields, another class: __eq__ declines and identity decides
        assert Monomial(((1, 2),)).__eq__(Single(((1, 2),))) is NotImplemented
        assert Monomial(((1, 2),)) != Single(((1, 2),))
        assert Pair(1) != (1, ())

    def test_unhashable_field_fails_as_under_dataclass(self):
        # every field of every record of src/nhdm is hashable, so two test classes stand in
        for made in (Single([1, 2]), DataSingle([1, 2])):
            with pytest.raises(TypeError, match="unhashable"):
                hash(made)


def fresh_records():
    """Records of every class of src/nhdm, each built anew and not yet hashed.

    Each is built again from the fields of a record the library returns,
    except those given fields that ``__post_init__`` rewrites, and two
    unequal records of three classes follow one another.
    """
    base = AbelianBase.from_lattice(3, [(2, 0), (0, 3)])
    candidate = next(c for b in cp_bases(3) for c in cp_extensions(b) if c.sigma != (0, 1, 2))
    action = _term_action((1, 0, 2), True)
    made = [classify(3), classify(3).entries[0], verify_order_bound(3), probe_conjecture(3),
            witness_potential(GroupSignature((2,)), 3), base.group, cyclic_c_matrix(3, 3),
            base, action, action.orbits[0], backbone_classes((1, 0, 2)), candidate,
            cp_realizable(candidate), classify_cp(3), check_z3z3(),
            snf(IntMatrix(((2, 4), (6, 8)))), torus_basis(4)]
    out = [type(r)(*fields(r)) for r in made]
    # __post_init__ rewrites these fields: a list becomes a tuple, a phase is
    # reduced mod 1
    out += [IntMatrix([[1, 2], [3, 4]]), IntMatrix(((5,),)), GroupSignature([2, 4], 1),
            GroupSignature([3]), PhaseVector((F(3, 2), -1, F(-1, 3))),
            PhaseVector((F(7, 5), 2, F(1, 3))),
            GenPermMatrix([1, 0, 2], (F(9, 8), F(-5, 8), 3)), Monomial(((1, 2), (1, 3))),
            Monomial(((2, 3),))]
    return out


class TestHash:
    def test_every_record_hashes_as_its_field_tuple_on_each_use(self):
        # on every use the hash must be that of the fields __post_init__
        # leaves, and belong to its own record
        records = fresh_records()
        assert {type(r) for r in records} == set(record_classes())
        for r in records:
            try:
                expected = hash(fields(r))
            except TypeError:  # a dict field: unhashable on every use
                for _ in range(2):
                    with pytest.raises(TypeError, match="unhashable"):
                        hash(r)
                continue
            assert [hash(r) for _ in range(3)] == [expected] * 3
            assert {r: 1}[type(r)(*fields(r))] == 1

    def test_trusted_records_hash_as_their_field_tuple(self):
        for r in (IntMatrix._trusted(((1, 2),), 2), PhaseVector._trusted((F(1, 2), F(0))),
                  GroupSignature._trusted((2,), 1), PhaseVector._trusted((F(1, 3), F(0)))):
            assert hash(r) == hash(r) == hash(fields(r))


class TestOrder:
    def test_monomials_sort_by_their_factors(self):
        terms = [Monomial(f) for f in (((1, 3),), ((1, 2), (1, 3)), ((1, 2),), ((2, 3),))]
        assert sorted(terms) == sorted(terms, key=lambda m: m.factors)

    def test_signatures_compare_as_field_tuples(self):
        sigs = [GroupSignature(f, r) for f in ((), (2,), (2, 2), (3,)) for r in (0, 1)]
        for a in sigs:
            for b in sigs:
                ka, kb = fields(a), fields(b)
                assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)

    def test_order_matches_dataclass(self):
        values = [(1, ()), (1, (2,)), (0, (5,)), (1, (1, 1))]
        for x in values:
            for y in values:
                assert (Pair(*x) < Pair(*y), Pair(*x) >= Pair(*y)) == \
                    (DataPair(*x) < DataPair(*y), DataPair(*x) >= DataPair(*y))

    def test_other_classes_are_not_ordered(self):
        m, sig = Monomial(((1, 2),)), GroupSignature((2,))
        for method in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(m, method)(sig) is NotImplemented
        with pytest.raises(TypeError):
            operator.lt(m, sig)
        with pytest.raises(TypeError):
            operator.lt(PhaseVector((0, F(1, 2))), PhaseVector((0, F(1, 3))))


class TestFrozen:
    @pytest.mark.parametrize("name", ["factors", "other"])
    def test_assigning_raises_the_dataclass_message(self, name):
        m = Monomial(((1, 2),))
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(m, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(DataSingle(()), name, ())

    def test_deleting_raises_the_dataclass_message(self):
        sig = GroupSignature((2,))
        with pytest.raises(AttributeError, match="^cannot delete field 'finite'$"):
            del sig.finite
        assert sig.finite == (2,)


class TestRepr:
    def test_dataclass_format(self):
        assert repr(GroupSignature((2,), 1)) == "GroupSignature(finite=(2,), torus_rank=1, star=None)"
        assert repr(Monomial(((1, 2),))) == "Monomial(factors=((1, 2),))"
        assert repr(IntMatrix(((1,),))) == "IntMatrix(entries=((1,),), cols=1)"
        assert repr(Pair(1, (2,))) == repr(DataPair(1, (2,))).replace("DataPair", "Pair")

    def test_str_stays_the_class_own(self):
        assert str(GroupSignature((2,), 1)) == "U(1)xZ2"


class TestInit:
    def test_defaults_and_keywords(self):
        assert fields(GroupSignature()) == ((), 0, None)
        assert GroupSignature(torus_rank=1, finite=(2,)) == GroupSignature((2,), 1)
        assert IntMatrix(((1, 2),)).cols == 2
        assert CpVerdict("realizable", "detail").witness is None
        made = ConstructedMatrix(IntMatrix(((2,),)), (1,), (2,), GroupSignature((2,)), ())
        assert made.boundary_orders == ()

    def test_arguments_are_checked_as_by_a_signature(self):
        with pytest.raises(TypeError):
            Monomial()
        with pytest.raises(TypeError):
            Monomial(((1, 2),), ())
        with pytest.raises(TypeError):
            GroupSignature(order=2)

    def test_post_init_checks_still_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError, match="explicit column count"):
            IntMatrix(())
        with pytest.raises(ValueError, match="integers"):
            IntMatrix(((F(1, 2),),))
        with pytest.raises(ValueError):
            PhaseVector((0.5,))
        with pytest.raises(ValueError, match="at least 2"):
            GroupSignature((1,))
        with pytest.raises(ValueError, match="divisibility chain"):
            GroupSignature((2, 3))
        with pytest.raises(ValueError, match="at least 2 doublets"):
            TorusBasis(1)
        with pytest.raises(ValueError, match="not a permutation"):
            GenPermMatrix((0, 0), (0, 0))
        with pytest.raises(ValueError, match="one phase per row"):
            GenPermMatrix((0, 1), (0,))

    def test_post_init_normalizes_fields(self):
        assert PhaseVector((F(3, 2), -1)).phases == (F(1, 2), F(0))
        assert GroupSignature([2, 4]).finite == (2, 4)
        assert IntMatrix([[1, 2]]).entries == ((1, 2),)

    def test_trusted_constructors_make_equal_records(self):
        assert IntMatrix._trusted(((1, 2),), 2) == IntMatrix(((1, 2),))
        assert PhaseVector._trusted((F(1, 2),)) == PhaseVector((F(1, 2),))
        assert GroupSignature._trusted((2,), 1) == GroupSignature((2,), 1)
        assert isinstance(snf(IntMatrix(((2,),))), SnfResult)
        # record writes _trusted for exactly the classes with a __post_init__
        records = record_classes()
        assert sorted(cls.__name__ for cls in records if hasattr(cls, "_trusted")) == \
            sorted(cls.__name__ for cls in records if hasattr(cls, "__post_init__")) == \
            ["GenPermMatrix", "GroupSignature", "IntMatrix", "PhaseVector", "TorusBasis"]
        # the same fields give an equal record with the same hash
        for checked in (IntMatrix(((1, 2), (3, 4))), PhaseVector((F(1, 3), F(0))),
                        GroupSignature((2, 4), 1, star=4), torus_basis(4),
                        GenPermMatrix((1, 0, 2), (F(1, 8), F(3, 8), F(0)))):
            trusted = type(checked)._trusted(*fields(checked))
            assert trusted is not checked and trusted == checked
            assert hash(trusted) == hash(checked) and fields(trusted) == fields(checked)
        assert GroupSignature._trusted((2,), 1).star is None
        assert IntMatrix._trusted.__qualname__ == "IntMatrix._trusted"

        # it skips __post_init__ and keeps the field defaults
        @record
        class Checked:
            value: int
            rest: tuple = ()

            def __post_init__(self):
                raise ValueError("checked")

        with pytest.raises(ValueError, match="checked"):
            Checked(1)
        made = Checked._trusted(1)
        assert fields(made) == (1, ()) and made == Checked._trusted(value=1, rest=())
        with pytest.raises(TypeError):
            Checked._trusted()


class TestCachedProperties:
    def test_abelian_base_reads_its_group_once(self):
        base, twin = AbelianBase.from_lattice(3, [(2, 0), (0, 3)]), \
            AbelianBase.from_lattice(3, [(2, 0), (0, 3)])
        assert "group" not in vars(base)
        group = base.group
        assert vars(base)["group"] is group is base.group
        assert group.signature == GroupSignature((6,))
        # a cached value enters neither == nor hash
        assert base == twin and hash(base) == hash(twin) and "group" not in vars(twin)

    def test_term_action_reduces_its_orbits_once(self):
        action = _term_action((1, 0, 2), True)
        assert action.orbits is action.orbits
        assert sorted(t for orbit in action.orbits for t in orbit.terms) == list(
            range(len(action.images)))

    def test_torus_basis_derives_its_readings_once(self):
        basis = torus_basis(3)
        assert basis.weights is basis.weights
        assert basis.common_weights is basis.common_weights
        assert basis.bilinear_charges is basis.bilinear_charges
        assert basis.charges is basis.charges
        fresh = TorusBasis(3)
        assert fresh == basis and fresh.common_weights == basis.common_weights

    def test_records_of_a_walk_stay_usable_as_keys(self):
        bases = cp_bases(3)
        assert len(set(bases)) == len(bases)
        entry = ClassificationEntry(GroupSignature((2,)), (Monomial(((1, 2),)),), (), 1)
        assert {entry: 1}[ClassificationEntry(GroupSignature((2,)), (Monomial(((1, 2),)),), (), 1)]
