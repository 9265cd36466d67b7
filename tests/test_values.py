"""The immutable value classes: construction, equality, hash, repr, immutability, pickling.

Each class is a Frozen subclass (exactring) with its fields in __slots__,
built by the one Frozen constructor; these tests pin the behaviour the
classes had as frozen dataclasses, and that importing the package pulls in
neither dataclasses nor inspect and loads each module only when one of its
names is first read.
"""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import divisor_cyclotomic, over_brackets

import heckelift
from heckelift import (
    CharacterTable,
    CongruenceFragment,
    CongruenceReport,
    FramedUnknot,
    HookAlexanderReport,
    HookShape,
    LaurentQA,
    LimitMembership,
    LmovReport,
    RingFraction,
    TorusKnot,
    ZAPoly,
    character_table,
    lmov_verdict,
)
from heckelift.exactring import Frozen
from heckelift.zbasis import _cyclotomic

Q = ZAPoly.from_rows({0: [1, 2], 2: [-3]})
# Q's q-rows: 1 + 2 z^2 = 2q^2 - 3 + 2q^-2 at a^0, -3 at a^2
QROWS = ((0, (-2, (2, -3, 2))), (2, (0, (-3,))))
W = ZAPoly.from_rows({1: [5]})
FRAGMENT = CongruenceFragment(True, True, QROWS, None)

# (class, a factory called twice for two equal values, a third value unequal to them)
VALUES = [
    (HookShape, lambda: HookShape(2, 1), HookShape(1, 2)),
    (CharacterTable, lambda: CharacterTable(3, dict(character_table(3).values)),
     character_table(2)),
    (TorusKnot, lambda: TorusKnot(2, 3), TorusKnot(3, 2)),
    (FramedUnknot, lambda: FramedUnknot(-2), FramedUnknot(2)),
    (ZAPoly, lambda: ZAPoly.from_rows({0: [1, 2], 2: [-3]}), W),
    (CongruenceFragment, lambda: CongruenceFragment(True, True, QROWS, None),
     CongruenceFragment(True, False, None, W)),
    (LimitMembership, lambda: LimitMembership(True, LaurentQA.one(), FRAGMENT),
     LimitMembership(False, LaurentQA.one(), FRAGMENT)),
    (HookAlexanderReport,
     lambda: HookAlexanderReport(True, HookShape(1, 0), None, LaurentQA.one()),
     HookAlexanderReport(True, HookShape(0, 1), None, LaurentQA.one())),
    (LmovReport, lambda: lmov_verdict(FramedUnknot(1), (2,)), LmovReport(False, (2,), None, None)),
    (CongruenceReport,
     lambda: CongruenceReport(2, 3, 6, 2, True, True, True, True, QROWS, None, True, 1.5),
     CongruenceReport(2, 3, 6, 2, True, True, True, True, QROWS, None, True, 2.5)),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("cls, make, other", VALUES, ids=IDS)
def test_equality_and_hash(cls, make, other):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and a != tuple(getattr(a, name) for name in cls.__slots__)
    if cls is CharacterTable:
        with pytest.raises(TypeError):  # its values are a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls, make, other", VALUES, ids=IDS)
def test_assignment_raises(cls, make, other):
    a = make()
    for name in cls.__slots__:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls, make, other", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, make, other):
    a = make()
    pickled = [pickle.loads(pickle.dumps(a, protocol)) for protocol in PROTOCOLS]
    for clone in [*pickled, copy.copy(a), copy.deepcopy(a)]:
        assert type(clone) is cls
        assert all(getattr(clone, n) == getattr(a, n) for n in cls.__slots__)
        assert clone == a


def test_quotient_is_a_read_only_view_of_the_q_rows():
    """The quotient converts the stored q-rows each time; it is no field."""
    report = CongruenceReport(2, 3, 6, 2, True, True, True, True, QROWS, None, True, 1.5)
    for value in (FRAGMENT, report):
        assert "quotient" not in type(value).__slots__
        assert value.quotient == Q and value.quotient is not value.quotient
        with pytest.raises(AttributeError):
            value.quotient = Q
    assert report.csv_row()[5] == 1  # the z^2-degree of Q
    assert CongruenceFragment(False, False, None, None).quotient is None


def test_laurent_and_fraction_pickle_at_every_protocol():
    f = LaurentQA({(1, 2): 3, (0, -1): -1, (-2, 0): 1})
    rf = over_brackets(f, 6, (1, 1, 3))
    for protocol in PROTOCOLS:
        g = pickle.loads(pickle.dumps(f, protocol))
        assert type(g) is LaurentQA and g == f and g.terms == f.terms
        r = pickle.loads(pickle.dumps(rf, protocol))
        assert type(r) is RingFraction and r == rf
        assert (r.num, r.scale, r.brackets) == (rf.num, rf.scale, rf.brackets)
    assert copy.deepcopy(f) == f and copy.copy(rf) == rf


@pytest.mark.parametrize("cls, make, other", VALUES, ids=IDS)
def test_repr_names_every_field(cls, make, other):
    a = make()
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__slots__)
    assert repr(a) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(TorusKnot(2, 3)) == "TorusKnot(d=2, m=3)"
    assert repr(FramedUnknot(-1)) == "FramedUnknot(framing=-1)"
    assert repr(HookShape(2, 0)) == "HookShape(arm=2, leg=0)"
    assert repr(ZAPoly.from_rows({1: [5]})) == "ZAPoly(rows=((1, (5,)),))"


def test_validation_and_distinct_classes():
    with pytest.raises(ValueError, match="link"):
        TorusKnot(2, 4)
    with pytest.raises(ValueError):
        TorusKnot(0, 3)
    with pytest.raises(ValueError):
        HookShape(-1, 0)
    with pytest.raises(ValueError):
        HookShape(0, -1)
    # the same numbers in another class are another memo key
    assert FramedUnknot(3) != TorusKnot(1, 3)
    assert len({FramedUnknot(3): 0, TorusKnot(1, 3): 1}) == 2
    assert LmovReport(True, (1,), None, None).detail == ""


def _new_modules(code: str) -> set:
    """Module names that `code` adds to sys.modules in a fresh interpreter."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(heckelift.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
        timeout=60,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_and_verify_load_no_heavy_standard_modules():
    loaded = _new_modules(
        "from heckelift import alexlimit, combinatorics, exactring, hecke, lmov, torus, zbasis"
    )
    assert "heckelift.exactring" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    loaded = _new_modules(
        "from heckelift.cli import main\n"
        "assert main(['verify', '--d', '2', '--m', '3', '--p', '3']) == 0"
    )
    assert not loaded & {"dataclasses", "inspect", "multiprocessing", "tokenize"}
    assert not loaded & {"heckelift.lmov", "heckelift.alexlimit"}


def test_package_names_load_their_module_on_first_use():
    assert not {name for name in _new_modules("import heckelift") if "heckelift." in name}
    loaded = _new_modules("from heckelift import TorusKnot")
    assert "heckelift.torus" in loaded and "heckelift.lmov" not in loaded
    assert len(heckelift.__all__) == 59 and heckelift.__all__ == sorted(set(heckelift.__all__))
    for name in heckelift.__all__:
        value = getattr(heckelift, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    star: dict = {}
    exec("from heckelift import *", star)
    assert set(star) - {"__builtins__"} == set(heckelift.__all__)
    from heckelift import alexlimit, combinatorics, hecke, lmov, torus, zbasis

    assert lmov.lmov_verdict is heckelift.lmov_verdict
    assert {alexlimit, combinatorics, hecke, torus, zbasis} <= set(sys.modules.values())
    with pytest.raises(AttributeError):
        heckelift.no_such_name


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__slots__}


@pytest.mark.parametrize("cls, make, other", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, make, other):
    for value in (make(), other):
        fields = _fields(value)
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        assert by_position == by_keyword == value
        assert _fields(by_keyword) == fields
        # a prefix by position, the rest by keyword, in any keyword order
        mixed = cls(*list(fields.values())[:1], **dict(reversed(list(fields.items())[1:])))
        assert mixed == value


@pytest.mark.parametrize("cls, make, other", VALUES, ids=IDS)
def test_bad_construction_raises_type_error_naming_the_class(cls, make, other):
    fields = _fields(make())
    first, *rest = fields
    with pytest.raises(TypeError, match=cls.__name__):
        cls(**{name: fields[name] for name in rest})  # the first field is missing
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*fields.values(), None)  # one positional too many
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*fields.values(), no_such_field=1)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*fields.values(), **{first: fields[first]})  # a field given twice


def test_lmov_report_detail_defaults_to_empty():
    assert LmovReport._defaults == {"detail": ""}
    assert LmovReport(False, (2,), None, None).detail == ""
    assert LmovReport(passed=True, mu=(1,), z2_fhat=None, min_z_power=None).detail == ""
    assert LmovReport(False, (2,), None, None, "x") == LmovReport(False, (2,), None, None,
                                                                  detail="x")
    for cls, _, _ in VALUES:
        assert cls is LmovReport or not cls._defaults


def _frozen_classes() -> set:
    from heckelift import alexlimit, hecke, lmov, torus, zbasis  # every module with a value class

    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("heckelift.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_only_the_checking_classes_write_a_constructor():
    classes = _frozen_classes()
    assert classes == {cls for cls, _, _ in VALUES}
    own = {cls for cls in classes if "__init__" in cls.__dict__}
    assert own == {TorusKnot, HookShape}


def test_cyclotomic_on_the_binomial_kernel_matches_the_divisor_route():
    for n in range(1, 301):
        assert _cyclotomic(n) == divisor_cyclotomic(n), n


def test_default_sweep_loads_no_heavy_module():
    loaded = _new_modules(
        "from heckelift.cli import main\n"
        "assert main(['sweep']) == 0"
    )
    assert "heckelift.combinatorics" in loaded and "heckelift.zbasis" in loaded
    assert not loaded & {"dataclasses", "inspect", "multiprocessing", "mpmath"}
    assert not loaded & {"heckelift.lmov", "heckelift.alexlimit"}
