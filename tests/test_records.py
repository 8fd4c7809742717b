"""Value and record types: construction, equality, hashing, repr; the start-up
import path; clear_caches()."""
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import wkostka
from wkostka.factor import FactorizationResult, IcMatrix
from wkostka.fixtures import Fixture
from wkostka.greencheck import VerifyReport, thm55_check
from wkostka.omega import omega_matrix
from wkostka.rpart import (Composition, ContingencyMatrix, OrderedIndex,
                           RPartition, default_total_order)
from wkostka.symgrp import DoubleCoset

from literal_wreath import WreathElement

SRC = Path(wkostka.__file__).resolve().parents[1]

ORDER = default_total_order(1, 2)
CM = ContingencyMatrix(((1, 0), (0, 1)))

# class, field names in order, one instance's field values, another's.
# Every field is given; values are in the canonical form __init__ keeps.
CASES = [
    (Composition, ("parts",), ((2, 0, 1),), ((1, 1, 1),)),
    (RPartition, ("parts",), (((2, 1), (), (1,)),), (((2, 1), (1,), ()),)),
    (OrderedIndex, ("items",), (ORDER.items,),
     (default_total_order(1, 3).items,)),
    (ContingencyMatrix, ("rows",), (((1, 0), (0, 1)),), (((0, 1), (1, 0)),)),
    (DoubleCoset, ("label", "rep", "size", "members"),
     (CM, (0, 1), 1, ((0, 1),)), (CM, (1, 0), 1, ((1, 0),))),
    (WreathElement, ("sigma", "colors", "r"),
     ((1, 0), (0, 2), 3), ((1, 0), (1, 2), 3)),
    (IcMatrix, ("raw", "in_s", "column_asserted"),
     ((1,), (1,), None), ((1,), (None,), None)),
    (FactorizationResult,
     ("omega", "p_minus", "p_plus", "lam", "a_values", "theta",
      "lambda_prime", "p_plus_modified", "ic_minus", "ic_plus"),
     tuple(range(10)), tuple(range(1, 11))),
    (VerifyReport, ("suite", "params", "violations", "checked"),
     ("lemma59", {"n": 2}, [], 3), ("lemma59", {"n": 2}, ["x"], 3)),
    (Fixture,
     ("id", "order", "a_values", "p_minus", "p_plus", "xi",
      "omega", "theta", "lambda_prime", "p_plus_modified",
      "p_minus_modified", "ic_minus_printed", "ic_plus_printed",
      "ic_plus_candidate", "errata"),
     ("n1r2", ORDER, [0, 1]) + (None,) * 11 + ({},),
     ("n1r2", ORDER, [0, 2]) + (None,) * 11 + ({},)),
]
MUTABLE = {VerifyReport, Fixture}


@pytest.mark.parametrize("cls,fields,values,other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, values, other):
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert tuple(getattr(a, f) for f in fields) == values
    assert a == b and not a != b
    assert pickle.loads(pickle.dumps(a)) == a
    assert a != cls(*other)
    # equality needs the same class, not only equal fields
    sub = type(cls.__name__, (cls,), {})
    assert a != sub(*values) and sub(*values) != a
    assert a != values
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[1], values[1])
    else:
        assert hash(a) == hash(b) == hash(values)
        with pytest.raises(AttributeError):
            setattr(a, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(a, fields[0])


def test_defaults():
    ic = IcMatrix((), ())
    assert ic.column_asserted is None
    first, second = VerifyReport("s", {}), VerifyReport("s", {})
    assert (first.violations, first.checked) == ([], 0)
    first.violations.append("x")
    assert second.violations == []
    fx, gx = Fixture("id", ORDER, [0]), Fixture("id", ORDER, [0])
    assert fx.p_minus is None and fx.ic_plus_candidate is None
    assert fx.errata == {} and fx.errata is not gx.errata
    with pytest.raises(TypeError):
        VerifyReport("s")
    with pytest.raises(TypeError):
        VerifyReport("s", {}, suite="t")
    with pytest.raises(TypeError):
        IcMatrix((), (), None, None)


def test_ordered_index_position_is_not_a_field():
    a = OrderedIndex(ORDER.items)
    assert "_pos" not in repr(a)
    assert [a.position(lam) for lam in ORDER.items] == [0, 1]


def test_validation_and_normalisation_stay():
    assert Composition([True, 0]).parts == (1, 0)
    assert type(Composition([True, 0]).parts[0]) is int
    assert RPartition([[2, 1], []]).parts == ((2, 1), ())
    assert ContingencyMatrix([[1.0]]).rows == ((1,),)
    assert WreathElement((0, 1), (4, -1), 3).colors == (1, 2)


def test_import_skips_dataclasses_and_inspect():
    """Start-up cost: the import path needs neither module."""
    probe = ("import sys, wkostka, wkostka.cli; print('dataclasses' in "
             "sys.modules, 'inspect' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout == "False False\n"


def test_clear_caches_empties_every_cache():
    def caches():
        return [obj for name, mod in sys.modules.items()
                if name.startswith("wkostka.")
                for obj in vars(mod).values()
                if hasattr(obj, "cache_info")
                and getattr(obj, "__module__", None) == name]

    order = default_total_order(3, 3)
    before = omega_matrix(3, 3, order)
    assert str(before.rows[0][0]) != "0"  # formats one value
    assert thm55_check(2, 2, "symbolic").passed
    assert {"_omega_row", "enumerate_rpartitions", "_text"} <= \
        {c.__name__ for c in caches() if c.cache_info().currsize}
    wkostka.clear_caches()
    assert all(c.cache_info().currsize == 0 for c in caches())
    after = omega_matrix(3, 3, order)
    assert after == before and after.rows == before.rows
