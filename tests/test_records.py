"""The value-class contract shared by the eight immutable records: field
order, repr text, equality and hash by value, keyword construction, every
field required, hidden fields and immutability.  The repr strings were recorded
from the dataclass versions of these classes, so they pin the old text."""

import copy
import pickle
from fractions import Fraction

import pytest

from zetapoly.exactcore import RatPoly
from zetapoly.habiro import CycloInt, HabiroTrunc, eval_at_root, habiro_r
from zetapoly.modforms import QExpansion, eigenform
from zetapoly.periods import cfi_quotient, odd_period_polynomial, relations_kernel
from zetapoly.rvtransform import rv_polynomial, zeta_projective_space
from zetapoly.zerocert import Certificate, critical_line_certify, unit_circle_certify


def quotient_16():
    return cfi_quotient(odd_period_polynomial(16), 16)


def record_16_d7():
    return rv_polynomial(quotient_16().U_poly, 7, 16)


def certificate_16_d7():
    record = record_16_d7()
    return critical_line_certify(record.Q, record.critical_line)


# name -> (builder of a fresh value, field names in order, its repr)
CASES = {
    "PeriodSpace": (
        lambda: relations_kernel(10, "odd"),
        ("w", "parity", "basis"),
        "PeriodSpace(w=10, parity='odd', basis=(RatPoly(1*z + -25/4*z^3 + 21/2*z^5"
        " + -25/4*z^7 + 1*z^9),))",
    ),
    "CFIQuotient": (
        quotient_16,
        ("weight", "e", "U_poly"),
        "CFIQuotient(weight=16, e=4, U_poly=RatPoly(36 + -20*z^2 + 36*z^4))",
    ),
    "ZetaPolyRecord": (
        record_16_d7,
        ("weight", "e", "d", "H", "Q", "critical_line"),
        "ZetaPolyRecord(weight=16, e=4, d=7, H=RatPoly(36 + 1324/15*z + 7391/90*z^2"
        " + 445/12*z^3 + 281/36*z^4 + 13/20*z^5 + 13/180*z^6), Q=RatPoly(18 + 257/15*z"
        " + 229/36*z^2 + 13/30*z^3 + 13/180*z^4), critical_line=Fraction(-3, 2))",
    ),
    "ScaledPoly": (
        lambda: zeta_projective_space(3),
        ("poly", "log_scale"),
        "ScaledPoly(poly=RatPoly(-6*z + 11*z^2 + -6*z^3 + 1*z^4), log_scale=4)",
    ),
    "Certificate": (
        certificate_16_d7,
        ("kind", "passed", "counted_roots", "expected_roots", "witness", "layers", "intervals"),
        "Certificate(kind='critical_line', passed=True, counted_roots=4,"
        " expected_roots=4, witness='A(v), deg 2')",
    ),
    "QExpansion": (
        lambda: eigenform(12, 6),
        ("weight", "coeffs"),
        "QExpansion(weight=12, coeffs=(0, 1, -24, 252, -1472, 4830, -6048))",
    ),
    "HabiroTrunc": (
        lambda: HabiroTrunc.make(3, habiro_r(3).residue),
        ("level", "residue"),
        "HabiroTrunc(level=3, residue=RatPoly(1 + 2*z + -1*z^3 + -1*z^4 + 1*z^5))",
    ),
    "CycloInt": (
        lambda: eval_at_root(habiro_r(3), 3),
        ("conductor", "coords"),
        "CycloInt(conductor=3, coords=(-1,))",
    ),
}


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("name", CASES)
class TestRecordContract:
    def test_repr_text(self, name):
        build, _, text = CASES[name]
        assert type(build()).__name__ == name
        assert repr(build()) == text

    def test_equal_and_hash_by_value(self, name):
        build, names, _ = CASES[name]
        x, y = build(), build()
        assert x is not y and x == y and hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_never_equal_to_a_tuple(self, name):
        build, names, _ = CASES[name]
        x = build()
        assert x != fields_of(x, names)
        assert fields_of(x, names) != x

    def test_keyword_construction_equals_positional(self, name):
        build, names, _ = CASES[name]
        x = build()
        cls = type(x)
        positional = cls(*fields_of(x, names))
        keyword = cls(**dict(zip(names, fields_of(x, names))))
        assert positional == keyword == x
        assert fields_of(keyword, names) == fields_of(x, names)

    def test_argument_errors(self, name):
        build, names, _ = CASES[name]
        x = build()
        cls = type(x)
        with pytest.raises(TypeError, match="missing"):
            cls(*fields_of(x, names)[:1])
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*fields_of(x, names), 0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(*fields_of(x, names), extra=0)

    def test_immutable(self, name):
        build, names, _ = CASES[name]
        x = build()
        before = fields_of(x, names)
        for field in names:
            with pytest.raises(AttributeError):
                setattr(x, field, 5)
            with pytest.raises(AttributeError):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 5
        assert fields_of(x, names) == before



@pytest.mark.parametrize("name", CASES)
def test_pickles_with_every_field(name):
    build, names, _ = CASES[name]
    x = build()
    y = pickle.loads(pickle.dumps(x))
    assert y == x and fields_of(y, names) == fields_of(x, names)


@pytest.mark.parametrize("copy_of", (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))))
def test_values_holding_a_ratpoly_copy_and_pickle(copy_of):
    # RatPoly refuses __setattr__, so it must rebuild itself from its coefficients
    p = RatPoly((1, Fraction(-2, 3), 5))
    assert copy_of(p) == p and copy_of(p).coeffs == p.coeffs
    assert copy_of(quotient_16()).U_poly == quotient_16().U_poly
    c = certificate_16_d7()
    back = copy_of(c)
    assert back == c and c.layers and (back.layers, back.intervals) == (c.layers, c.intervals)


class TestDefaultsAndHiddenFields:
    def test_certificate_hidden_fields(self):
        c = certificate_16_d7()
        assert c.layers and c.intervals  # what the count peeled is kept
        bare = Certificate(c.kind, c.passed, c.counted_roots, c.expected_roots, c.witness, (), ())
        other = Certificate(c.kind, c.passed, c.counted_roots, c.expected_roots, c.witness, (RatPoly.x(),), 3)
        assert c == bare == other
        assert hash(c) == hash(bare) == hash(other)
        assert repr(c) == repr(bare) == repr(other)
        assert "layers" not in repr(other) and "intervals" not in repr(other)
        back = pickle.loads(pickle.dumps(Certificate("k", True, 1, 1, "w", (1, 2), 3)))
        assert (back.layers, back.intervals) == ((1, 2), 3)

    def test_shown_fields_tell_certificates_apart(self):
        c = unit_circle_certify(quotient_16().U_poly)
        assert c != Certificate(c.kind, not c.passed, c.counted_roots, c.expected_roots, c.witness, c.layers, c.intervals)

    @staticmethod
    def _each_field_is_required(x, names):
        for field in names:
            rest = {n: getattr(x, n) for n in names if n != field}
            with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{field}'"):
                type(x)(**rest)

    def test_certificate_defaults(self):
        # no field has a default, the hidden layers and intervals included
        build, names, _ = CASES["Certificate"]
        c = build()
        assert names[-2:] == ("layers", "intervals")
        self._each_field_is_required(c, names)
        with pytest.raises(TypeError, match="missing 2 required positional arguments: 'layers' and 'intervals'"):
            Certificate("unit_circle", True, 2, 2, "V(t), deg 2")

    def test_no_other_class_has_defaults(self):
        for build, names, _ in CASES.values():
            x = build()
            if type(x) is not Certificate:
                self._each_field_is_required(x, names)


class TestValidation:
    def test_validate_runs_on_keyword_construction(self):
        with pytest.raises(ValueError, match="prec >= 2"):
            QExpansion(weight=4, coeffs=(1, 2))

    def test_qexpansion_normalizes_and_checks_length(self):
        f = QExpansion(4, [Fraction(2, 1), Fraction(1, 3), 5])
        assert f.coeffs == (2, Fraction(1, 3), 5) and type(f.coeffs[0]) is int
        assert repr(f) == "QExpansion(weight=4, coeffs=(2, Fraction(1, 3), 5))"
        assert f == QExpansion(weight=4, coeffs=(2, Fraction(1, 3), 5))
        with pytest.raises(ValueError, match="prec >= 2"):
            QExpansion(4, (1, 2))
        with pytest.raises(TypeError, match="inexact"):
            QExpansion(4, (1, 2, 0.5))

    def test_classes_are_distinct_values(self):
        # the same field values in two classes: never equal
        assert HabiroTrunc(3, RatPoly.one()) != CycloInt(3, RatPoly.one())
