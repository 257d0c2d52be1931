"""The result records: their reprs, defaults, immutability, hashing and truth."""

import pytest

from dicube.categories import BreakFunctor, Morphism, SymmetricOrderQuotient
from dicube.chains import CubeChain
from dicube.complexes import CoverCell, OrderedCover
from dicube.cover import CoverReport
from dicube.homology import HomologyGroup
from dicube.precubical import LengthCovering, NonSelfLinkedReport, RelationViolation
from dicube.suite import Fail, VerificationReport

# each record built with its defaults left out, so the repr pins them too
RECORDS = [
    (HomologyGroup(1), "HomologyGroup(betti=1, torsion=())"),
    (
        RelationViolation((2, 0), "c", 1, 2, 0, 1, (0, 0), (0, 1)),
        "RelationViolation(cell=(2, 0), label='c', i=1, j=2, eps=0, eta=1, left=(0, 0), right=(0, 1))",
    ),
    (NonSelfLinkedReport(True), "NonSelfLinkedReport(ok=True, cell=None, collision=None)"),
    (LengthCovering(None, None, {}), "LengthCovering(complex=None, projection=None, altitude={})"),
    (
        CoverCell(frozenset(), ("a",), frozenset()),
        "CoverCell(ones=frozenset(), mid=('a',), zeros=frozenset())",
    ),
    (OrderedCover(("a",), None, []), "OrderedCover(ground=('a',), complex=None, cells=[])"),
    (CubeChain(((1, 0),)), "CubeChain(cells=((1, 0),))"),
    (Morphism(0, 1), "Morphism(src=0, tgt=1, payload=None)"),
    (
        BreakFunctor(None, None, [0], [0]),
        "BreakFunctor(quotient=None, target=None, object_map=[0], morphism_map=[0])",
    ),
    (
        SymmetricOrderQuotient(("a",), [], None, None, None, [], []),
        "SymmetricOrderQuotient(labels=('a',), orders=[], category=None, "
        "action=None, quotient=None, object_map=[], morphism_map=[])",
    ),
    (
        VerificationReport("euler-zero", {}, "pass"),
        "VerificationReport(id='euler-zero', params={}, status='pass', details=None, wall_time=0.0)",
    ),
    (Fail({}), "Fail(payload={})"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_repr_names_every_field_with_its_default(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_record_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)


@pytest.mark.parametrize(
    "make, fields, other",
    [
        (CoverCell, (frozenset("a"), ("b",), frozenset()), (frozenset(), ("b",), frozenset("a"))),
        (Morphism, (0, 1, (1, 2)), (0, 1, (2, 1))),
    ],
    ids=["CoverCell", "Morphism"],
)
def test_record_hashes_and_compares_by_its_fields(make, fields, other):
    a, b = make(*fields), make(*fields)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert make(*other) != a and len({a, make(*other)}) == 2
    # records are tuples: equal to the plain tuple of their fields
    assert a == fields


def test_non_self_linked_report_is_true_exactly_when_ok():
    assert NonSelfLinkedReport(True)
    assert not NonSelfLinkedReport(False)
    assert not NonSelfLinkedReport(False, (1, 0), ((0,), (1,)))


def test_cover_report_starts_empty_and_fails_once_a_failure_is_added():
    report = CoverReport(("a", "b"), "semi-regular")
    counts = (report.intersections_checked, report.nonempty_intersections, report.samples_covered)
    assert counts == (0, 0, 0) and report.failures == [] and report.ok
    report.intersections_checked += 2
    assert report.ok
    report.failures.append({"check": "completeness"})
    assert not report.ok
    assert CoverReport(("a",), "regular").failures == []  # each report has its own list
