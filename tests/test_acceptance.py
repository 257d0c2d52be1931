"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its wall time and enforcing its stated time budget."""

import math
import time
from contextlib import contextmanager

from dicube.categories import (
    build_break_category,
    composable_run_counts,
    nerve_complex,
    regular_orders_poset,
    semi_regular_orders_poset,
    symmetric_order_quotient,
)
from dicube.complexes import default_labels
from dicube.homology import euler_characteristic, homology, homology_signature, same_homology
from dicube.orders import enumerate_orders
from dicube.suite import run_suite


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.2f}s"


def run_check(check_id, n_max, **params):
    """The status and details of one registered check run to n_max."""
    (report,) = run_suite([check_id], n_max=n_max, params=params)
    return report.status, report.details


def test_criterion_01_regular_order_cardinality():
    with criterion(1, "cardinality law", 10):
        expected = {n: math.factorial(n) * 2 ** (n - 1) for n in range(1, 6)}
        assert expected == {1: 1, 2: 4, 3: 24, 4: 192, 5: 1920}
        for n in range(1, 6):
            labels = default_labels(n)
            by_blocks = enumerate_orders(labels, "regular")
            assert len(by_blocks) == expected[n]
            if n <= 3:
                by_filter = [o for o in enumerate_orders(labels, "double") if o.is_regular]
                assert {o.key() for o in by_filter} == {o.key() for o in by_blocks}


def test_criterion_02_chain_order_isomorphism():
    with criterion(2, "chain-order isomorphism", 60):
        status, details = run_check("chain-order-iso", 4)
        assert status == "pass", details
        assert details["poset_sizes"] == {1: 1, 2: 4, 3: 24, 4: 192}


def test_criterion_03_orbit_isomorphism():
    with criterion(3, "orbit isomorphism", 30):
        status, details = run_check("orbit-iso", 5)
        assert status == "pass", details
        assert details["dims"][5] == [6, 5, 4, 3, 2, 1]


def test_criterion_04_non_self_linkedness():
    with criterion(4, "non-self-linkedness", 10):
        status, details = run_check("non-self-linked", 4)
        assert status == "pass", details
        failing_status, payload = run_check("non-self-linked", 4, target="final-truncated")
        assert failing_status == "fail" and payload["cell"] == "z1"


def test_criterion_05_face_swap():
    with criterion(5, "face swap identity", 30):
        status, details = run_check("face-swap", 7)
        assert status == "pass", details
        assert details["cases"] == 255 and details["max_p_plus_q"] == 7


def test_criterion_06_free_action_and_union_sigma():
    with criterion(6, "free action and self-union", 60):
        status, details = run_check("free-action", 4)
        assert status == "pass", details
        status, details = run_check("union-sigma", 4)
        assert status == "pass", details


def test_criterion_07_functor_triangles():
    with criterion(7, "functor triangles", 60):
        status, details = run_check("F-G-triangles", 3)
        assert status == "pass", details
        assert all(v["mixed_chains"] > 0 for v in details.values())


def test_criterion_08_quotient_nerve_isomorphism():
    with criterion(8, "quotient-nerve isomorphism", 60):
        status, details = run_check("nerve-quotient", 3)
        assert status == "pass", details


def test_criterion_09_bar_functor_isomorphism():
    with criterion(9, "quotient functor bijectivity", 120):
        status, details = run_check("bar-F-iso", 4)
        assert status == "pass", details
        assert details[4] == {"objects": 8, "morphisms": 120}


def test_criterion_10_cover_verification():
    with criterion(10, "cover verification", 120):
        status, details = run_check("cover-complete", 3)
        assert status == "pass", details
        assert details[3]["samples_covered"] == 1000
        status, details = run_check("cover-proper", 3)
        assert status == "pass", details


def test_criterion_11_cross_model_homology():
    with criterion(11, "cross-model homology", 300):
        signatures = {}
        for n in (2, 3, 4):
            labels = default_labels(n)
            models = {
                "break": homology(nerve_complex(build_break_category(n))),
                "regular-quotient": homology(
                    nerve_complex(symmetric_order_quotient(labels, "regular").quotient)
                ),
            }
            if n <= 3:
                models["semi-regular-quotient"] = homology(
                    nerve_complex(symmetric_order_quotient(labels, "semi-regular").quotient)
                )
            sigs = {tuple(homology_signature(groups)) for groups in models.values()}
            assert len(sigs) == 1, (n, models)
            signatures[n] = homology_signature(models["break"])
        assert signatures[2] == [(1, ()), (1, ())]
        assert signatures[3] == [(1, ()), (1, ())]
        sig4 = signatures[4]
        assert sig4[0] == (1, ()) and sig4[1] == (1, ())
        assert 2 in sig4[2][1]  # 2-torsion in degree two
        # Euler characteristic zero for 2 <= n <= 5
        for n in (2, 3, 4):
            assert euler_characteristic(nerve_complex(build_break_category(n))) == 0
        counts = composable_run_counts(build_break_category(5))
        assert sum((-1) ** k * c for k, c in enumerate(counts)) == 0


def test_criterion_12_ordered_model_homology():
    with criterion(12, "ordered-model homology", 120):
        results = {}
        for n in (2, 3):
            labels = default_labels(n)
            h_mixed = homology(regular_orders_poset(labels, "sqsubseteq")[0].order_complex())
            h_incl = homology(semi_regular_orders_poset(labels)[0].order_complex())
            assert same_homology(h_mixed, h_incl), (n, h_mixed, h_incl)
            results[n] = homology_signature(h_mixed)
        assert results[2] == [(1, ()), (1, ())]
        assert results[3] == [(1, ()), (3, ()), (2, ())]
