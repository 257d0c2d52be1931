"""The named verification suite: each registered check runs one family of
exhaustive propositions at a requested size and reports pass/fail with a
reproducible counterexample payload on failure.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .categories import (
    SymmetricOrderQuotient,
    break_functor,
    break_hom_count_oracle,
    build_break_category,
    check_functoriality,
    composable_run_counts,
    nerve_chains,
    nerve_complex,
    nerve_orbit_complex,
    regular_orders_poset,
    semi_regular_orders_poset,
    symmetric_order_quotient,
)
from .chains import CubeChain, chain_poset, face_swap
from .complexes import (
    adjacent_transpositions,
    build_final_complex,
    build_final_covering,
    build_ordered_cover,
    default_labels,
    permutations_of,
)
from .cover import cover_equivariance, cover_properness, cover_report, verify_cover
from .errors import ContractError, ResourceCapError, UsageError
from .homology import (
    euler_characteristic,
    homology,
    homology_signature,
    homology_to_json,
    same_homology,
)
from .orders import (
    chain_to_double_order,
    chain_union,
    double_order_to_chain,
    enumerate_orders,
    poset_leq,
    relabelling,
    to_regular,
    union_bar,
)
from .posets import bit_positions
from .precubical import PrecubicalMap, is_non_self_linked, quotient_by_automorphisms


@dataclass
class VerificationReport:
    id: str
    params: dict
    status: str  # pass | fail | skipped
    details: object = None
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "details": self.details,
            "wall_time": round(self.wall_time, 6),
        }


def _pass(details=None) -> tuple[str, object]:
    return "pass", details


def _fail(details) -> tuple[str, object]:
    return "fail", details


# -- individual checks -----------------------------------------------------------


def check_chain_order_iso(n_max: int, **_) -> tuple[str, object]:
    """Chains of the ordered cover against (regular orders, reverse mixed
    order): mutually inverse, order tables equal, relabeling-equivariant.
    The tables are the rows of the two posets, each chain row relabelled
    through the chain-to-order map."""
    counts = {}
    for n in range(1, min(n_max, 4) + 1):
        labels = default_labels(n)
        cover = build_ordered_cover(labels)
        chain_order, chains = chain_poset(cover.complex)
        reg_order, regs = regular_orders_poset(labels, "sqsupseteq")
        if len(chains) != len(regs):
            return _fail({"n": n, "chains": len(chains), "regular_orders": len(regs)})
        images = [chain_to_double_order(cover, c) for c in chains]
        if len({o.key() for o in images}) != len(images):
            return _fail({"n": n, "reason": "chain-to-order map is not injective"})
        if {o.key() for o in images} != {o.key() for o in regs}:
            return _fail({"n": n, "reason": "chain-to-order map is not onto"})
        for c, o in zip(chains, images):
            if double_order_to_chain(cover, o) != c:
                return _fail({"n": n, "chain": c.text(cover.complex), "reason": "round trip"})
        key_index = {o.key(): k for k, o in enumerate(regs)}
        at = [key_index[o.key()] for o in images]  # chain i maps to order at[i]
        for i, row in enumerate(chain_order.leq):
            order_row = reg_order.leq[at[i]]
            if sum(1 << at[j] for j in bit_positions(row)) == order_row:
                continue
            j = next(j for j in range(len(chains)) if row >> j & 1 != order_row >> at[j] & 1)
            pair = [chains[i].text(cover.complex), chains[j].text(cover.complex)]
            le, ge = bool(row >> j & 1), bool(order_row >> at[j] & 1)
            return _fail({"n": n, "pair": pair, "chain_leq": le, "order_geq": ge})
        # both actions are right actions with the same product, (x.s).t = x.(s o t),
        # so equivariance under the adjacent transpositions gives it under
        # every product of them, which is every relabelling
        for sigma in adjacent_transpositions(labels):
            aut = cover.automorphism(sigma)
            for c, o in zip(chains, images):
                moved = CubeChain(tuple(aut(cell) for cell in c.cells))
                if chain_to_double_order(cover, moved).key() != o.act(sigma).key():
                    return _fail({"n": n, "sigma": str(sigma), "chain": c.text(cover.complex)})
        counts[n] = len(chains)
    return _pass({"poset_sizes": counts})


def check_orbit_iso(n_max: int, **_) -> tuple[str, object]:
    """Quotient of the ordered cover by all relabelings (the adjacent swaps
    span them) matches the length covering of the final complex, cell for cell."""
    results = {}
    for n in range(1, min(n_max, 5) + 1):
        cover = build_ordered_cover(n)
        Q, _proj = quotient_by_automorphisms(cover.complex, cover.symmetric_group())
        Z, zalt = build_final_covering(n)
        if Q.dims != Z.dims:
            return _fail({"n": n, "quotient_dims": list(Q.dims), "expected": list(Z.dims)})
        # an orbit cell, labelled as its least member, goes to the covering
        # cell of its dimension d and altitude j: z{d}_{j}, that is (d, j)
        assign = [
            [cover.cover_cell(cover.complex.cell_of_label(Q.label(c))).altitude for c in layer]
            for layer in map(Q.cells_of_dim, range(Q.max_dim + 1))
        ]
        try:
            iso = PrecubicalMap(Q, Z, assign)
        except Exception as exc:  # face commutation failure
            return _fail({"n": n, "reason": str(exc)})
        if not (iso.is_isomorphism() and iso.is_bipointed):
            return _fail({"n": n, "reason": "orbit map is not a bipointed isomorphism"})
        results[n] = list(Q.dims)
    return _pass({"dims": results})


def check_non_self_linked(n_max: int, target: str = "ordered-cover", **_) -> tuple[str, object]:
    """The ordered cover is non-self-linked; the truncated final complex is
    not (reported as a failure with its counterexample cell)."""
    if target not in ("ordered-cover", "final-truncated"):
        raise UsageError(f"unknown non-self-linked target {target!r}")
    if target == "ordered-cover":
        for n in range(1, min(n_max, 4) + 1):
            cover = build_ordered_cover(n)
            report = is_non_self_linked(cover.complex)
            if not report.ok:
                return _fail({"n": n, "cell": cover.complex.label(report.cell)})
    z = build_final_complex(2)
    control = is_non_self_linked(z)
    if control.ok:
        return _fail({"reason": "truncated final complex unexpectedly non-self-linked"})
    if target == "final-truncated":
        counterexample = {"model": "z", "max_dim": 2, "cell": z.label(control.cell)}
        return _fail({**counterexample, "collision": [list(v) for v in control.collision]})
    return _pass({"n_checked": min(n_max, 4), "control_counterexample": z.label(control.cell)})


def check_face_swap(n_max: int, **_) -> tuple[str, object]:
    """The constructive swap identity, symbolically verified on the standard
    cube for every compatible (p, q, V, W) with p + q <= n_max."""
    bound = min(n_max, 7) if n_max >= 2 else n_max
    cases = 0
    for p in range(0, bound + 1):
        for q in range(0, bound + 1 - p):
            for v_bits in range(1 << p):
                V = frozenset(i + 1 for i in range(p) if v_bits >> i & 1)
                for w_bits in range(1 << q):
                    W = frozenset(i + 1 for i in range(q) if w_bits >> i & 1)
                    if p - len(V) != q - len(W):
                        continue
                    face_swap(p, q, V, W)  # raises if the identity fails
                    cases += 1
    return _pass({"cases": cases, "max_p_plus_q": bound})


def check_free_action(n_max: int, **_) -> tuple[str, object]:
    """Relabelings act freely on the double orders.

    Stabilizers along an orbit are conjugate (``act`` is a right action), so
    one member per orbit is tested against every non-identity relabeling; its
    images, keys relabelled by the kernel ``act`` wraps and looked up in a key
    index of the family, mark the rest of the orbit.
    """
    counts = {}
    for n in range(1, min(n_max, 4) + 1):
        labels = default_labels(n)
        family = enumerate_orders(labels, "double")
        index = {o.key(): k for k, o in enumerate(family)}
        sigmas = permutations_of(labels)[1:]  # the first is the identity
        relabels = [relabelling(labels, sigma) for sigma in sigmas]
        seen = bytearray(len(family))
        for i, o in enumerate(family):
            if seen[i]:
                continue
            key = o.key()
            for sigma, relabel in zip(sigmas, relabels):
                image = relabel(key)
                if image == key:
                    return _fail({"n": n, "order": o.text(), "sigma": str(sigma)})
                k = index.get(image)
                if k is None:
                    reason = "image not in family"
                    return _fail({"n": n, "order": o.text(), "sigma": str(sigma), "reason": reason})
                seen[k] = 1
        counts[n] = len(family)
    return _pass({"double_orders": counts})


def check_union_sigma(n_max: int, **_) -> tuple[str, object]:
    """A regular order never unions consistently with a proper relabeling of
    itself."""
    counts = {}
    for n in range(1, min(n_max, 4) + 1):
        labels = default_labels(n)
        family = enumerate_orders(labels, "regular")
        for sigma in permutations_of(labels)[1:]:  # the first is the identity
            for o in family:
                if union_bar(o, o.act(sigma)) is not None:
                    return _fail({"n": n, "order": o.text(), "sigma": str(sigma)})
        counts[n] = len(family)
    return _pass({"regular_orders": counts})


def _poset_chains_as_orders(poset, orders):
    for chain in poset.chains():
        yield [orders[i] for i in chain]


def check_fg_triangles(n_max: int, **_) -> tuple[str, object]:
    """Retraction and union functors: union-then-retract is the top of every
    mixed-order chain; retract-then-union sits below the top of every
    inclusion chain, componentwise."""
    counts = {}
    for n in range(1, min(n_max, 3) + 1):
        labels = default_labels(n)
        rposet, regs = regular_orders_poset(labels, "sqsubseteq")
        checked = 0
        for chain in _poset_chains_as_orders(rposet, regs):
            got = to_regular(chain_union(chain))
            if got.key() != chain[-1].key():
                return _fail({"n": n, "chain": [o.text() for o in chain], "triangle": "FG=max"})
            checked += 1
        sposet, semis = semi_regular_orders_poset(labels)
        checked_sub = 0
        for chain in _poset_chains_as_orders(sposet, semis):
            image = []
            seen = set()
            for o in chain:
                r = to_regular(o)
                if r.key() not in seen:
                    seen.add(r.key())
                    image.append(r)
            for a, b in zip(image, image[1:]):
                if not poset_leq(a, b, "sqsubseteq"):
                    return _fail(
                        {"n": n, "chain": [o.text() for o in chain], "triangle": "sd(F) chain"}
                    )
            joined = chain_union(image)
            if not poset_leq(joined, chain[-1], "subseteq"):
                return _fail(
                    {"n": n, "chain": [o.text() for o in chain], "triangle": "G sd(F) <= max"}
                )
            checked_sub += 1
        counts[n] = {"mixed_chains": checked, "inclusion_chains": checked_sub}
    return _pass(counts)


def quotient_law_failure(q: SymmetricOrderQuotient) -> Optional[dict]:
    """The first law of the quotient category of ``q`` that fails, as a payload,
    or None: identity and associativity, then the orbit-count identity (as many
    morphisms a -> b as the category has from the least member of a into b)."""
    C, Q = q.category, q.quotient
    try:
        Q.validate()
    except ContractError as exc:
        return {"reason": f"quotient category: {exc}"}
    for a in range(Q.n_objects):
        c = q.object_map.index(a)  # the least member of orbit a
        fiber = Counter(q.object_map[C.morphisms[m].tgt] for m in C.out_of[c])
        if fiber != Counter(Q.morphisms[m].tgt for m in Q.out_of[a]):
            return {"reason": "orbit morphism count identity fails", "object": Q.object_label(a)}
    return None


def check_nerve_quotient(n_max: int, **_) -> tuple[str, object]:
    """Generator-level isomorphism between the orbit complex of the nerve and
    the nerve of the quotient, for regular orders under all relabelings,
    after the quotient's category laws and orbit-count identity."""
    counts = {}
    for n in range(1, min(n_max, 3) + 1):
        q = symmetric_order_quotient(default_labels(n), "regular")
        failure = quotient_law_failure(q)
        if failure is not None:
            return _fail({"n": n, **failure})
        orbit_cx, orbit_levels = nerve_orbit_complex(q.category, q.action)
        quot_levels = nerve_chains(q.quotient)
        quot_cx = nerve_complex(q.quotient)
        if orbit_cx.ranks != quot_cx.ranks:
            return _fail(
                {"n": n, "orbit_ranks": list(orbit_cx.ranks), "quotient_ranks": list(quot_cx.ranks)}
            )
        # the projection functor on runs must give a levelwise bijection
        quot_index = [{run: i for i, run in enumerate(level)} for level in quot_levels]
        mapping: list[list[int]] = []
        for k, level in enumerate(orbit_levels):
            if k == 0:
                images = [(q.object_map[run[0]],) for run in level]
            else:
                images = [tuple(q.morphism_map[m] for m in run) for run in level]
            if len(set(images)) != len(images) or set(images) != set(quot_levels[k]):
                return _fail({"n": n, "level": k, "reason": "projection not bijective on runs"})
            mapping.append([quot_index[k][img] for img in images])
        for k in range(1, len(orbit_levels)):
            for j, col in enumerate(orbit_cx.boundary_columns(k)):
                expected = {mapping[k - 1][r]: v for r, v in col.items()}
                got = quot_cx.boundary_columns(k)[mapping[k][j]]
                if expected != got:
                    return _fail({"n": n, "level": k, "generator": j, "reason": "boundary mismatch"})
        counts[n] = list(orbit_cx.ranks)
    return _pass(counts)


def check_bar_f_iso(n_max: int, **_) -> tuple[str, object]:
    """The functor to the break category is relabeling-invariant and induces a
    bijective functor from the quotient."""
    counts = {}
    for n in range(1, min(n_max, 4) + 1):
        func = break_functor(default_labels(n))
        check_functoriality(func)
        # the orbit maps come from the relabeling action, so being constant on
        # their fibers is invariance under every relabeling
        q, D = func.quotient, func.target
        for kind, orbit_of, image_of, size in (
            ("object", q.object_map, func.object_map, D.n_objects),
            ("morphism", q.morphism_map, func.morphism_map, D.n_morphisms),
        ):
            induced: dict[int, int] = {}
            for orbit, image in zip(orbit_of, image_of):
                if induced.setdefault(orbit, image) != image:
                    witness = {"orbit": orbit, "images": [induced[orbit], image]}
                    return _fail({"n": n, "reason": f"induced {kind} map ill-defined", **witness})
            if sorted(induced.values()) != list(range(size)):
                return _fail({"n": n, "reason": f"induced {kind} map not bijective"})
        # spot-check against the independent hom-count oracle
        for a_idx, a in enumerate(D.objects):
            for b_idx, b in enumerate(D.objects):
                if set(b) <= set(a):
                    got = len(D.hom(a_idx, b_idx))
                    want = break_hom_count_oracle(a, b, n)
                    if got != want:
                        return _fail({"n": n, "hom": [list(a), list(b)], "got": got, "want": want})
        counts[n] = {
            "objects": D.n_objects,
            "morphisms": D.n_morphisms,
        }
    return _pass(counts)


def check_cover_complete(n_max: int, **_) -> tuple[str, object]:
    """Completeness, the intersection rule, and random-configuration coverage."""
    out = {}
    for n in range(1, min(n_max, 3) + 1):
        report = verify_cover(default_labels(n), samples=1000 if n == min(n_max, 3) else 200)
        if not report.ok:
            return _fail(report.failures)
        out[n] = {
            "intersections": report.intersections_checked,
            "nonempty": report.nonempty_intersections,
            "samples_covered": report.samples_covered,
        }
    return _pass(out)


def check_cover_proper(n_max: int, **_) -> tuple[str, object]:
    """Properness under non-identity relabelings plus constraint-set
    equivariance."""
    out = {}
    for n in range(1, min(n_max, 3) + 1):
        report, family = cover_report(default_labels(n))
        cover_properness(report, family)
        cover_equivariance(report, family)
        if not report.ok:
            return _fail(report.failures)
        out[n] = {"family": report.family, "members": len(family)}
    return _pass(out)


# pinned values are homology_signature outputs
PINNED_HOMOLOGY = {
    2: [(1, ()), (1, ())],
    3: [(1, ()), (1, ())],
}

PINNED_ORDERED_HOMOLOGY = {
    2: [(1, ()), (1, ())],
    3: [(1, ()), (3, ()), (2, ())],
}


def check_homology_cross_model(n_max: int, **_) -> tuple[str, object]:
    """Identical homology across the finite models of unordered plane
    configurations, plus agreement of the two ordered models."""
    out = {}
    for n in range(2, min(n_max, 4) + 1):
        labels = default_labels(n)
        models = {"break-category": homology(nerve_complex(build_break_category(n)))}
        models["regular-quotient"] = homology(
            nerve_complex(symmetric_order_quotient(labels, "regular").quotient)
        )
        if n <= 3:
            models["semi-regular-quotient"] = homology(
                nerve_complex(symmetric_order_quotient(labels, "semi-regular").quotient)
            )
        sigs = {name: homology_signature(groups) for name, groups in models.items()}
        if len(set(map(tuple, sigs.values()))) != 1:
            return _fail({"n": n, "models": {k: homology_to_json(v) for k, v in models.items()}})
        sig = next(iter(sigs.values()))
        if n in PINNED_HOMOLOGY and sig != PINNED_HOMOLOGY[n]:
            return _fail({"n": n, "got": sig, "pinned": PINNED_HOMOLOGY[n]})
        if n == 4:
            if sig[0] != (1, ()) or sig[1] != (1, ()) or 2 not in sig[2][1]:
                return _fail({"n": n, "got": sig, "pinned": "Z, Z, 2-torsion in H2"})
        out[str(n)] = {"homology": sig, "models": sorted(models)}
    for n in range(2, min(n_max, 3) + 1):
        labels = default_labels(n)
        h_mixed = homology(regular_orders_poset(labels, "sqsubseteq")[0].order_complex())
        h_incl = homology(semi_regular_orders_poset(labels)[0].order_complex())
        if not same_homology(h_mixed, h_incl):
            return _fail(
                {
                    "n": n,
                    "ordered_models": {
                        "regular-mixed": homology_to_json(h_mixed),
                        "semi-regular-inclusion": homology_to_json(h_incl),
                    },
                }
            )
        sig = homology_signature(h_mixed)
        if sig != PINNED_ORDERED_HOMOLOGY[n]:
            return _fail({"n": n, "ordered": sig, "pinned": PINNED_ORDERED_HOMOLOGY[n]})
        out[f"ordered-{n}"] = sig
    return _pass(out)


def check_euler_zero(n_max: int, **_) -> tuple[str, object]:
    """Euler characteristic zero for the break-category nerves; materialized
    complexes up to 4, alternating run counts beyond."""
    out = {}
    for n in range(2, min(n_max, 5) + 1):
        E = build_break_category(n)
        counts = composable_run_counts(E)
        chi_counts = sum((-1) ** k * c for k, c in enumerate(counts))
        if n <= 4:
            chi = euler_characteristic(nerve_complex(E))
            if chi != chi_counts:
                return _fail({"n": n, "materialized": chi, "counted": chi_counts})
        if chi_counts != 0:
            return _fail({"n": n, "euler": chi_counts})
        out[n] = counts
    return _pass(out)


# -- registry and runner ------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    fn: Callable
    default_n: int
    description: str


REGISTRY: dict[str, CheckSpec] = {
    "chain-order-iso": CheckSpec(check_chain_order_iso, 3, "cube chains vs regular orders"),
    "orbit-iso": CheckSpec(check_orbit_iso, 4, "cover quotient vs final covering"),
    "non-self-linked": CheckSpec(check_non_self_linked, 3, "canonical-map injectivity"),
    "face-swap": CheckSpec(check_face_swap, 6, "constructive face-swap identity"),
    "free-action": CheckSpec(check_free_action, 3, "free relabeling action on double orders"),
    "union-sigma": CheckSpec(check_union_sigma, 3, "self-union under relabeling is cyclic"),
    "F-G-triangles": CheckSpec(check_fg_triangles, 3, "retraction/union functor triangles"),
    "nerve-quotient": CheckSpec(check_nerve_quotient, 3, "orbit complex vs quotient nerve"),
    "bar-F-iso": CheckSpec(check_bar_f_iso, 3, "quotient functor to the break category"),
    "cover-complete": CheckSpec(check_cover_complete, 3, "cover completeness and coverage"),
    "cover-proper": CheckSpec(check_cover_proper, 3, "cover properness and equivariance"),
    "homology-cross-model": CheckSpec(check_homology_cross_model, 3, "model homology agreement"),
    "euler-zero": CheckSpec(check_euler_zero, 4, "Euler characteristic of break nerves"),
}


def run_suite(
    selection: Optional[Sequence[str]] = None,
    n_max: Optional[int] = None,
    jobs: int = 1,
    params: Optional[dict] = None,
) -> list[VerificationReport]:
    """Runs the selected checks (all of them for None) and returns reports in
    selection order; `n_max` is an int of at least 1, `jobs` bounds parallel execution."""
    if selection is None:
        ids = list(REGISTRY)
    else:
        ids = list(selection)
        for check_id in ids:
            if check_id not in REGISTRY:
                raise UsageError(f"unknown proposition id {check_id!r}")
    if n_max is not None and (type(n_max) is not int or n_max < 1):
        raise UsageError(f"n_max must be an int of at least 1, got {n_max!r}")
    extra = dict(params or {})

    def run_one(check_id: str) -> VerificationReport:
        spec = REGISTRY[check_id]
        n = n_max if n_max is not None else spec.default_n
        start = time.perf_counter()
        try:
            status, details = spec.fn(n, **extra)
        except ResourceCapError as exc:
            status, details = "skipped", {"reason": "resource-cap", "message": str(exc)}
        except UsageError:
            raise
        except Exception as exc:
            # a broken invariant inside a check is a verdict, not a crash
            status, details = "fail", {"exception": type(exc).__name__, "message": str(exc)}
        elapsed = time.perf_counter() - start
        return VerificationReport(check_id, {"n_max": n, **extra}, status, details, elapsed)

    if jobs <= 1 or len(ids) <= 1:
        return [run_one(check_id) for check_id in ids]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_one, check_id) for check_id in ids]
        return [f.result() for f in futures]


def exit_code(reports: Sequence[VerificationReport]) -> int:
    if any(r.status == "fail" for r in reports):
        return 1
    if any(
        r.status == "skipped"
        and isinstance(r.details, dict)
        and r.details.get("reason") == "resource-cap"
        for r in reports
    ):
        return 3
    return 0
