"""The named verification suite: each registered check runs one family of
exhaustive propositions at a requested size and reports pass/fail with a
reproducible counterexample payload on failure.  ``run_suite`` runs the
selected checks one after another on the calling thread.  One call builds
each shared model once (the order quotients, the order posets, the break
categories and the ordered covers, through the ``shared_in_run`` builders of
``errors``), and every check of that call reads the same object; so no check
may mutate a model it did not build.  Nothing outlives the call: later calls
and direct library calls build fresh models.
Reports and ``Fail`` are NamedTuple records, as results are package-wide.  Two
classes stay dataclasses because the benchmark tracer (``perfbench/tracer.py``)
needs them: it rebuilds each ``CheckSpec`` of ``REGISTRY`` with
``dataclasses.replace``, and it times ``DoubleOrder.__post_init__``, where
every order is validated.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Callable, NamedTuple, Optional, Sequence

from .categories import (
    SymmetricOrderQuotient,
    break_functor,
    build_break_category,
    check_functoriality,
    composable_run_counts,
    nerve_chains,
    nerve_complex,
    nerve_orbit_complex,
    poset_category,
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
from .errors import ContractError, ResourceCapError, UsageError, models_shared, require_size
from .homology import euler_characteristic, homology, homology_signature, homology_to_json
from .orders import (
    DoubleOrder,
    chain_to_double_order,
    chain_union,
    double_order_to_chain,
    order_keys,
    poset_leq,
    relabelling,
    self_meetings,
    to_regular,
)
from .posets import bit_positions
from .precubical import PrecubicalMap, is_non_self_linked, quotient_by_automorphisms


class VerificationReport(NamedTuple):
    id: str
    params: dict
    status: str  # pass | fail | skipped
    details: object = None
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "wall_time": round(self.wall_time, 6)}


class Fail(NamedTuple):
    """What a check returns in place of its value when a proposition fails."""

    payload: object


# -- individual checks -----------------------------------------------------------


def check_chain_order_iso(n: int, top: int, **_) -> object:
    """Chains of the ordered cover against (regular orders, reverse mixed
    order): mutually inverse, order tables equal, relabeling-equivariant.
    The tables are the rows of the two posets, each chain row relabelled
    through the chain-to-order map."""
    labels = default_labels(n)
    cover = build_ordered_cover(labels)
    chain_order, chains = chain_poset(cover.complex)
    reg_order, regs = regular_orders_poset(labels, "sqsupseteq")
    if len(chains) != len(regs):
        return Fail({"chains": len(chains), "regular_orders": len(regs)})
    images = [chain_to_double_order(cover, c) for c in chains]
    if len({o.key() for o in images}) != len(images):
        return Fail({"reason": "chain-to-order map is not injective"})
    if {o.key() for o in images} != {o.key() for o in regs}:
        return Fail({"reason": "chain-to-order map is not onto"})
    for c, o in zip(chains, images):
        if double_order_to_chain(cover, o) != c:
            return Fail({"chain": c.text(cover.complex), "reason": "round trip"})
    key_index = {o.key(): k for k, o in enumerate(regs)}
    at = [key_index[o.key()] for o in images]  # chain i maps to order at[i]
    for i, row in enumerate(chain_order.leq):
        order_row = reg_order.leq[at[i]]
        if sum(1 << at[j] for j in bit_positions(row)) == order_row:
            continue
        j = next(j for j in range(len(chains)) if row >> j & 1 != order_row >> at[j] & 1)
        pair = [chains[i].text(cover.complex), chains[j].text(cover.complex)]
        le, ge = bool(row >> j & 1), bool(order_row >> at[j] & 1)
        return Fail({"pair": pair, "chain_leq": le, "order_geq": ge})
    # both actions are right actions with the same product, (x.s).t = x.(s o t),
    # so equivariance under the adjacent transpositions gives it under
    # every product of them, which is every relabelling
    for sigma in adjacent_transpositions(labels):
        aut = cover.automorphism(sigma)
        for c, o in zip(chains, images):
            moved = CubeChain(tuple(aut(cell) for cell in c.cells))
            if chain_to_double_order(cover, moved).key() != o.act(sigma).key():
                return Fail({"sigma": str(sigma), "chain": c.text(cover.complex)})
    return len(chains)


def check_orbit_iso(n: int, top: int, **_) -> object:
    """Quotient of the ordered cover by all relabelings (the adjacent swaps
    span them) matches the length covering of the final complex, cell for cell."""
    cover = build_ordered_cover(n)
    Q, _proj = quotient_by_automorphisms(cover.complex, cover.symmetric_group())
    Z, _ = build_final_covering(n)
    if Q.dims != Z.dims:
        return Fail({"quotient_dims": list(Q.dims), "expected": list(Z.dims)})
    # an orbit cell, labelled as its least member, goes to the covering
    # cell of its dimension d and altitude j: z{d}_{j}, that is (d, j)
    assign = [
        [cover.cover_cell(cover.complex.cell_of_label(Q.label(c))).altitude for c in layer]
        for layer in map(Q.cells_of_dim, range(Q.max_dim + 1))
    ]
    try:
        iso = PrecubicalMap(Q, Z, assign)
    except ContractError as exc:  # face commutation failure
        return Fail({"reason": str(exc)})
    if not (iso.is_bijective and iso.is_bipointed):
        return Fail({"reason": "orbit map is not a bipointed isomorphism"})
    return list(Q.dims)


def check_non_self_linked(n_max: int, target: str = "ordered-cover", **_) -> object:
    """The ordered cover is non-self-linked; the truncated final complex is
    not (reported as a failure with its counterexample cell).  ``run_suite``
    has checked ``target``."""
    if target == "ordered-cover":
        for n in range(1, min(n_max, 4) + 1):
            cover = build_ordered_cover(n)
            report = is_non_self_linked(cover.complex)
            if not report.ok:
                return Fail({"n": n, "cell": cover.complex.label(report.cell)})
    z = build_final_complex(2)
    control = is_non_self_linked(z)
    if control.ok:
        return Fail({"reason": "truncated final complex unexpectedly non-self-linked"})
    if target == "final-truncated":
        counterexample = {"model": "z", "max_dim": 2, "cell": z.label(control.cell)}
        return Fail({**counterexample, "collision": [list(v) for v in control.collision]})
    return {"n_checked": min(n_max, 4), "control_counterexample": z.label(control.cell)}


def check_face_swap(n_max: int, **_) -> object:
    """The constructive swap identity, symbolically verified on the standard
    cube for every compatible (p, q, V, W) with p + q <= n_max."""
    bound = min(n_max, 7)
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
    return {"cases": cases, "max_p_plus_q": bound}


def check_free_action(n: int, top: int, **_) -> object:
    """Relabelings act freely on the double orders.

    Stabilizers along an orbit are conjugate (``act`` is a right action), so
    one member per orbit is tested against every non-identity relabeling; its
    images, keys relabelled by the kernel ``act`` wraps and looked up in a key
    index of the family's key table, mark the rest of the orbit.
    """
    labels = default_labels(n)
    keys = order_keys(labels, "double")
    index = {key: k for k, key in enumerate(keys)}
    sigmas = permutations_of(labels)[1:]  # the first is the identity
    relabels = [relabelling(labels, sigma) for sigma in sigmas]
    seen = bytearray(len(keys))
    for i, key in enumerate(keys):
        if seen[i]:
            continue
        for sigma, relabel in zip(sigmas, relabels):
            image = relabel(key)
            k = index.get(image)
            if image == key or k is None:
                payload = {"order": DoubleOrder(labels, *key).text(), "sigma": str(sigma)}
                return Fail(payload if image == key else {**payload, "reason": "image not in family"})
            seen[k] = 1
    return len(keys)


def check_union_sigma(n: int, top: int, **_) -> object:
    """A regular order never unions consistently with a proper relabeling of
    itself: ``self_meetings`` finds no key of the regular key table meeting
    its image, and an order is built only to name the first that does."""
    labels = default_labels(n)
    keys = order_keys(labels, "regular")
    for key, sigma in self_meetings(labels, keys):
        return Fail({"order": DoubleOrder(labels, *key).text(), "sigma": str(sigma)})
    return len(keys)


def check_fg_triangles(n: int, top: int, **_) -> object:
    """Retraction and union functors: union-then-retract is the top of every
    mixed-order chain; retract-then-union sits below the top of every
    inclusion chain, componentwise.  The details count the chains.

    Each comparable pair (one element, or two) is a chain, and it is enough
    to check those.  The closed union of a mixed chain is (top.x, bottom.y),
    as x grows and y shrinks along it, so it is the union of the chain's
    bottom and top.  A retraction that is monotone on pairs, from inclusion
    to the mixed order, maps an inclusion chain to a mixed chain, again with
    the union of its bottom's and its top's images."""
    labels = default_labels(n)
    rposet, regs = regular_orders_poset(labels, "sqsubseteq")
    for i, row in enumerate(rposet.leq):
        for j in bit_positions(row):
            chain = [regs[i]] if i == j else [regs[i], regs[j]]
            if to_regular(chain_union(chain)).key() != regs[j].key():
                return Fail({"chain": [o.text() for o in chain], "triangle": "FG=max"})
    sposet, semis = semi_regular_orders_poset(labels)
    retracts = [to_regular(o) for o in semis]
    for i, row in enumerate(sposet.leq):
        for j in bit_positions(row):
            chain = [semis[i]] if i == j else [semis[i], semis[j]]
            a, b = retracts[i], retracts[j]
            if not poset_leq(a, b, "sqsubseteq"):
                return Fail({"chain": [o.text() for o in chain], "triangle": "sd(F) chain"})
            joined = chain_union([a] if a.key() == b.key() else [a, b])
            if not poset_leq(joined, semis[j], "subseteq"):
                return Fail({"chain": [o.text() for o in chain], "triangle": "G sd(F) <= max"})
    return {"mixed_chains": len(rposet.chains()), "inclusion_chains": len(sposet.chains())}


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


def check_nerve_quotient(n: int, top: int, **_) -> object:
    """Generator-level isomorphism between the orbit complex of the nerve and
    the nerve of the quotient, for regular orders under all relabelings,
    after the quotient's category laws and orbit-count identity.  The group
    must be every relabeling, n! object tables: the isomorphism holds for any
    free action, so a smaller group would pass it."""
    q = symmetric_order_quotient(default_labels(n), "regular")
    elements = len(q.action.on_objects)
    if elements != factorial(n):
        witness = {"elements": elements, "relabelings": factorial(n)}
        return Fail({"reason": "acting group is not every relabeling", **witness})
    failure = quotient_law_failure(q)
    if failure is not None:
        return Fail(failure)
    orbit_cx, orbit_levels = nerve_orbit_complex(q.category, q.action)
    quot_levels = nerve_chains(q.quotient)
    quot_cx = nerve_complex(q.quotient)
    if orbit_cx.ranks != quot_cx.ranks:
        return Fail({"orbit_ranks": list(orbit_cx.ranks), "quotient_ranks": list(quot_cx.ranks)})
    # the projection functor on runs must give a levelwise bijection
    quot_index = [{run: i for i, run in enumerate(level)} for level in quot_levels]
    mapping: list[list[int]] = []
    for k, level in enumerate(orbit_levels):
        if k == 0:
            images = [(q.object_map[run[0]],) for run in level]
        else:
            images = [tuple(q.morphism_map[m] for m in run) for run in level]
        if len(set(images)) != len(images) or set(images) != set(quot_levels[k]):
            return Fail({"level": k, "reason": "projection not bijective on runs"})
        mapping.append([quot_index[k][img] for img in images])
    for k in range(1, len(orbit_levels)):
        quot_cols = quot_cx.boundary_columns(k)
        for j, col in enumerate(orbit_cx.boundary_columns(k)):
            expected = {mapping[k - 1][r]: v for r, v in col.items()}
            if expected != quot_cols[mapping[k][j]]:
                return Fail({"level": k, "generator": j, "reason": "boundary mismatch"})
    return list(orbit_cx.ranks)


def check_bar_f_iso(n: int, top: int, **_) -> object:
    """The functor to the break category is relabeling-invariant and induces a
    bijective functor from the quotient.  The break category's hom counts are
    pinned against a multinomial count by the oracle in tests/test_categories.py."""
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
                return Fail({"reason": f"induced {kind} map ill-defined", **witness})
        if sorted(induced.values()) != list(range(size)):
            return Fail({"reason": f"induced {kind} map not bijective"})
    return {"objects": D.n_objects, "morphisms": D.n_morphisms}


def check_cover_complete(n: int, top: int, **_) -> object:
    """Completeness, the intersection rule, and random-coverage: 1,000
    configurations at the top n of the run, 200 below it."""
    report = verify_cover(default_labels(n), samples=1000 if n == top else 200)
    if not report.ok:
        return Fail(report.failures)
    return {
        "intersections": report.intersections_checked,
        "nonempty": report.nonempty_intersections,
        "samples_covered": report.samples_covered,
    }


def check_cover_proper(n: int, top: int, **_) -> object:
    """Properness under non-identity relabelings plus constraint-set
    equivariance."""
    report, family = cover_report(default_labels(n))
    cover_properness(report, family)
    cover_equivariance(report, family)
    if not report.ok:
        return Fail(report.failures)
    return {"family": report.family, "members": len(family)}


# pinned values are homology_signature outputs
PINNED_HOMOLOGY = {
    2: [(1, ()), (1, ())],
    3: [(1, ()), (1, ())],
}

PINNED_ORDERED_HOMOLOGY = {
    2: [(1, ()), (1, ())],
    3: [(1, ()), (3, ()), (2, ())],
}


def check_homology_cross_model(n_max: int, **_) -> object:
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
            return Fail({"n": n, "models": {k: homology_to_json(v) for k, v in models.items()}})
        sig = next(iter(sigs.values()))
        if n in PINNED_HOMOLOGY and sig != PINNED_HOMOLOGY[n]:
            return Fail({"n": n, "got": sig, "pinned": PINNED_HOMOLOGY[n]})
        if n == 4:
            if sig[0] != (1, ()) or sig[1] != (1, ()) or 2 not in sig[2][1]:
                return Fail({"n": n, "got": sig, "pinned": "Z, Z, 2-torsion in H2"})
        out[str(n)] = {"homology": sig, "models": sorted(models)}
    for n in range(2, min(n_max, 3) + 1):
        labels = default_labels(n)
        h_mixed = homology(nerve_complex(poset_category(regular_orders_poset(labels, "sqsubseteq")[0])))
        h_incl = homology(nerve_complex(poset_category(semi_regular_orders_poset(labels)[0])))
        sig = homology_signature(h_mixed)
        if sig != homology_signature(h_incl):
            ordered = {"regular-mixed": h_mixed, "semi-regular-inclusion": h_incl}
            ordered = {name: homology_to_json(groups) for name, groups in ordered.items()}
            return Fail({"n": n, "ordered_models": ordered})
        if sig != PINNED_ORDERED_HOMOLOGY[n]:
            return Fail({"n": n, "ordered": sig, "pinned": PINNED_ORDERED_HOMOLOGY[n]})
        out[f"ordered-{n}"] = sig
    return out


def check_euler_zero(n: int, top: int, **_) -> object:
    """Euler characteristic zero for the break-category nerves; materialized
    complexes up to 4, alternating run counts beyond."""
    E = build_break_category(n)
    counts = composable_run_counts(E)
    chi_counts = sum((-1) ** k * c for k, c in enumerate(counts))
    if n <= 4:
        chi = euler_characteristic(nerve_complex(E))
        if chi != chi_counts:
            return Fail({"materialized": chi, "counted": chi_counts})
    if chi_counts != 0:
        return Fail({"euler": chi_counts})
    return counts


# -- registry and runner ------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    """A registered check.  With a ``cap``, the one place a check's reach is
    set, the runner calls ``fn(n, top, **params)`` for n from ``first_n`` to
    ``top = min(n_max, cap)`` and keys the values by n, under ``key`` when it
    is set.  Without one it calls ``fn(n_max, **params)`` once.  A check
    returns its value, or a ``Fail``, whose dict payload gets the n first."""

    fn: Callable
    default_n: int
    description: str
    cap: Optional[int] = None
    first_n: int = 1
    key: Optional[str] = None


REGISTRY: dict[str, CheckSpec] = {
    # id: check, default n_max, description, cap, first n, key of the per-n values
    "chain-order-iso": CheckSpec(
        check_chain_order_iso, 3, "cube chains vs regular orders", 4, key="poset_sizes"
    ),
    "orbit-iso": CheckSpec(check_orbit_iso, 4, "cover quotient vs final covering", 5, key="dims"),
    "non-self-linked": CheckSpec(check_non_self_linked, 3, "canonical-map injectivity"),
    "face-swap": CheckSpec(check_face_swap, 6, "constructive face-swap identity"),
    "free-action": CheckSpec(
        check_free_action, 3, "free relabeling action on double orders", 4, key="double_orders"
    ),
    "union-sigma": CheckSpec(
        check_union_sigma, 3, "self-union under relabeling is cyclic", 4, key="regular_orders"
    ),
    "F-G-triangles": CheckSpec(check_fg_triangles, 3, "retraction/union functor triangles", 3),
    "nerve-quotient": CheckSpec(check_nerve_quotient, 3, "orbit complex vs quotient nerve", 3),
    "bar-F-iso": CheckSpec(check_bar_f_iso, 3, "quotient functor to the break category", 4),
    "cover-complete": CheckSpec(check_cover_complete, 3, "cover completeness and coverage", 3),
    "cover-proper": CheckSpec(check_cover_proper, 3, "cover properness and equivariance", 3),
    "homology-cross-model": CheckSpec(check_homology_cross_model, 3, "model homology agreement"),
    "euler-zero": CheckSpec(check_euler_zero, 4, "Euler characteristic of break nerves", 5, 2),
}


def _run_check(spec: CheckSpec, n_max: int, params: dict) -> object:
    """The details of one check, or its ``Fail``."""
    if spec.cap is None:
        return spec.fn(n_max, **params)
    top = min(n_max, spec.cap)
    values = {}
    for n in range(spec.first_n, top + 1):
        value = spec.fn(n, top, **params)
        if isinstance(value, Fail):
            # the cover checks fail with their list of failures, which carries no n
            return Fail({"n": n, **value.payload}) if isinstance(value.payload, dict) else value
        values[n] = value
    return values if spec.key is None else {spec.key: values}


def run_suite(
    selection: Optional[Sequence[str]] = None,
    n_max: Optional[int] = None,
    params: Optional[dict] = None,
) -> list[VerificationReport]:
    """Runs the selected checks (all of them for None) one after another and
    returns their reports in selection order; `n_max` is an int of at least 1."""
    if selection is None:
        ids = list(REGISTRY)
    elif not isinstance(selection, (list, tuple)):
        raise UsageError(f"selection must be a list or tuple of proposition ids, got {selection!r}")
    else:
        ids = list(selection)
        for check_id in ids:
            if not isinstance(check_id, str) or check_id not in REGISTRY:
                raise UsageError(f"unknown proposition id {check_id!r}")
    if n_max is not None:
        try:
            require_size(n_max, "n_max", low=1)
        except ContractError as exc:
            raise UsageError(str(exc)) from None
    if params is not None and (not isinstance(params, dict) or set(params) - {"target"}):
        raise UsageError(f"params must be a dict with no key but 'target', got {params!r}")
    if params and params.get("target") not in ("ordered-cover", "final-truncated"):
        raise UsageError(f"unknown non-self-linked target {params['target']!r}")
    extra = dict(params or {})

    reports = []
    with models_shared():
        for check_id in ids:
            spec = REGISTRY[check_id]
            n = n_max if n_max is not None else spec.default_n
            start = time.perf_counter()
            try:
                details = _run_check(spec, n, extra)
                status = "pass"
                if isinstance(details, Fail):
                    status, details = "fail", details.payload
            except ResourceCapError as exc:
                status, details = "skipped", {"reason": "resource-cap", "message": str(exc)}
            except UsageError:
                raise
            except Exception as exc:
                # a broken invariant inside a check is a verdict, not a crash
                status, details = "fail", {"exception": type(exc).__name__, "message": str(exc)}
            elapsed = time.perf_counter() - start
            reports.append(VerificationReport(check_id, {"n_max": n, **extra}, status, details, elapsed))
    return reports


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
