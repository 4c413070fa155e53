"""Koszul complexes, the wedge pairing, and the trace-map certificates.

The sign scheme is pinned twice over: small matrices (d = 1, 2) are frozen
literally, and the structural checks (pairing = adjoint of multiplication,
pairing of a split = tensor of pairings) rebuild both sides through
disjoint code paths, so a sign drift anywhere breaks a matrix equality
rather than sliding through.  Sections need not be regular for any of the
algebra; regularity only enters the graded exactness certificates.
"""

import hashlib
import itertools
import json
import random
from math import comb

import pytest

from wittforge import complexes, koszul, linalg, verify
from wittforge.cli import parse_poly
from wittforge.complexes import (
    ChainMap,
    adjunction_triangle_check,
    cone,
    duality_interchange,
    graded_homology_dims,
    single,
    tensor,
    tensor_layout,
)
from wittforge.errors import BoundsExceeded, NotAChainMap, NotRegularSequence
from wittforge.fields import FieldSpec, kept
from wittforge.koszul import (
    KoszulDatum,
    SymmetricSpace,
    delta_associative,
    delta_map,
    delta_unital,
    koszul_complex,
    koszul_form,
    sigma_map,
    split_factorization,
    split_section,
    theta_multiplicative,
    trace_diagram,
    unit_inclusion,
    x_map,
)
from wittforge.polynomials import PolyRing

from test_complexes import dense_rows

Q = FieldSpec.Q()
F5 = FieldSpec.Fp(5)

RINGS = {d: PolyRing(Q, tuple("xyzw"[:d])) for d in (1, 2, 3, 4)}


def coordinates(d, ring=None):
    ring = ring or RINGS[d]
    return KoszulDatum(ring, [ring.variable(v) for v in ring.vars[:d]])


# ---------------------------------------------------------------------------
# datum validation
# ---------------------------------------------------------------------------


def test_empty_section_rejected():
    with pytest.raises(ValueError):
        KoszulDatum(RINGS[1], [])


def test_zero_entry_rejected():
    ring = RINGS[2]
    with pytest.raises(ValueError):
        KoszulDatum(ring, [ring.variable("x"), ring.zero()])


def test_nonunit_twist_rejected():
    ring = RINGS[1]
    with pytest.raises(ValueError):
        KoszulDatum(ring, [ring.variable("x")], twist=ring.variable("x"))


def test_twist_defaults_to_one():
    k = coordinates(2)
    assert k.twist == RINGS[2].one()
    assert k.duality().degree == 2


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------


def test_length_one_is_the_section_arrow():
    ring = RINGS[1]
    kos = koszul_complex(coordinates(1))
    assert sorted(kos.terms) == [0, 1]
    assert dense_rows(kos, 1) == [[ring.variable("x")]]


def test_length_two_ranks_and_frozen_differentials():
    ring = RINGS[2]
    x, y = ring.variable("x"), ring.variable("y")
    kos = koszul_complex(coordinates(2))
    assert [kos.rank(i) for i in (0, 1, 2)] == [1, 2, 1]
    assert dense_rows(kos, 1) == [[x, y]]
    assert dense_rows(kos, 2) == [[-y], [x]]


def test_length_three_builds():
    # the constructor certifies d . d = 0 entry-exactly
    kos = koszul_complex(coordinates(3))
    assert [kos.rank(i) for i in range(4)] == [1, 3, 3, 1]


def test_binomial_ranks_length_four():
    kos = koszul_complex(coordinates(4))
    assert [kos.rank(i) for i in range(5)] == [comb(4, i) for i in range(5)]


def test_nonregular_sections_still_build():
    ring = RINGS[2]
    x = ring.variable("x")
    kos = koszul_complex(KoszulDatum(ring, [x, x]))
    assert [kos.rank(i) for i in (0, 1, 2)] == [1, 2, 1]


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def test_pairing_length_one_components():
    # the dual of [R ->s R] carries +s under the ambient Hom signs, so the
    # two components of the pairing must be equal; the unit normalization
    # makes them both +1
    ring = RINGS[1]
    space = koszul_form(coordinates(1))
    one = ring.one()
    assert dense_rows(space.form, 0) == [[one]]
    assert dense_rows(space.form, 1) == [[one]]
    assert space.symmetry_sign == 1


def test_pairing_length_two_frozen():
    ring = RINGS[2]
    space = koszul_form(coordinates(2))
    one, minus = ring.one(), -ring.one()
    zero = ring.zero()
    assert dense_rows(space.form, 0) == [[one]]
    assert dense_rows(space.form, 1) == [[zero, minus], [one, zero]]
    assert dense_rows(space.form, 2) == [[one]]


def test_pairing_is_chain_map_up_to_length_four():
    for d in (1, 2, 3, 4):
        space = koszul_form(coordinates(d))  # constructor certifies commutation
        assert space.form.source is space.carrier


def test_symmetry_sign_constant_across_sections():
    ring = RINGS[2]
    x, y = ring.variable("x"), ring.variable("y")
    sections = [[x, y], [x + y, x - y], [x * x, y * y + x], [y, x]]
    signs = {koszul_form(KoszulDatum(ring, s)).symmetry_sign for s in sections}
    assert signs == {1}


def test_symmetry_sign_plus_one_up_to_length_four():
    for d in (1, 2, 3, 4):
        assert koszul_form(coordinates(d)).symmetry_sign == 1


def test_symmetric_space_rejects_wrong_target():
    # for length one the complex happens to be literally self-dual, so use
    # length two, where the dual differential is the signed transpose
    k = coordinates(2)
    kos = koszul_complex(k)
    not_a_form = ChainMap.identity(kos)
    with pytest.raises(NotAChainMap):
        SymmetricSpace(kos, k.duality(), not_a_form)


# ---------------------------------------------------------------------------
# multiplication, projection, and the adjoint comparison
# ---------------------------------------------------------------------------


def test_delta_degree_one_block_frozen():
    ring = RINGS[2]
    one, minus, zero = ring.one(), -ring.one(), ring.zero()
    delta = delta_map(coordinates(2))
    # columns at total degree 2: 1(x)e12 | e1(x)e1 e1(x)e2 e2(x)e1 e2(x)e2 | e12(x)1
    assert dense_rows(delta, 2) == [[one, zero, one, minus, zero, one]]
    assert dense_rows(delta, 1) == [[one, zero, one, zero], [zero, one, zero, one]]


def test_delta_unital():
    for d in (1, 2, 3):
        assert delta_unital(coordinates(d))


def test_delta_associative():
    for d in (1, 2, 3):
        assert delta_associative(coordinates(d))


def test_sigma_is_top_projection():
    for d in (1, 2, 3):
        k = coordinates(d)
        sigma = sigma_map(k)
        assert dense_rows(sigma, d) == [[RINGS[d].one()]]
        for n in range(d):
            assert all(x.is_zero() for row in dense_rows(sigma, n) for x in row)


def test_one_koszul_complex_per_datum():
    k = coordinates(3)
    kos = koszul_complex(k)
    assert koszul_complex(k) is kos
    assert koszul_form(k).carrier is kos
    assert delta_map(k).target is kos
    assert sigma_map(k).source is kos
    assert unit_inclusion(k).target is kos
    assert x_map(k).source is kos
    assert split_section(k, 1)[2].source is kos


def test_one_split_per_datum_and_head():
    k = coordinates(4)
    first, second, iso = split_section(k, 1)
    assert all(a is b for a, b in zip(split_section(k, 1), (first, second, iso)))
    other = split_section(k, 2)
    assert other[0] is not first and (other[0].rank, other[1].rank) == (2, 2)
    assert split_section(k, 2)[0] is other[0]
    assert iso.target == tensor(koszul_complex(first), koszul_complex(second))


def record_products(monkeypatch, name):
    """Every (a, b, result) of ``complexes.<name>`` from here on.  A construction
    is a memo miss, which returns a complex not returned before; the list keeps
    each one alive, so distinct ids count constructions."""
    calls = []
    build = getattr(complexes, name)

    def recorded(a, b):
        calls.append((a, b, build(a, b)))
        return calls[-1][2]

    monkeypatch.setattr(complexes, name, recorded)
    if hasattr(koszul, name):
        monkeypatch.setattr(koszul, name, recorded)
    return calls


def built(calls):
    return len({id(result) for *_, result in calls})


def test_theta_split_builds_each_dual_once(monkeypatch):
    # tensor: Kos_head (x) Kos_tail and the tensor of their duals, 5 when
    # duality_interchange and tensor_map rebuilt them; hom: the duals and
    # biduals of the three Koszul complexes and the dual of Kos_head (x)
    # Kos_tail, 8 when the interchange and the dual of the iso each built one
    tensors = record_products(monkeypatch, "tensor")
    homs = record_products(monkeypatch, "hom_complex")
    assert theta_multiplicative(coordinates(4), 1)
    assert (built(tensors), built(homs)) == (2, 7)


def test_split_factorization_builds_one_complex_per_datum(monkeypatch):
    # the datum and its two factors; 8 (ranks 3, 2, 1, 2, 1, 2, 1, 1) when
    # every split made fresh data
    built = []
    build = koszul.koszul_complex.__wrapped__

    def counted(k):
        built.append(k.rank)
        return build(k)

    monkeypatch.setattr(koszul, "koszul_complex", kept(counted))
    assert split_factorization(coordinates(3))
    assert sorted(built) == [1, 2, 3]


def test_split_factorization_builds_its_iso_once(monkeypatch):
    # the iso is kept with its split, so the certificate and the theta check
    # share it, and its target is the one Kos_head (x) Kos_tail: 2 tensor and
    # 7 hom complexes built, where 5 and 8 were built before products were kept
    tensors = record_products(monkeypatch, "tensor")
    homs = record_products(monkeypatch, "hom_complex")
    isos = []
    build_split = koszul.split_section

    def counted_split(k, head):
        split = build_split(k, head)
        isos.append(split[2])
        return split

    monkeypatch.setattr(koszul, "split_section", counted_split)
    cert = split_factorization(coordinates(3))
    assert cert
    assert (built(tensors), built(homs)) == (2, 7)
    assert len(isos) == 2 and isos[0] is isos[1] is cert.iso


def test_triangle_check_builds_each_complex_once(monkeypatch):
    # tensor: Kos (x) Kos and Hom(Kos, X) (x) Kos for X = Kos (x) Kos and the
    # line; hom: Hom(Kos, -) of Kos (x) Kos, of the line and of
    # Hom(Kos, line) (x) Kos: 3 and 3, where 7 and 7 were built before
    k = coordinates(2)
    kos = koszul_complex(k)
    tensors = record_products(monkeypatch, "tensor")
    homs = record_products(monkeypatch, "hom_complex")
    assert adjunction_triangle_check(kos, kos, single(k.ring, 2))
    assert (built(tensors), built(homs)) == (3, 3)


def test_delta_associative_builds_each_tensor_once(monkeypatch):
    # Kos (x) Kos and the two triple products: 3, where 9 were built before
    tensors = record_products(monkeypatch, "tensor")
    assert delta_associative(coordinates(2))
    assert built(tensors) == 3


def test_x_map_builds_its_hom_once(monkeypatch):
    # the unit and the post-composition share Hom(Kos, Kos (x) Kos), and a
    # second x_map of the same datum reuses it
    k = coordinates(3)
    kos = koszul_complex(k)
    homs = record_products(monkeypatch, "hom_complex")
    assert x_map(k) == x_map(k) == koszul_form(k).form
    square = complexes.tensor(kos, kos)
    assert built([call for call in homs if call[1] is square]) == 1


def test_theta_suite_builds_each_hom_once(monkeypatch):
    # sigma_map's target, the triangle check's third factor and the line a
    # dual maps into are the one line kept on Kos per degree, so Hom(Kos, line)
    # is built once: 50 hom complexes, where 56 were built with a fresh line each
    tensors = record_products(monkeypatch, "tensor")
    homs = record_products(monkeypatch, "hom_complex")
    assert verify.run_suite("theta", seed=42).passed
    assert (built(tensors), built(homs)) == (32, 50)


def test_sigma_delta_top_pairing_matches_form():
    # in the top degree, multiply-then-project reads off the same signed
    # complement pairing the form is built from
    for d in (2, 3):
        k = coordinates(d)
        kos = koszul_complex(k)
        space = koszul_form(k)
        top = dense_rows(sigma_map(k).compose(delta_map(k)), d)
        for (i, j), (off, ra, rb) in tensor_layout(kos, kos, d).items():
            theta = dense_rows(space.form, i)
            for p in range(ra):
                column = [theta[v][p] for v in range(rb)]
                for q in range(rb):
                    assert top[0][off + p * rb + q] == column[q]


def test_adjoint_of_multiplication_equals_form():
    for d in (1, 2, 3):
        k = coordinates(d)
        assert x_map(k) == koszul_form(k).form


def test_adjoint_comparison_survives_other_sections():
    ring = RINGS[2]
    x, y = ring.variable("x"), ring.variable("y")
    rng = random.Random(11)
    pool = [x, y, x + y, x - y, x * y, x * x + y, y * y]
    for _ in range(6):
        section = [rng.choice(pool), rng.choice(pool)]
        k = KoszulDatum(ring, section)
        assert x_map(k) == koszul_form(k).form


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_iso_is_permutation():
    k = coordinates(3)
    iso = split_section(k, 2)[2]
    for n in iso.source.terms:
        mat = dense_rows(iso, n)
        for col in range(len(mat[0])):
            entries = [mat[row][col] for row in range(len(mat))]
            assert sum(0 if e.is_zero() else 1 for e in entries) == 1


def test_split_keeps_twist_on_head():
    ring = RINGS[2]
    k = KoszulDatum(ring, [ring.variable("x"), ring.variable("y")],
                    twist=ring.constant(Q.element(2)))
    head, tail, _ = split_section(k, 1)
    assert head.twist == k.twist
    assert tail.twist == ring.one()


def test_pairing_multiplicative_for_all_splits():
    for d in (2, 3, 4):
        k = coordinates(d)
        for head in range(1, d):
            assert theta_multiplicative(k, head)


def test_interchange_is_signed_permutation():
    k1 = coordinates(1)
    ring = RINGS[1]
    kos = koszul_complex(k1)
    d = k1.duality().degree
    lam = duality_interchange(kos, kos, d, d)
    for n in lam.source.terms:
        mat = dense_rows(lam, n)
        for col in range(len(mat[0])):
            entries = [e for row in mat for e in [row[col]] if not e.is_zero()]
            assert len(entries) == 1
            assert entries[0] in (ring.one(), -ring.one())


def test_split_factorization_length_one_is_a_cone():
    ring = RINGS[1]
    cert = split_factorization(coordinates(1))
    assert cert
    assert cert.split == (1,)
    assert cert.cone_matches
    line = single(ring, 0)
    expected = cone(ChainMap(line, line, {0: {0: {0: ring.variable("x")}}}))
    assert cert.cone_factor == expected


def test_split_factorization_length_two():
    cert = split_factorization(coordinates(2))
    assert cert
    assert cert.split == (1, 1)
    assert cert.iso_invertible and cert.form_factorizes


def test_split_factorization_length_three():
    cert = split_factorization(coordinates(3))
    assert cert
    assert cert.split == (2, 1)
    assert cert.to_json()["witt_trivial_factor"] is True


def test_split_factorization_ignores_regularity():
    # the factorization is pure sign algebra; (x, x) splits fine even
    # though its section is not regular
    ring = RINGS[2]
    x = ring.variable("x")
    cert = split_factorization(KoszulDatum(ring, [x, x]))
    assert cert.form_factorizes and cert.cone_matches


def test_split_certificate_inverse_composes_to_identity():
    cert = split_factorization(coordinates(3))
    assert cert.iso_inverse.compose(cert.iso).is_identity()
    assert cert.iso.compose(cert.iso_inverse).is_identity()


# ---------------------------------------------------------------------------
# the trace diagram and regularity certificates
# ---------------------------------------------------------------------------


def _wedge(k, i):
    """Wedging with the section, from the i-th to the (i+1)-st power (sparse).

    Built straight from the exterior-algebra rule, with no reference to the
    Koszul contraction it is the transpose of.
    """
    d = k.rank
    rows = {s: r for r, s in enumerate(itertools.combinations(range(1, d + 1), i + 1))}
    mat = {}
    for c, subset in enumerate(itertools.combinations(range(1, d + 1), i)):
        for j in range(1, d + 1):
            if j in subset:
                continue
            merged = tuple(sorted(subset + (j,)))
            below = sum(1 for x in subset if x < j)
            entry = k.section[j - 1]
            mat.setdefault(rows[merged], {})[c] = entry if below % 2 == 0 else -entry
    return mat


#: name -> (ring, section, bound); x*y, z+w, x is not regular, and the bound
#: -3 keeps the checked window below its stray homology so the diagram is built
WEDGE_CASES = {
    **{f"coordinates{d}": (RINGS[d], ",".join(RINGS[d].vars), 6) for d in (1, 2, 3, 4)},
    "x*y,z+w,x": (RINGS[4], "x*y,z+w,x", -3),
    "over F5": (PolyRing(F5, ("x", "y")), "2*x^2,x+3*y", 4),
}


@pytest.mark.parametrize("case", sorted(WEDGE_CASES))
def test_trace_rows_are_the_wedge_with_the_section(case):
    ring, section, bound = WEDGE_CASES[case]
    k = KoszulDatum(ring, [parse_poly(ring, s) for s in section.split(",")])
    d = k.rank
    diagram = trace_diagram(k, bound=bound)
    assert diagram.middle._mats == {-i: _wedge(k, i) for i in range(d)}


def test_trace_length_one():
    ring = RINGS[1]
    diagram = trace_diagram(coordinates(1))
    assert sorted(diagram.middle.terms) == [-1, 0]
    assert dense_rows(diagram.middle, 0) == [[ring.variable("x")]]
    assert diagram.certificate["socle_dims"] == {-1: 1}


def test_trace_length_two_passes():
    diagram = trace_diagram(coordinates(2), bound=6)
    assert diagram.certificate["socle_degree"] == -2
    assert diagram.certificate["socle_dims"] == {-2: 1}
    assert [diagram.middle.rank(-i) for i in range(3)] == [1, 2, 1]


def test_trace_bound_below_the_checked_window_raises():
    # away from the socle the terms of Kos(x, x) start at internal degree -1;
    # a lower bound checks only the socle term and would certify nothing
    ring = RINGS[2]
    x = ring.variable("x")
    for bound in (-2, -5):
        with pytest.raises(BoundsExceeded, match=f"bound {bound} is below -1"):
            trace_diagram(KoszulDatum(ring, [x, x]), bound=bound)
    with pytest.raises(NotRegularSequence):
        trace_diagram(KoszulDatum(ring, [x, x]), bound=-1)
    with pytest.raises(BoundsExceeded, match="bound -3 is below -2"):
        trace_diagram(coordinates(3), bound=-3)
    assert trace_diagram(coordinates(3), bound=-2).certificate["socle_dims"] == {-3: 1}


def test_trace_rejects_repeated_coordinate():
    ring = RINGS[2]
    x = ring.variable("x")
    with pytest.raises(NotRegularSequence) as err:
        trace_diagram(KoszulDatum(ring, [x, x]))
    witness = err.value.witness
    assert witness and all(n == -1 for n, _ in witness)
    assert all(dim > 0 for dim in witness.values())


def test_trace_socle_matches_closed_count():
    # over m variables, killing the d coordinates leaves a polynomial ring
    # in m - d variables; the socle piece at internal degree t therefore
    # has dimension C(t + m - 1, m - d - 1)
    for m, d in ((2, 1), (3, 2), (4, 2), (4, 3)):
        ring = RINGS[m]
        k = KoszulDatum(ring, [ring.variable(v) for v in ring.vars[:d]])
        socle = trace_diagram(k, bound=5).certificate["socle_dims"]
        for t, dim in socle.items():
            assert dim == comb(t + m - 1, m - d - 1)


def test_trace_socle_full_cut_is_one_point():
    for d in (1, 2, 3):
        socle = trace_diagram(coordinates(d)).certificate["socle_dims"]
        assert socle == {-d: 1}


def test_augmented_complex_exact_over_prime_field():
    ring = PolyRing(F5, ("x", "y"))
    k = KoszulDatum(ring, [ring.variable("x"), ring.variable("y")])
    socle = trace_diagram(k, bound=4).certificate["socle_dims"]
    assert socle == {-2: 1}


R3 = PolyRing(Q, ("x", "y", "z"))

#: graded_homology_dims(Kos(section), 6) by section: a regular one and
#: dependent ones, whose homology spreads over both homological degrees
PINNED_GRADED_HOMOLOGY = {
    "x,x": [
        ((0, 0), 1), ((0, 1), 2), ((0, 2), 3), ((0, 3), 4), ((0, 4), 5), ((0, 5), 6),
        ((0, 6), 7), ((1, 1), 1), ((1, 2), 2), ((1, 3), 3), ((1, 4), 4), ((1, 5), 5),
        ((1, 6), 6),
    ],
    "x*y,x*z": [
        ((0, 0), 1), ((0, 1), 3), ((0, 2), 4), ((0, 3), 5), ((0, 4), 6), ((0, 5), 7),
        ((0, 6), 8), ((1, 3), 1), ((1, 4), 2), ((1, 5), 3), ((1, 6), 4),
    ],
    "x,y,x": [((0, t), 1) for t in range(7)] + [((1, t), 1) for t in range(1, 7)],
    "x^2,x*y,y^2": [
        ((0, 0), 1), ((0, 1), 3), ((0, 2), 3), ((0, 3), 3), ((0, 4), 3), ((0, 5), 3),
        ((0, 6), 3), ((1, 3), 2), ((1, 4), 3), ((1, 5), 3), ((1, 6), 3),
    ],
    "x,y,z,x+y": [((0, 0), 1), ((1, 1), 1)],
}


@pytest.mark.parametrize("section", sorted(PINNED_GRADED_HOMOLOGY))
def test_graded_homology_pinned(section):
    kos = koszul_complex(KoszulDatum(R3, [parse_poly(R3, s) for s in section.split(",")]))
    assert sorted(graded_homology_dims(kos, 6).items()) == PINNED_GRADED_HOMOLOGY[section]


def test_graded_homology_pinned_over_prime_field():
    ring = PolyRing(F5, ("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    kos = koszul_complex(KoszulDatum(ring, [x * x, x * y, 3 * y]))
    expected = [((0, 0), 1), ((0, 1), 1), ((1, 2), 1), ((1, 3), 1)]
    assert sorted(graded_homology_dims(kos, 5).items()) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_graded_homology_of_coordinate_koszul_pinned(d):
    k = coordinates(d)
    assert graded_homology_dims(koszul_complex(k), 6) == {(0, 0): 1}
    assert graded_homology_dims(trace_diagram(k).middle, 6) == {(-d, -d): 1}


#: sha256 prefixes of the JSON of the Koszul constructions
KOSZUL_DIGESTS = {
    "kos2": "24b148cf580f9405",
    "form2": "591d7725edd8a55d",
    "delta2": "9f8c8891be96d2df",
    "split3": "a851ba215ba1a8be",
    "xmap2": "591d7725edd8a55d",
    "middle3": "2374d0813081e85d",
}


def test_koszul_constructions_keep_their_public_form():
    k2 = coordinates(2)
    built = {
        "kos2": koszul_complex(k2),
        "form2": koszul_form(k2).form,
        "delta2": delta_map(k2),
        "split3": split_section(coordinates(3), 1)[2],
        "xmap2": x_map(k2),
        "middle3": trace_diagram(coordinates(3)).middle,
    }
    digests = {
        name: hashlib.sha256(json.dumps(obj.to_json(), sort_keys=True).encode()).hexdigest()[:16]
        for name, obj in built.items()
    }
    assert digests == KOSZUL_DIGESTS


# ---------------------------------------------------------------------------
# the push-forward space
# ---------------------------------------------------------------------------


# The Koszul space is the push-forward of the unit form on the zero locus
# when the section is regular (the trace diagram certifies it) and its form
# is a graded quasi-isomorphism (the cone of the form is acyclic).


def test_pushforward_length_one():
    space = koszul_form(coordinates(1))
    assert space.symmetry_sign == 1
    assert graded_homology_dims(cone(space.form), 6) == {}


def test_pushforward_length_two_certificate():
    k = coordinates(2)
    space = koszul_form(k)
    assert [space.carrier.rank(i) for i in (0, 1, 2)] == [1, 2, 1]
    assert trace_diagram(k, bound=5).certificate["socle_dims"] == {-2: 1}
    assert graded_homology_dims(cone(space.form), 5) == {}


def test_pushforward_requires_regularity():
    ring = RINGS[2]
    x = ring.variable("x")
    with pytest.raises(NotRegularSequence):
        trace_diagram(KoszulDatum(ring, [x, x]))


def test_pushforward_form_cone_checked_gradedwise():
    space = koszul_form(coordinates(2))
    assert graded_homology_dims(cone(space.form), 4) == {}
