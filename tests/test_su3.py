import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifusion import (
    AssumptionError,
    InputError,
    Verdict,
    admissible_weights,
    cyclic_action,
    fp_dimensions,
    fusion_product,
    obstruction_m,
    parse_weight,
    simple_current,
    validate_ring,
    weight_label,
)
from orbifusion import rings, su3
from orbifusion.rings import ValidationReport
from orbifusion.su3 import LEVEL_CAP

from .oracles import (
    classical_fusion,
    classical_lr,
    dim3,
    kac_walton,
    su3_ring,
    unvalidated,
    verlinde,
    verlinde_table,
    weight_system,
)

_small = st.integers(min_value=0, max_value=4)


# ---------------------------------------------------------------------------
# labels and alcoves
# ---------------------------------------------------------------------------

def test_label_roundtrip():
    for w in ((0, 0), (3, 1), (0, 7), (12, 12)):
        assert parse_weight(weight_label(w)) == w


def test_parse_weight_errors():
    for bad in ("3", "1,2,3", "a,b", "-1,0", "0,-2", "1.5,0"):
        with pytest.raises(InputError):
            parse_weight(bad)
    # int() alone reads each of these as a weight
    for bad in ("1_0,0", "\u0661,\u0661", "+1,0", " 1,0 "):
        with pytest.raises(InputError, match="expected integer Dynkin labels"):
            parse_weight(bad)
    with pytest.raises(InputError, match="must be nonnegative"):
        parse_weight("2,-13")


def test_alcove_size_and_order():
    for level in range(0, 9):
        ws = admissible_weights(level)
        assert len(ws) == (level + 1) * (level + 2) // 2
        assert all(a >= 0 and b >= 0 and a + b <= level for a, b in ws)
        keys = [(a + b, a) for a, b in ws]
        assert keys == sorted(keys)
    with pytest.raises(InputError):
        admissible_weights(-1)


def test_ring_labels_follow_the_alcove_order():
    ring = su3_ring(3)
    assert list(ring.labels) == [weight_label(w) for w in admissible_weights(3)]


# ---------------------------------------------------------------------------
# classical structure
# ---------------------------------------------------------------------------

def test_dimension_values():
    known = {
        (0, 0): 1,
        (1, 0): 3,
        (0, 1): 3,
        (1, 1): 8,
        (2, 0): 6,
        (3, 0): 10,
        (2, 2): 27,
    }
    for w, d in known.items():
        assert dim3(*w) == d


@settings(max_examples=40)
@given(a=st.integers(min_value=0, max_value=10), b=st.integers(min_value=0, max_value=10))
def test_weight_system_totals_match_the_dimension(a, b):
    assert sum(weight_system(a, b).values()) == dim3(a, b)


@settings(max_examples=40)
@given(a=st.integers(min_value=0, max_value=8), b=st.integers(min_value=0, max_value=8))
def test_weight_system_of_the_dual_is_the_negation(a, b):
    flipped = {(-x, -y): m for (x, y), m in weight_system(a, b).items()}
    assert weight_system(b, a) == flipped


def test_classical_products_by_hand():
    assert classical_lr((1, 0), (0, 1)) == {(0, 0): 1, (1, 1): 1}
    assert classical_lr((1, 1), (1, 1)) == {
        (0, 0): 1,
        (1, 1): 2,
        (3, 0): 1,
        (0, 3): 1,
        (2, 2): 1,
    }
    assert classical_lr((1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}


@settings(max_examples=50)
@given(a=_small, b=_small, c=_small, d=_small)
def test_classical_product_matches_the_tableau_oracle(a, b, c, d):
    assert classical_lr((a, b), (c, d)) == classical_fusion((a, b), (c, d))


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_unit_row():
    for mu in ((0, 0), (2, 1), (0, 4)):
        assert fusion_product((0, 0), mu, 4) == {mu: 1}


def test_truncation_is_inactive_at_high_level():
    assert fusion_product((1, 1), (1, 1), 6) == classical_lr((1, 1), (1, 1))
    assert fusion_product((2, 0), (0, 2), 8) == classical_lr((2, 0), (0, 2))


def test_truncation_at_level_two():
    assert fusion_product((1, 1), (1, 1), 2) == {(0, 0): 1, (1, 1): 1}


def test_inadmissible_weights_refused():
    with pytest.raises(InputError, match=r"^weight \(2, 1\) is not admissible at level 2$"):
        fusion_product((2, 1), (0, 0), 2)
    with pytest.raises(InputError, match=r"^weight \(-1, 0\) is not admissible at level 2$"):
        fusion_product((0, 0), (-1, 0), 2)
    with pytest.raises(InputError):
        verlinde((0, 0), (0, 0), (3, 0), 2)


@settings(max_examples=50)
@given(a=_small, b=_small, c=_small, d=_small, data=st.data())
def test_truncated_product_is_commutative(a, b, c, d, data):
    level = data.draw(st.integers(min_value=max(a + b, c + d), max_value=10))
    assert fusion_product((a, b), (c, d), level) == fusion_product((c, d), (a, b), level)


@settings(max_examples=50)
@given(a=_small, b=_small, c=_small, d=_small, data=st.data())
def test_truncated_product_respects_conjugation(a, b, c, d, data):
    level = data.draw(st.integers(min_value=max(a + b, c + d), max_value=10))
    plain = fusion_product((a, b), (c, d), level)
    conj = fusion_product((b, a), (d, c), level)
    assert conj == {(y, x): m for (x, y), m in plain.items()}


def test_tables_match_the_character_sums_exhaustively():
    # the closed-form row, the Kac-Walton fold and the character sum,
    # on every pair at levels 0 to 6
    for level in range(0, 7):
        ws = admissible_weights(level)
        cube = verlinde_table(level)
        for i, lam in enumerate(ws):
            for j, mu in enumerate(ws):
                got = fusion_product(lam, mu, level)
                row = cube[i, j]
                want = {ws[t]: int(row[t]) for t in range(len(ws)) if row[t]}
                assert got == want, (level, lam, mu)
                assert kac_walton(lam, mu, level) == want, (level, lam, mu)
                assert list(got) == [w for w in ws if w in got], (level, lam, mu)


def test_single_character_sum_agrees_with_the_table():
    cube = verlinde_table(3)
    ws = admissible_weights(3)
    for (i, j, t) in ((1, 2, 0), (4, 4, 4), (7, 8, 3)):
        assert verlinde(ws[i], ws[j], ws[t], 3) == int(cube[i, j, t])


# ---------------------------------------------------------------------------
# the order-3 symmetry
# ---------------------------------------------------------------------------

def test_current_has_order_three():
    for level in range(1, 10):
        J = simple_current(level)
        for w in admissible_weights(level):
            assert J[J[J[w]]] == w
        assert J[(0, 0)] == (level, 0)


def test_current_fixed_points():
    for level in range(1, 13):
        J = simple_current(level)
        fixed = [w for w, img in J.items() if img == w]
        if level % 3 == 0:
            assert fixed == [(level // 3, level // 3)]
        else:
            assert fixed == []


def test_ring_action_by_the_current_matches_the_formula():
    for level in (1, 2, 3, 5, 8, 12):
        ring = su3_ring(level)
        action = cyclic_action(ring, weight_label((level, 0)))
        assert action.order == 3
        J = simple_current(level)
        for w, img in J.items():
            got = ring.labels[action.perm[ring.index(weight_label(w))]]
            assert got == weight_label(img)


# ---------------------------------------------------------------------------
# the fixed-point self-coupling
# ---------------------------------------------------------------------------

def test_self_coupling_count_grows_linearly():
    for k in range(1, 9):
        res = obstruction_m(k)
        assert res.level == 3 * k
        assert res.n == 3
        assert res.m == k + 1
        assert res.gcd == math.gcd(k + 1, 3)
        if (k + 1) % 3 == 0:
            assert res.verdict is Verdict.INCONCLUSIVE
        else:
            assert res.verdict is Verdict.TRIVIAL


def test_self_coupling_rejects_bad_k():
    for k in (0, -3, LEVEL_CAP // 3 + 1):
        with pytest.raises(InputError, match="^k must be between 1 and 8$"):
            obstruction_m(k)


# ---------------------------------------------------------------------------
# the ring constructor
# ---------------------------------------------------------------------------

def test_each_call_builds_a_new_ring():
    # a cache would keep every level a long run touches alive
    a, b = su3.su3_ring(3), su3.su3_ring(3)
    assert a is not b
    assert all(np.array_equal(x, y) for x, y in zip(a.csr(), b.csr()))


def test_level_bounds():
    with pytest.raises(InputError):
        su3.su3_ring(0)
    with pytest.raises(InputError):
        su3.su3_ring(LEVEL_CAP + 1)
    assert fusion_product((0, 0), (0, 0), LEVEL_CAP) == {(0, 0): 1}
    assert fusion_product((0, 0), (0, 0), 0) == {(0, 0): 1}
    for level in (-1, LEVEL_CAP + 1):
        with pytest.raises(InputError, match="^level must be between 0 and 24$"):
            fusion_product((0, 0), (0, 0), level)


def _alcove_certificate(ring, level):
    """The certificate's verdicts on an alcove ring, from unmarked copies:
    the full validation report, and the order of the current (level, 0)
    or cyclic_action's refusal of it."""
    report = validate_ring(unvalidated(ring))
    try:
        return report, cyclic_action(unvalidated(ring), weight_label((level, 0))).order
    except AssumptionError as err:
        return report, str(err)


def test_every_level_the_builder_accepts_passes_the_full_scan(monkeypatch):
    # su3_ring marks every ring it returns as validated, and validate_ring
    # and cyclic_action trust the mark; this is what it stands on
    scanned = []
    scan = rings.associativity_violations
    monkeypatch.setattr(
        rings, "associativity_violations", lambda *a, **kw: scanned.append(a[3]) or scan(*a, **kw)
    )
    for level in range(1, LEVEL_CAP + 1):
        ring = su3_ring(level)
        assert ring._validated
        assert _alcove_certificate(ring, level) == (ValidationReport(()), 3), level
    assert scanned == [len(admissible_weights(k)) for k in range(1, LEVEL_CAP + 1)]


def test_a_builder_with_one_constant_raised_fails_the_certificate(monkeypatch):
    build = su3.su3_csr

    def raised(la, lb, level):
        ptr, idx, val = build(la, lb, level)
        val[len(val) // 2] += 1
        return ptr, idx, val

    monkeypatch.setattr(su3, "su3_csr", raised)
    # densely scanned levels and one above the cut, scanned as sparse products
    for level in (1, 6, 13):
        ring = su3.su3_ring(level)
        assert validate_ring(ring).passed  # the mark alone
        report, action = _alcove_certificate(ring, level)
        assert not report.passed, level
        assert action == (
            f"assumption (A1) fails: fusion by '{level},0' fails first-slot equivariance"
        ), level


@pytest.mark.parametrize("level", [9, 12, 15, 18, 21, 24])
def test_high_level_rows_match_the_truncated_product(level):
    ring = su3_ring(level)
    ws = admissible_weights(level)
    k = level // 3
    pairs = [(0, 0), (level, 0), (k, k), (0, level)]
    pairs = [(ring.index(weight_label(w)), ring.index(weight_label(w))) for w in pairs]
    pairs += [tuple(p) for p in np.random.default_rng(level).integers(0, ring.size, (30, 2))]
    for i, j in pairs:
        ks, vs = ring.row(int(i), int(j))
        got = {ws[int(t)]: int(v) for t, v in zip(ks, vs)}
        lam, mu = ws[int(i)], ws[int(j)]
        assert got == kac_walton(lam, mu, level), (lam, mu)
        assert fusion_product(lam, mu, level) == got, (lam, mu)


def test_level_four_ring_is_fully_valid():
    ring = su3_ring(4)
    report = validate_ring(unvalidated(ring))  # the scan, not the builder's mark
    assert report.passed
    assert ring.labels[ring.dual[ring.index("3,1")]] == "1,3"
    assert ring.labels[ring.unit] == "0,0"


def test_alcove_dimensions_are_the_quantum_dimensions():
    # d(a,b) = [a+1][b+1][a+b+2] / [2] with [n] = sin(n pi/h) / sin(pi/h),
    # h = level + 3; the worst relative error is about 8e-11, at level 24
    for level in list(range(1, 13)) + [24]:
        ring = su3_ring(level)
        dims = fp_dimensions(ring).dims
        h = math.pi / (level + 3)

        def q(n):
            return math.sin(n * h) / math.sin(h)

        for (a, b), d in zip(admissible_weights(level), dims):
            want = q(a + 1) * q(b + 1) * q(a + b + 2) / q(2)
            assert abs(d - want) <= 1e-10 * want, (level, a, b)
