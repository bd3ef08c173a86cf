import json
import random

import pytest

import thicklat.tensor
from conftest import (
    assert_stopped_closure,
    closed_by_sweep,
    closure_by_sweep,
    ideal_rule_closed,
    mask_by_loop,
    members_by_loop,
    object_in,
    preimage,
    primes_by_sweep,
    random_tensor_presentation,
    tt_violations,
)
from thicklat.bitsets import canonical_key, mask_of, pick
from thicklat.closure import ThickLattice, enumerate_thick, iter_closed, thick_closure
from thicklat.errors import NoTensor
from thicklat.presentation import (
    Presentation,
    TensorTable,
    Triangle,
    builtin,
    make_expr,
    parse_presentation,
)
from thicklat.space import build_sp, check_support_datum, universal_morphism
from thicklat.tensor import (
    comparison_map,
    enumerate_ideals,
    ideal_closure,
    primes,
    verify_tt_support,
)

PRODUCT2 = builtin("product", 2)
PRODUCT3 = builtin("product", 3)
POINT = builtin("point")
TENSOR_BUILTINS = (PRODUCT2, PRODUCT3, POINT)


def test_ideal_closure_examples():
    assert ideal_closure(PRODUCT2, mask_of([0])) == mask_of([0])
    assert ideal_closure(PRODUCT2, mask_of([0, 1])) == PRODUCT2.full_mask
    assert ideal_closure(POINT, mask_of([0])) == POINT.full_mask


def test_ideal_closure_absorption_adds_elements():
    doc = {
        "indecomposables": ["x", "g"],
        "triangles": [],
        "tensor": {
            "unit": ["g"],
            "table": {"x|x": ["x"], "x|g": ["g"], "g|x": ["g"], "g|g": ["g"]},
        },
    }
    pres = parse_presentation(json.dumps(doc))
    assert ideal_closure(pres, mask_of([0])) == pres.full_mask
    assert thick_closure(pres, mask_of([0])) == mask_of([0])  # thick alone stays put


def test_no_tensor_errors():
    a2 = builtin("a2")
    with pytest.raises(NoTensor):
        ideal_closure(a2, 0)
    with pytest.raises(NoTensor):
        enumerate_ideals(a2)
    with pytest.raises(NoTensor):
        primes(a2)


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(PRODUCT2)) == 4
    assert len(enumerate_ideals(POINT)) == 2
    assert len(enumerate_ideals(PRODUCT3)) == 8


def test_enumerate_ideals_brute_force():
    for pres in TENSOR_BUILTINS:
        assert enumerate_ideals(pres).elements == closed_by_sweep(pres, ideal_rule_closed)


@pytest.mark.parametrize("seed", range(120))
def test_enumerate_ideals_random_tensor_sweep(seed):
    pres = random_tensor_presentation(seed)
    assert enumerate_ideals(pres).elements == closed_by_sweep(pres, ideal_rule_closed)


@pytest.mark.parametrize("seed", range(40))
def test_ideal_closure_from_closed_base_matches_sweep(seed):
    pres = random_tensor_presentation(seed)
    ideals = closed_by_sweep(pres, ideal_rule_closed)
    rng = random.Random(seed + 3000)
    for _ in range(10):
        m = rng.randrange(1 << pres.size)
        c = rng.choice([q for q in ideals if q & ~m == 0] or [0])
        assert ideal_closure(pres, m, c) == closure_by_sweep(pres, m, ideal_rule_closed)


def test_stopped_ideal_closure_is_exact():
    stopped_early = 0
    for seed in range(200):
        pres = random_tensor_presentation(seed)
        ideals = closed_by_sweep(pres, ideal_rule_closed)
        rng = random.Random(seed + 5000)
        for _ in range(10):
            m = rng.randrange(1 << pres.size)
            c = rng.choice([q for q in ideals if q & ~m == 0] or [0])
            stop = rng.randrange(1 << pres.size) & rng.choice((~m, -1))
            full = ideal_closure(pres, m)
            stopped = ideal_closure(pres, m, c, stop)
            assert_stopped_closure(m, stopped, full, stop)
            stopped_early += stopped != full
    assert stopped_early  # the early return is exercised, not just allowed


@pytest.mark.parametrize("seed", range(200))
def test_iter_closed_ideals_are_unchanged_by_stopping(seed):
    pres = random_tensor_presentation(seed)
    stopped = list(iter_closed(pres.size, lambda m, c, s: ideal_closure(pres, m, c, s)))
    full = list(iter_closed(pres.size, lambda m, c, s: ideal_closure(pres, m, c)))
    assert stopped == full


def test_primes_product2():
    spectrum = primes(PRODUCT2)
    assert spectrum.space.points == ("{e1}", "{e2}")
    assert pick(spectrum.space.points, spectrum.sigma[0]) == ["{e2}"]
    assert 0 not in spectrum.primes  # the zero ideal fails primality: e1*e2 = 0


def test_primes_point():
    spectrum = primes(POINT)
    assert spectrum.primes == (0,)
    assert spectrum.sigma[0] == 0b1


def test_primes_product3_are_coatoms():
    spectrum = primes(PRODUCT3)
    assert len(spectrum.primes) == 3
    full = PRODUCT3.full_mask
    assert set(spectrum.primes) == {full & ~(1 << i) for i in range(3)}


def test_primes_are_proper_closed_ideals():
    for pres in TENSOR_BUILTINS:
        spectrum = primes(pres)
        for q in spectrum.primes:
            assert q != pres.full_mask
            assert ideal_closure(pres, q) == q


def test_pair_primality_implies_object_primality():
    rng = random.Random(5)
    for pres in TENSOR_BUILTINS:
        table = pres.tensor
        spectrum = primes(pres)
        for q in spectrum.primes:
            for _ in range(60):
                a = make_expr(rng.choices(range(pres.size), k=rng.randint(0, 3)))
                b = make_expr(rng.choices(range(pres.size), k=rng.randint(0, 3)))
                product = []
                for x in a:
                    for y in b:
                        product.extend(members_by_loop(table.table[x][y]))
                if object_in(q, make_expr(product)):
                    assert object_in(q, a) or object_in(q, b)


def test_spectrum_satisfies_base_axioms():
    for pres in TENSOR_BUILTINS:
        spectrum = primes(pres)
        assert check_support_datum(spectrum, pres).valid


def test_supp_turns_products_into_intersections():
    for pres in TENSOR_BUILTINS:
        spectrum = primes(pres)
        for x in range(pres.size):
            for y in range(pres.size):
                got = spectrum.sigma_of(members_by_loop(pres.tensor.table[x][y]))
                assert got == spectrum.sigma[x] & spectrum.sigma[y]


def test_verify_tt_support_valid():
    for pres in TENSOR_BUILTINS:
        spectrum = primes(pres)
        assert verify_tt_support(spectrum) is True
        base, unit_full, products = tt_violations(spectrum)
        assert base.valid and unit_full and products == ()


def test_verify_tt_support_tampered_spectrum():
    # the zero ideal of product:2 is not prime: over it, supp(e1*e2) is no
    # longer supp(e1) & supp(e2)
    genuine = primes(PRODUCT2)
    tampered_primes = tuple(sorted(genuine.primes + (0,), key=canonical_key))
    tampered = build_sp(ThickLattice(PRODUCT2, tampered_primes))
    _, _, products = tt_violations(tampered)
    assert (0, 1) in products  # pair (e1, e2)


def random_symmetric_tensor_presentation(seed, max_indecs=5, max_triangles=3):
    """Deterministic random presentation whose symmetric tensor table has
    arbitrary cells and unit. Neither the unit law nor associativity holds
    in general."""
    rng = random.Random(seed)
    n = rng.randint(1, max_indecs)

    def expr():
        return make_expr(rng.choices(range(n), k=rng.randint(0, 3)))

    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            cell = expr()
            # drawn as a count of repeats at (y, x) while cells were
            # multisets, and kept, so that each seed draws the same table
            rng.randint(0, len(cell))
            table[x][y] = table[y][x] = mask_by_loop(cell)
    triangles = tuple(Triangle(expr(), expr(), expr())
                      for _ in range(rng.randint(0, max_triangles)))
    tensor = TensorTable(mask_by_loop(expr()), tuple(map(tuple, table)))
    return Presentation(tuple(f"g{i}" for i in range(n)), triangles, tensor)


def test_only_the_unit_can_fail_on_symmetric_tables():
    # the base axioms and the product rule are theorems on the primes of any
    # table with symmetric component supports, so `spectrum` prints them as
    # constants and computes the unit check alone
    unit_verdicts = []
    for seed in range(2000):
        spectrum = primes(random_symmetric_tensor_presentation(seed))
        base, unit_full, products = tt_violations(spectrum)
        assert base.valid, seed
        assert products == (), seed
        assert verify_tt_support(spectrum) == unit_full, seed
        unit_verdicts.append(unit_full)
    # both verdicts occur, so the unit check is not vacuous
    assert 0 < unit_verdicts.count(False) < len(unit_verdicts)


# the tables the search was checked against when it replaced the sweep
PRIME_TABLES = {
    "blocks": random_tensor_presentation,
    "symmetric": random_symmetric_tensor_presentation,
    "symmetric-wide": lambda seed: random_symmetric_tensor_presentation(
        seed, max_indecs=9, max_triangles=5),
}


@pytest.mark.parametrize("kind", sorted(PRIME_TABLES))
def test_primes_match_the_sweep_on_random_tables(kind):
    make = PRIME_TABLES[kind]
    for seed in range(2000):
        pres = make(seed)
        assert primes(pres).primes == primes_by_sweep(pres), seed


@pytest.mark.parametrize("family,n", [("point", None)] + [("product", k) for k in range(1, 15)])
def test_primes_match_the_sweep_on_builtins(family, n):
    pres = builtin(family, n)
    assert primes(pres).primes == primes_by_sweep(pres)


@pytest.mark.parametrize("n", [18, 40])
def test_primes_of_product_cost_two_closures_per_element(monkeypatch, n):
    # a sweep over the 2^n ideals of product:n closes at least once per ideal
    calls = []

    def counted(*args):
        calls.append(args)
        return ideal_closure(*args)

    monkeypatch.setattr(thicklat.tensor, "ideal_closure", counted)
    full = (1 << n) - 1
    assert primes(builtin("product", n)).primes == tuple(full ^ 1 << i for i in range(n))[::-1]
    assert len(calls) <= 2 * n


def test_comparison_map_counts():
    for pres, spc, sp_count in ((PRODUCT2, 2, 4), (PRODUCT3, 3, 8), (POINT, 1, 2)):
        spectrum = primes(pres)
        lattice = enumerate_thick(pres)
        morphism = comparison_map(spectrum, lattice)
        assert (len(morphism.mapping), len(lattice)) == (spc, sp_count)
        assert len(set(morphism.mapping)) == len(morphism.mapping)  # injective
        position = lattice.position
        assert morphism.mapping == tuple(position[q] for q in spectrum.primes)


def test_comparison_map_pullback():
    for pres in TENSOR_BUILTINS:
        spectrum = primes(pres)
        sp = build_sp(enumerate_thick(pres))
        morphism = comparison_map(spectrum, sp.lattice)
        for a in range(pres.size):
            assert preimage(morphism, sp.sigma[a]) == spectrum.sigma[a]


def assert_comparison_is_universal(pres):
    spectrum = primes(pres)
    lattice = enumerate_thick(pres)
    inclusion = comparison_map(spectrum, lattice)
    assert universal_morphism(spectrum, build_sp(lattice)) == inclusion
    # what `compare` prints as the constants `injective` and `iota_fixes_primes`
    mapping = inclusion.mapping
    assert len(set(mapping)) == len(mapping)
    assert tuple(lattice.elements[t] for t in mapping) == spectrum.primes


@pytest.mark.parametrize("family,n", [("point", None)] + [("product", k) for k in range(1, 7)])
def test_comparison_map_is_the_universal_morphism_on_builtins(family, n):
    assert_comparison_is_universal(builtin(family, n))


@pytest.mark.parametrize("seed", range(120))
def test_comparison_map_is_the_universal_morphism_random(seed):
    assert_comparison_is_universal(random_tensor_presentation(seed))


def absorption_by_loop(table):
    """Oracle: per column x, one bit at a time, the union of the cells g*x."""
    n = len(table)
    absorption = []
    for x in range(n):
        m = 0
        for g in range(n):
            for c in range(n):
                if table[g][x] >> c & 1:
                    m |= 1 << c
        absorption.append(m)
    return tuple(absorption)


# built directly, since parsing rejects it: rows and columns differ
ASYMMETRIC = TensorTable(0b001, ((0b001, 0b010, 0), (0b001, 0, 0b100), (0, 0, 0b110)))


@pytest.mark.parametrize("tensor", [ASYMMETRIC, builtin("product", 5).tensor]
                         + [pres.tensor for pres in TENSOR_BUILTINS]
                         + [random_tensor_presentation(seed).tensor for seed in range(40)])
def test_product_and_absorption_masks_match_the_table(tensor):
    assert tensor.absorption_masks == absorption_by_loop(tensor.table)
