"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import os
import subprocess
import sys
import time

from conftest import (
    bell_numbers,
    brute_force_thick,
    preimage,
    random_presentation,
    tt_violations,
)
from thicklat.cli import main
from thicklat.closure import enumerate_thick
from thicklat.lattice import analyze, join, meet
from thicklat.presentation import builtin
from thicklat.space import (
    SupportMorphism,
    build_sp,
    check_morphism,
    check_support_datum,
    random_support_datum,
    universal_morphism,
)
from thicklat.tensor import comparison_map, primes, verify_tt_support


def _criterion(number, body, capsys):
    """Run one criterion and print its verdict line past pytest's capture."""
    def announce(line):
        with capsys.disabled():
            print(line, flush=True)

    started = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        announce(f"ACCEPTANCE {number}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    suffix = f" ({detail}; {elapsed:.2f}s)" if detail else f" ({elapsed:.2f}s)"
    announce(f"ACCEPTANCE {number}: PASS{suffix}")


def _run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_a2_lattice(capsys):
    def body():
        started = time.perf_counter()
        code, out = _run_cli("enumerate", "--builtin", "a2", capsys=capsys)
        assert code == 0
        assert out == "{}\n{P1}\n{P2}\n{S2}\n{P1,P2,S2}\n"
        code, out = _run_cli("lattice", "--builtin", "a2", capsys=capsys)
        assert code == 0
        assert "distributive: false" in out
        assert "modular: true" in out
        lat = enumerate_thick(builtin("a2"))
        report = analyze(lat)
        assert not report.is_distributive and report.is_modular
        w = report.distributive_witness
        lhs = meet(lat, w.x, join(lat, w.y, w.z))
        rhs = join(lat, meet(lat, w.x, w.y), meet(lat, w.x, w.z))
        assert (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
        assert time.perf_counter() - started < 1.0
        return "5 subcategories, verified witness"
    _criterion(1, body, capsys)


def test_criterion_2_universal_datum_identity(capsys):
    def body():
        started = time.perf_counter()
        pres = builtin("a2")
        sp = build_sp(enumerate_thick(pres))
        report = check_support_datum(sp.as_datum(), pres)
        assert report.valid
        assert report.triangle_violations == () and report.unclosed == ()
        f = universal_morphism(sp.as_datum(), sp)
        assert f.mapping == tuple(range(5))
        for a in range(pres.size):
            assert preimage(f, sp.sup[a]) == sp.sup[a]
        assert time.perf_counter() - started < 1.0
        return "identity on 5 points, exact pullback"
    _criterion(2, body, capsys)


GRID_PRESENTATIONS = (("a2", None), ("an", 3), ("product", 2))
GRID_POINTS = range(0, 9)
GRID_SEEDS = range(0, 500)


def test_criterion_3_finality_round_trip(capsys):
    def body():
        started = time.perf_counter()
        cases = 0
        for family, n in GRID_PRESENTATIONS:
            pres = builtin(family, n)
            sp = build_sp(enumerate_thick(pres))
            size = pres.size
            for num_points in GRID_POINTS:
                for seed in GRID_SEEDS:
                    datum = random_support_datum(sp, num_points, seed)
                    assert check_support_datum(datum, pres).valid
                    f = universal_morphism(datum, sp)
                    assert f.mapping == datum.origin_map
                    for a in range(size):
                        assert preimage(f, sp.sup[a]) == datum.sigma[a]
                    assert check_morphism(datum, sp, f).ok
                    cases += 1
        elapsed = time.perf_counter() - started
        assert cases == 13_500
        assert elapsed < 30.0
        return f"{cases} round trips"
    _criterion(3, body, capsys)


def test_criterion_4_uniqueness_by_mutation(capsys):
    def body():
        started = time.perf_counter()
        cases = 0
        constant_sigma = 0
        mutations = 0
        skipped = 0
        for family, n in GRID_PRESENTATIONS:
            pres = builtin(family, n)
            sp = build_sp(enumerate_thick(pres))
            count = len(sp.lattice.elements)
            for num_points in GRID_POINTS:
                if num_points == 0:
                    continue
                for seed in GRID_SEEDS:
                    datum = random_support_datum(sp, num_points, seed)
                    f = universal_morphism(datum, sp)
                    cases += 1
                    if len(set(datum.sigma)) == 1:
                        constant_sigma += 1
                    # distinct lattice points are distinct object sets, so a
                    # separating object exists for every mutation; a case
                    # counts as skipped when no mutation of it was tried
                    tried = mutations
                    base = list(f.mapping)
                    for x in range(num_points):
                        original = base[x]
                        for alt in range(count):
                            if alt == original:
                                continue
                            base[x] = alt
                            mutated = SupportMorphism(tuple(base))
                            assert not check_morphism(datum, sp, mutated).ok
                            mutations += 1
                        base[x] = original
                    skipped += mutations == tried
        elapsed = time.perf_counter() - started
        assert cases == 12_000
        assert skipped / cases < 0.05
        assert elapsed < 60.0
        return (f"{mutations} mutations all fail, {skipped} skipped, "
                f"{constant_sigma} constant-sigma cases tested anyway")
    _criterion(4, body, capsys)


def test_criterion_5_oracle_equivalence(capsys):
    def body():
        started = time.perf_counter()
        checked = 0
        for family, n in (("a2", None), ("an", 2), ("an", 3), ("an", 4),
                          ("point", None), ("product", 2), ("product", 3)):
            pres = builtin(family, n)
            assert enumerate_thick(pres).elements == brute_force_thick(pres).elements
            checked += 1
        for seed in range(100):
            pres = random_presentation(seed, max_indecs=12, max_triangles=10)
            assert enumerate_thick(pres).elements == brute_force_thick(pres).elements
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        return f"{checked} presentations agree with the subset-sweep oracle"
    _criterion(5, body, capsys)


def test_criterion_6_scaling(capsys):
    def body():
        expected = {2: 5, 3: 15, 4: 52, 5: 203, 6: 877}
        bell = bell_numbers(7)
        for n in (2, 3, 4):
            lat = enumerate_thick(builtin("an", n))
            assert len(lat) == expected[n]
            assert lat.elements == brute_force_thick(builtin("an", n)).elements
        for n in (5, 6):
            started = time.perf_counter()
            lat = enumerate_thick(builtin("an", n))
            elapsed = time.perf_counter() - started
            assert len(lat) == expected[n] == bell[n + 1]
            if n == 6:
                assert elapsed < 10.0
        return "sizes 5, 15, 52, 203, 877"
    _criterion(6, body, capsys)


def test_criterion_7_compression(capsys):
    def body():
        started = time.perf_counter()
        for k in (2, 3):
            pres = builtin("product", k)
            spectrum = primes(pres)
            sp = build_sp(enumerate_thick(pres))
            morphism = comparison_map(spectrum, sp.lattice)
            assert len(morphism.mapping) == k
            assert len(sp.lattice) == 2 ** k
            position = sp.lattice.position
            assert morphism.mapping == tuple(position[q] for q in spectrum.primes)
            for a in range(pres.size):
                assert preimage(morphism, sp.sup[a]) == spectrum.sup[a]
            assert verify_tt_support(spectrum)
            base, unit_full, products = tt_violations(spectrum)
            assert base.valid and unit_full and products == ()
        assert time.perf_counter() - started < 1.0
        return "spectrum sizes 2, 3 against universal sizes 4, 8"
    _criterion(7, body, capsys)


GOLDEN_COMMANDS = (
    ("enumerate", "--builtin", "a2"),
    ("lattice", "--builtin", "a2", "--dot"),
    ("compare", "--builtin", "product:2", "--json"),
)

# the subprocesses run the same package this module imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(sys.modules["thicklat"].__file__))


def test_criterion_8_determinism(capsys):
    def body():
        for argv in GOLDEN_COMMANDS:
            outputs = []
            for hashseed in ("0", "424242"):
                path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
                env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
                proc = subprocess.run(
                    [sys.executable, "-m", "thicklat", *argv],
                    capture_output=True, env=env, check=True)
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]
            assert b"\r" not in outputs[0]
        return f"{len(GOLDEN_COMMANDS)} commands byte-identical across runs"
    _criterion(8, body, capsys)
