"""Acceptance suite: twelve headline checks, one pass line each.

Counts, tolerances, and time budgets are pinned; each test prints its
verdict line so a -s run reads as a checklist. Everything is exact
rational arithmetic; "zero tolerance" means representation equality.
"""

import time
from fractions import Fraction

from knaster_lab.conjugator import (
    SignatureMismatchError,
    approx_conjugator,
    grid_block_conjugate,
)
from knaster_lab.experiments import ExperimentConfig, run_density_experiment
from knaster_lab.knaster import DiagonalHomeo, PrimeSequence, lift
from knaster_lab.lemmas import (
    certify_mod_bound,
    check_tent_witness,
    comod_lower_bound_check,
    separation_lower_bound,
    tent_witness,
)
from knaster_lab.plmap import (
    PLHomeo,
    compose,
    identity,
    reflect,
    sup_dist,
)
from knaster_lab.randgen import (
    derive_rng,
    perturb_homeo,
    rand_homeo,
    rand_nudge,
    rand_signature_homeo,
)
from knaster_lab.signatures import (
    decide_conjugate,
    signature,
    signature_oplus,
    signature_reflect,
)
from knaster_lab.tents import oplus_power, straighten, tent

from generators import rand_open_map, rand_sign_list

F = Fraction
SEED = 120260819
ALL2 = PrimeSequence("all2")
DIAG = PrimeSequence("diagonal")


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({detail})")


def test_01_semiconjugacy_identity():
    t0 = time.monotonic()
    rng = derive_rng(SEED, "acc1")
    for _ in range(200):
        g = rand_homeo(rng, 12)
        for d in range(1, 8):
            assert compose(g, tent(d)) == compose(tent(d), oplus_power(g, d))
    dt = time.monotonic() - t0
    assert dt < 30
    _report(1, "semiconjugacy identity", f"200 maps x d in 1..7, {dt:.1f}s")


def test_02_reflection_laws():
    rng = derive_rng(SEED, "acc2")
    for _ in range(200):
        f = rand_homeo(rng, 8)
        g = rand_homeo(rng, 8)
        assert sup_dist(reflect(f), reflect(g)) == sup_dist(f, g)
        assert reflect(compose(f, g)) == compose(reflect(f), reflect(g))
    _report(2, "reflection laws", "200 pairs, exact")


def test_03_oplus_contraction_and_grid():
    rng = derive_rng(SEED, "acc3")
    for _ in range(200):
        d = rng.randint(1, 7)
        g1 = rand_homeo(rng, 8)
        g2 = rand_homeo(rng, 8)
        assert sup_dist(oplus_power(g1, d), oplus_power(g2, d)) == sup_dist(g1, g2) / d
        h = oplus_power(g1, d)
        for i in range(d + 1):
            assert h(F(i, d)) == F(i, d)
    _report(3, "block sum contraction + grid", "200 pairs, d <= 7, exact")


def test_04_straightening():
    rng = derive_rng(SEED, "acc4")
    for _ in range(100):
        deg = rng.randint(1, 8)
        g = rand_open_map(rng, deg, start_up=True)
        f = compose(g, rand_homeo(rng, 6))
        h = straighten(f, g)
        assert compose(g, h) == f
    _report(4, "straightening", "100 equal-degree pairs, degree <= 8, exact")


def test_05_signature_laws_and_invariance():
    rng = derive_rng(SEED, "acc5")
    for _ in range(200):
        f = rand_homeo(rng, 8)
        d = rng.randint(1, 6)
        sig = signature(f)
        assert signature(reflect(f)) == signature_reflect(sig)
        assert signature(oplus_power(f, d)) == signature_oplus(sig, d)
    for _ in range(200):
        f = rand_homeo(rng, 8)
        phi = rand_homeo(rng, 8)
        assert signature(compose(compose(phi.invert(), f), phi)) == signature(f)
    _report(5, "signature laws + invariance", "200 + 200 maps, exact")


def _block_of(g, i, d):
    pts = [(F(0), F(0))]
    for x, y in g.breakpoints:
        if F(i, d) < x < F(i + 1, d):
            pts.append(((x - F(i, d)) * d, (y - F(i, d)) * d))
    pts.append((F(1), F(1)))
    return PLHomeo(pts)


def test_06_conjugator_synthesis():
    t0 = time.monotonic()
    eta = F(1, 100)
    rng = derive_rng(SEED, "acc6")
    for _ in range(50):
        sig = rand_sign_list(rng, rng.randint(1, 4))
        f = rand_signature_homeo(rng, sig)
        g = rand_signature_homeo(rng, sig)
        h = approx_conjugator(f, g, eta)
        assert sup_dist(compose(compose(h.invert(), f), h), g) < eta
    ident = identity()
    for _ in range(10):
        d = rng.randint(2, 4)
        sig = rand_sign_list(rng, rng.randint(1, 3))
        f = rand_signature_homeo(rng, sig)
        phi = rand_homeo(rng, 4)
        target = oplus_power(compose(compose(phi.invert(), f), phi), d)
        g = grid_block_conjugate(f, d, target, eta)
        conj = compose(compose(g.invert(), oplus_power(f, d)), g)
        assert sup_dist(conj, target) < eta
        norms = [sup_dist(_block_of(g, i, d), ident) for i in range(d)]
        assert sup_dist(g, ident) == max(norms) / d
    dt = time.monotonic() - t0
    assert dt < 120
    _report(6, "conjugator synthesis", f"50 pairs + 10 blockwise, eta 1/100, {dt:.1f}s")


def test_07_mod_bound():
    count = 0
    for P, pname in ((ALL2, "all2"), (DIAG, "diagonal")):
        for eps in (F(1, 10), F(1, 50)):
            rng = derive_rng(SEED, "acc7", pname, str(eps))
            for _ in range(26):
                g = rand_homeo(rng, 5)
                n = rng.randint(0, 3)
                h, _ = rand_nudge(rng, g, eps / P.product(1, n))
                cert = certify_mod_bound(g, h, n, eps, P)
                assert cert.upper < eps
                count += 1
    assert count >= 100
    _report(7, "mod bound", f"{count} instances, eps 1/10 and 1/50, both schedules")


def test_08_tent_witness():
    count = 0
    rng = derive_rng(SEED, "acc8")
    for _ in range(300):
        d = rng.choice([2, 3, 4, 6, 8])
        delta = rng.choice([F(1, 5), F(1, 8), F(1, 6)])
        f = rand_homeo(rng, 6)
        x0 = F(rng.randint(1, 36), 37)
        need = delta / d + F(rng.randint(1, 8), 256)
        y = f(x0)
        y0 = y + need if y + need < 1 else y - need
        g = perturb_homeo(f, x0, y0)
        assert sup_dist(f, g) >= delta / d
        w = tent_witness(f, g, d, delta)
        assert check_tent_witness(f, g, d, delta, w)
        count += 1
    _report(8, "tent witness", f"{count} instances, zero no-witness outcomes")


def test_09_comod_lower_bounds():
    count = 0
    for j in (2, 3):
        for up in (0, 1):
            rng = derive_rng(SEED, "acc9", j, up)
            for _ in range(25):
                P = rng.choice([ALL2, DIAG])
                n = j + up
                delta = F(1, 5) if P.prime(j) < 5 else F(1, 8)
                g_phi = rand_homeo(rng, 3)
                lifted = lift(DiagonalHomeo(j, g_phi), n, P).inducer
                x0 = F(rng.randint(1, 36), 37)
                need = delta / P.product(j + 1, n) + F(1, 512)
                y = lifted(x0)
                y0 = y + need if y + need < 1 else y - need
                p_prime = perturb_homeo(lifted, x0, y0)
                cert = comod_lower_bound_check(p_prime, n, g_phi, j, delta, P)
                assert cert.achieved >= delta / P.product(1, j)
                count += 1
    assert count >= 100
    _report(9, "comod lower bounds", f"{count} instances, j in {{2,3}}, n in {{j, j+1}}")


def test_10_separation():
    eta = F(1, 40)
    rng = derive_rng(SEED, "acc10")
    for _ in range(50):
        P = rng.choice([ALL2, DIAG])
        n = rng.randint(0, 1)
        m = n + rng.randint(1, 2)
        Fd = DiagonalHomeo(n, rand_homeo(rng, 4))
        d = P.product(n + 1, m)
        shift = 2 * eta + F(rng.randint(0, 8), 128)
        window = perturb_homeo(rand_homeo(rng, 4), F(1, d), F(1, d) + shift)
        cert = separation_lower_bound(Fd, window, m, eta, P)
        assert cert.lower >= cert.bound
    _report(10, "separation", "50 instances certified")


def test_11_density_experiment():
    t0 = time.monotonic()
    for m in (1, 2):
        cfg = ExperimentConfig(
            suite="density",
            trials=20,
            seed=SEED + m,
            params={"m": m, "eta": "1/4"},
        )
        report = run_density_experiment(cfg)
        assert report.all_ok()
        assert report.passed == 20
    dt = time.monotonic() - t0
    assert dt < 300
    _report(11, "density experiment", f"m in {{1,2}}, 20 trials each, 100%, {dt:.1f}s")


def test_12_decide_conjugate_oracle_equivalence():
    eta = F(1, 50)
    patterns = [[]]
    for k in (1, 2, 3):
        level = []
        for bits in range(2**k):
            level.append([1 if bits & (1 << i) else -1 for i in range(k)])
        patterns.extend(level)
    rng = derive_rng(SEED, "acc12")
    agree = 0
    for sa in patterns:
        for sb in patterns:
            f = rand_signature_homeo(rng, sa)
            g = rand_signature_homeo(rng, sb)
            verdict = decide_conjugate(f, g)
            assert verdict == decide_conjugate(g, f)
            try:
                h = approx_conjugator(f, g, eta)
                oracle = sup_dist(compose(compose(h.invert(), f), h), g) < eta
            except SignatureMismatchError:
                oracle = False
            assert verdict == oracle
            agree += 1
    assert agree == 15 * 15
    _report(12, "conjugacy decision oracle", "225 pattern pairs, both directions")
