"""Blockwise conjugation against the route it replaced.

conjugator.grid_block_conjugate builds each block's conjugator with
_checked_build, which refuses a block whose signature differs, and
post-checks only the assembled map. The oracle below is the earlier
route, verbatim: a signature pre-check per block, then approx_conjugator
per block with its own exact post-check at d·eta, then the assembled
map's post-check at eta. The assembled map fixes the grid, so its error
is the largest block's over d, and the two routes must return the same
conjugator bit for bit and refuse the same inputs with the same class.
"""

from fractions import Fraction

import pytest

from knaster_lab import _kernel_py as _k
from knaster_lab.conjugator import (
    ConjugatorError,
    GridNotFixedError,
    SignatureMismatchError,
    _conjugacy_gap,
    approx_conjugator,
    grid_block_conjugate,
)
from knaster_lab.plmap import PLHomeo, compose, identity, reflect, sup_dist
from knaster_lab.randgen import derive_rng, rand_homeo, rand_signature_homeo
from knaster_lab.signatures import signature, signature_reflect
from knaster_lab.tents import block_sum, check_size, oplus_power, oplus_size

from generators import rand_sign_list
from test_acceptance import SEED

F = Fraction
BUMP = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
DIP = PLHomeo([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])


def oracle_grid_block_conjugate(f, d, h, eta):
    """Blockwise conjugator g with sup_dist(g⁻¹ ∘ ⊕ᵈ(f) ∘ g, h) < eta.

    h must fix every grid point i/d; each rescaled block of h must be
    conjugate to f (even block) or to its reflection (odd block). The
    returned g fixes the grid, and sup_dist(g, id) equals the largest
    block conjugator norm divided by d, exactly. Refuses (ValueError)
    up front when d < 1 or oplus_power(f, d) would be too large to build.
    """
    if d < 1:
        raise ValueError("degree must be a positive integer")
    check_size(oplus_size(f, d), f"oplus_power of degree {d}")
    eta = Fraction(eta)
    blocks = []
    for i in range(d + 1):
        p = Fraction(i, d)
        if h(p) != p:
            raise GridNotFixedError(f"h moves the grid point {i}/{d}")
    sig_f = signature(f)
    for i in range(d):
        kb = _k.restrict(h._kbps, _k.rnorm(i, d), _k.rnorm(i + 1, d))
        kb = _k.affine_image(kb, (d, 1), (-i, 1), (d, 1), (-i, 1))
        block = PLHomeo._from_kernel(kb)
        want = sig_f if i % 2 == 0 else signature_reflect(sig_f)
        if signature(block) != want:
            raise SignatureMismatchError(
                f"block {i} of h is not conjugate to the required model"
            )
        if i % 2 == 0:
            w = approx_conjugator(f, block, d * eta)
        else:
            w = reflect(approx_conjugator(f, reflect(block), d * eta))
        blocks.append(w)
    g = block_sum(blocks)
    ident = identity()
    norm = sup_dist(g, ident)
    if norm != max(sup_dist(w, ident) for w in blocks) / d:
        raise ConjugatorError(
            f"blockwise post-check failed: sup_dist(g, id) = {norm} is not "
            f"the largest block norm over {d}"
        )
    achieved = _conjugacy_gap(oplus_power(f, d)._kbps, g._kbps, h._kbps)
    if achieved >= eta:
        raise ConjugatorError(
            f"blockwise post-check failed: achieved {achieved}, needed < {eta}"
        )
    return g


def _acceptance_06_draws():
    """The blockwise inputs of test_06_conjugator_synthesis, in its order."""
    rng = derive_rng(SEED, "acc6")
    for _ in range(50):
        sig = rand_sign_list(rng, rng.randint(1, 4))
        rand_signature_homeo(rng, sig)
        rand_signature_homeo(rng, sig)
    for _ in range(10):
        d = rng.randint(2, 4)
        sig = rand_sign_list(rng, rng.randint(1, 3))
        f = rand_signature_homeo(rng, sig)
        phi = rand_homeo(rng, 4)
        yield f, d, oplus_power(compose(compose(phi.invert(), f), phi), d), F(1, 100)


def _grid_block_draw():
    """test_grid_block_conjugate's input."""
    rng = derive_rng("gridblock")
    f = rand_signature_homeo(rng, [1])
    blocks = [
        rand_signature_homeo(rng, [1]),
        reflect(rand_signature_homeo(rng, [1])),
        rand_signature_homeo(rng, [1]),
    ]
    return f, 3, block_sum(blocks), F(1, 40)


CASES = [*_acceptance_06_draws(), _grid_block_draw()]


@pytest.mark.parametrize("case", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_conjugators_match_the_oracle(case):
    assert grid_block_conjugate(*case)._kbps == oracle_grid_block_conjugate(*case)._kbps


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type


@pytest.mark.parametrize(
    "h, err",
    [(BUMP, GridNotFixedError), (oplus_power(DIP, 2), SignatureMismatchError)],
    ids=["moved-grid-point", "wrong-orientation"],
)
def test_refusals_match_the_oracle(h, err):
    args = (BUMP, 2, h, F(1, 10))
    assert _raised(grid_block_conjugate, *args) is err
    assert _raised(oracle_grid_block_conjugate, *args) is err
