"""Graded submodules: ideal check, closure fixpoint, simplicity probe."""

from fractions import Fraction as F

import pytest

from zlca import families, ideals
from zlca.conformal import (ConformalAlgebra, Element, bracket,
                            graded_generators, graded_table)
from zlca.poly import DEL, LAM, D, X, ParamPoly, const, gcd_in_d, param

S = param("s")


def scl2_pattern(window, special, shift):
    return ideals.GradedSubmodule(
        {g: (D + shift if g == special else ideals.FULL) for g in window})


# -- GradedSubmodule ------------------------------------------------------------

def test_component_normalization():
    sub = ideals.GradedSubmodule({0: const(1), 1: D + 2})
    assert sub.is_full(0)
    assert not sub.is_full(1)
    assert sub.is_zero(5)
    assert sub.describe(0) == "full"
    assert sub.describe(1) == "d + 2"
    assert sub.describe(7) == "zero"


def test_component_validation():
    with pytest.raises(ValueError):
        ideals.GradedSubmodule({0: 2 * D})  # not monic
    with pytest.raises(ValueError):
        ideals.GradedSubmodule({0: D + X})  # bracket variable
    with pytest.raises(ValueError):
        ideals.GradedSubmodule({0: ParamPoly.zero()})
    assert ideals.GradedSubmodule({0: D + 2 * S}).describe(0) == "d + 2*s"


# -- is_graded_ideal --------------------------------------------------------------

def test_scl2_pattern_is_closed_symbolically():
    alg = families.make_cl2(1, "s", range(-5, 6))
    pattern = ideals.GradedSubmodule(
        {g: (D + 2 * S if g == -2 else ideals.FULL) for g in range(-5, 6)})
    report = ideals.is_graded_ideal(alg, pattern)
    assert report.closed
    assert report.skipped > 0


def test_whole_algebra_is_an_ideal():
    alg = families.make_v("s", range(-3, 4))
    report = ideals.is_graded_ideal(
        alg, ideals.GradedSubmodule.full_on(range(-3, 4)))
    assert report.closed


def test_single_grade_not_closed():
    alg = families.make_v(0, range(-4, 5))
    report = ideals.is_graded_ideal(alg, ideals.GradedSubmodule({0: const(1)}))
    assert not report.closed
    hits = [(w.ambient.grade, w.target_grade, str(w.residual))
            for w in report.witnesses]
    assert (1, 1, "d + 2*x") in hits


def test_non_ideal_principal_component():
    # a principal component that the bracket violates produces a remainder
    alg = families.make_v(0, range(-2, 3))
    pattern = ideals.GradedSubmodule(
        {g: (D + 1 if g == 0 else ideals.FULL) for g in range(-2, 3)})
    report = ideals.is_graded_ideal(alg, pattern)
    assert not report.closed


# -- closure -----------------------------------------------------------------------

def test_closure_of_generator_in_v0_regenerates_everything():
    alg = families.make_v(0, range(-4, 5))
    seed = Element.generator(alg.single_generator(1))
    result = ideals.ideal_generated_by(alg, seed)
    assert result.converged
    assert result.window_truncated
    for grade in range(-4, 5):
        assert result.submodule.is_full(grade), grade


def test_closure_of_rescaled_seed_gives_scl2_pattern():
    alg = families.make_cl2(1, 1, range(-5, 6))
    seed = Element({alg.single_generator(-2): D + 2})
    result = ideals.ideal_generated_by(alg, seed)
    assert result.submodule == scl2_pattern(range(-5, 6), -2, 2)


def test_closure_of_zero_seed_is_zero():
    alg = families.make_v(0, range(-2, 3))
    result = ideals.ideal_generated_by(alg, Element({}))
    assert result.submodule.grades() == ()


def test_closure_requires_instantiated_algebra():
    alg = families.make_v("s", range(-2, 3))
    with pytest.raises(ValueError):
        ideals.ideal_generated_by(alg, Element.generator(alg.single_generator(0)))


def test_closure_iteration_guard_reports_partial():
    alg = families.make_v(0, range(-4, 5))
    seed = Element.generator(alg.single_generator(2))
    result = ideals.ideal_generated_by(alg, seed, max_iterations=1)
    assert not result.converged
    assert result.iterations == 1


def reference_closure(alg, seed, max_iterations=64):
    """Full-rescan closure: every nonzero grade against every window
    generator on every pass, until a pass changes nothing."""
    state = {}

    def absorb(grade, poly):
        grew = False
        for coef in poly.coefficients_in(LAM).values():
            current = state.get(grade)
            new = coef.monic() if current is None \
                else gcd_in_d(current, coef)
            if new != current:
                state[grade] = new
                grew = True
        return grew

    for gen, coef in seed.coeffs.items():
        absorb(gen.grade, coef)
    boundary_skips = iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        changed = False
        for v_grade in sorted(state):
            member = Element({alg.single_generator(v_grade): state[v_grade]})
            for u_grade in sorted(alg.window):
                if u_grade + v_grade not in alg.window:
                    boundary_skips += 1
                    continue
                u = Element.generator(alg.single_generator(u_grade))
                for target, poly in bracket(alg, u, member).items():
                    changed = absorb(target.grade, poly) or changed
        if not changed:
            converged = True
            break
    return ideals.ClosureResult(ideals.GradedSubmodule(state), converged,
                                iterations, boundary_skips)


def _same_closure(alg, seed, max_iterations=64):
    got = ideals.ideal_generated_by(alg, seed, max_iterations)
    want = reference_closure(alg, seed, max_iterations)
    assert got.submodule == want.submodule
    assert got.converged == want.converged
    assert got.window_truncated == want.window_truncated
    # the worklist leaves the reference's state after every pass
    assert got.iterations == want.iterations
    return want


def test_worklist_closure_matches_full_rescan():
    window = range(-3, 4)
    algebras = [
        families.make_v(1, window),
        families.make_v(0, window),
        families.make_cl2(F(1, 2), 1, window),   # half-integral b
        families.make_cl2(F(-1, 2), F(1, 2), window),
        families.make_cl2(1, F(1, 2), window),   # integral b
        families.make_cl2(F(1, 3), 1, window),
        families.make_cl2(0, 1, window),
        families.make_scl2(F(1, 2), 1, window),
    ]
    proper = 0
    for alg in algebras:
        for grade in window:
            gen = alg.single_generator(grade)
            seeds = [Element.generator(gen)]
            if grade in (-2, -1, 0):
                seeds += [Element({gen: D + 2}),
                          Element({gen: (D + 1) * (D + 3)}),
                          Element({gen: D ** 2})]
            for seed in seeds:
                closure = _same_closure(alg, seed)
                assert closure.converged
                proper += any(not closure.submodule.is_full(g) for g in window)
    assert proper > 0


def test_worklist_closure_matches_full_rescan_under_the_guard():
    # Cut off after exactly the passes that change something, the closure
    # holds the fixpoint but has not confirmed it; one more pass does.
    cases = [
        (families.make_cl2(F(1, 2), 1, range(-4, 5)), 1, const(1)),
        (families.make_cl2(1, 1, range(-4, 5)), -2, (D + 2) * (D + 5)),
    ]
    for alg, grade, coeff in cases:
        seed = Element({alg.single_generator(grade): coeff})
        changing = reference_closure(alg, seed).iterations - 1
        assert changing == 2
        for cap in range(changing + 2):
            closure = _same_closure(alg, seed, max_iterations=cap)
            assert closure.converged == (cap == changing + 1)


def test_closure_lands_like_the_general_bracket():
    # [L_i x q(d) L_j] = p_{i,j}(d, x) q(d+x) L_{i+j}: the value both ideal
    # routines land, against the sesquilinear bracket.
    alg = families.make_scl2(F(1, 2), 1, range(-3, 4))
    for q in (const(1), D + 2, (D + 1) * (D - F(1, 3))):
        for i in alg.window:
            for j in alg.window:
                if i + j not in alg.window:
                    continue
                value = bracket(alg, Element.generator(alg.single_generator(i)),
                                Element({alg.single_generator(j): q}))
                landed = alg.graded_entry(i, j) * q.substitute(DEL, D + X)
                assert value == ({alg.single_generator(i + j): landed}
                                 if landed else {}), (i, j, q)


def non_skew_cl2():
    """CL2(1, -1) on -2..2 with two entries perturbed, so that p_{-2,0} = 0
    while p_{0,-2} = d - 2: not skew-symmetric, and landing p_{j,i} in
    place of p_{i,j} would reach grade -2 from the seed L_{-1}."""
    gens = graded_generators(range(-2, 3))
    perturbed = {(-1, 2): -D + X + 1, (-2, 0): D - 2}

    def entry(i, j):
        return (families.cl2_entry(const(1), const(-1), i, j)
                + perturbed.get((i, j), 0))

    return ConformalAlgebra(gens.values(), graded_table(gens, entry))


def test_closure_and_check_land_p_i_j_not_p_j_i():
    alg = non_skew_cl2()
    assert alg.graded_entry(-2, 0).is_zero()
    assert alg.graded_entry(0, -2) == D - 2
    closure = _same_closure(alg, Element.generator(alg.single_generator(-1)))
    assert closure.converged
    assert closure.submodule == ideals.GradedSubmodule.full_on(range(-1, 3))
    # grade 0 (full) brackets with L_{-2} to p_{-2,0} = 0, not to d - 2
    assert ideals.is_graded_ideal(alg, closure.submodule).closed


@pytest.mark.parametrize("b, window", [(1, range(-5, 6)),
                                       (F(1, 2), range(-4, 5))])
def test_closure_and_check_agree_on_the_scl2_pattern(b, window):
    # In CL2(b, 1) the SCL2 pattern (d + 2 at grade -2b, full elsewhere) is
    # closed: seeded with it, the closure adds nothing.  With its shift moved
    # to d + 3 it is not closed, and the closure grows to everything.
    alg = families.make_cl2(b, 1, window)
    for shift, closed in ((2, True), (3, False)):
        pattern = scl2_pattern(window, int(-2 * b), shift)
        seed = Element({alg.single_generator(g): pattern.generator(g)
                        for g in window})
        closure = _same_closure(alg, seed)
        assert closure.converged
        assert closure.submodule == (pattern if closed else
                                     ideals.GradedSubmodule.full_on(window))
        assert ideals.is_graded_ideal(alg, pattern).closed == closed


def test_closure_is_sound():
    # every closure is itself a closed graded submodule (modulo window skips)
    cases = [
        (families.make_v(1, range(-4, 5)), 1, None),
        (families.make_cl2(F(1, 2), 1, range(-5, 6)), 0, None),
        (families.make_cl2(1, 1, range(-5, 6)), -2, D + 2),
    ]
    for alg, grade, coeff in cases:
        gen = alg.single_generator(grade)
        seed = Element({gen: coeff}) if coeff is not None \
            else Element.generator(gen)
        closure = ideals.ideal_generated_by(alg, seed)
        assert closure.converged
        assert ideals.is_graded_ideal(alg, closure.submodule).closed


def test_closure_monotone_under_containing_ideal():
    # a seed inside the rescaled-generator ideal closes up inside it
    alg = families.make_cl2(1, 1, range(-5, 6))
    pattern = scl2_pattern(range(-5, 6), -2, 2)
    seed = Element({alg.single_generator(-2): (D + 2) ** 2})
    closure = ideals.ideal_generated_by(alg, seed).submodule
    for grade in range(-5, 6):
        q_closure = closure.generator(grade)
        q_pattern = pattern.generator(grade)
        if q_closure is None:
            continue
        assert q_pattern is not None
        assert q_pattern.divides(q_closure)


# -- simplicity probe -----------------------------------------------------------------

def test_probe_finds_proper_closure_for_half_integral_b():
    alg = families.make_cl2(F(1, 2), 1, range(-6, 7))
    report = ideals.simplicity_probe(alg, range(-2, 3))
    by_seed = {f.seed_grade: f for f in report.findings}
    assert by_seed[0].proper
    assert dict(by_seed[0].components)[-1] == "d + 2"
    # the rescaled grade itself regenerates everything
    assert not by_seed[-1].proper


def test_probe_clean_on_simple_families():
    v1 = families.make_v(1, range(-6, 7))
    assert ideals.simplicity_probe(v1, range(-2, 3)).proper_seeds == ()
    cl2 = families.make_cl2(F(1, 3), 1, range(-6, 7))
    assert ideals.simplicity_probe(cl2, range(-2, 3)).proper_seeds == ()


def test_probe_trivial_on_vir():
    report = ideals.simplicity_probe(families.make_vir(), [0])
    assert report.proper_seeds == ()


def test_probe_accepts_bindings():
    alg = families.make_cl2(F(1, 2), "s", range(-6, 7))
    report = ideals.simplicity_probe(alg.instantiate({"s": F(1)}),
                                     range(-1, 2))
    assert 0 in report.proper_seeds


def test_probe_core_must_be_in_window():
    alg = families.make_v(1, range(-2, 3))
    with pytest.raises(ValueError):
        ideals.simplicity_probe(alg, range(-4, 5))
