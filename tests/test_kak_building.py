import pytest

from tdlc import coxeter_ra as cox
from tdlc import kak_building as kb
from tdlc import rab
from tdlc.errors import CertificationError
from oracles import nontrivial_wing_sigmas


def dinf_spec(qs=3, qt=3):
    system = cox.RACoxeterSystem.create(["s", "t"])
    return rab.BuildingSpec(system, {"s": qs, "t": qt})


def test_representatives_satisfy_delta():
    spec = dinf_spec()
    bc = kb.representatives(spec, 3)
    assert len(bc.reps) == 7  # e, s, t, st, ts, sts, tst
    base = rab.identity_chamber(spec)
    for word, aut in bc.reps.items():
        assert rab.weyl_distance(base, aut.image(base)).word == word


def test_representatives_stabilize_apartment():
    spec = dinf_spec()
    bc = kb.representatives(spec, 3)
    ap = bc.apartment
    for w in cox.enumerate_elements(spec.system, 3):
        aut = bc.rep_for(w)
        for x in cox.enumerate_elements(spec.system, 3):
            img = aut.image(rab.apartment_chamber(spec, ap, x))
            assert rab.in_apartment(spec, ap, img)
            assert img == rab.apartment_chamber(spec, ap, cox.multiply(w, x))


def test_representatives_preserve_weyl_distance():
    spec = dinf_spec()
    bc = kb.representatives(spec, 2)
    ball = rab.ChamberBall(spec, 2)
    import random
    rng = random.Random(5)
    big_ball = rab.ChamberBall(spec, 4)
    pairs = [(rng.choice(big_ball.chambers), rng.choice(big_ball.chambers))
             for _ in range(1000)]
    aut = bc.rep_for(cox.word_from_names(spec.system, "s t"))
    for C, D in pairs:
        assert rab.weyl_distance(aut.image(C), aut.image(D)) == rab.weyl_distance(C, D)
    # exhaustive at L = 2 over every representative
    for w in cox.enumerate_elements(spec.system, 2):
        aut = bc.rep_for(w)
        for C in ball.chambers:
            for D in ball.chambers:
                assert rab.weyl_distance(aut.image(C), aut.image(D)) == rab.weyl_distance(C, D)


def test_factorize_identity_and_representatives():
    spec = dinf_spec()
    bc = kb.representatives(spec, 2)
    ball = rab.ChamberBall(spec, 2)
    base = rab.identity_chamber(spec)

    stab = rab.PanelRotation(spec, base, 0, (0, 2, 1)).restrict(ball)
    fact = kb.factorize(stab, bc, ball)
    assert fact.w.word == ()

    st = cox.word_from_names(spec.system, "s t")
    a_st = bc.rep_for(st).restrict(ball)
    fact2 = kb.factorize(a_st, bc, ball)
    assert fact2.w == st


def test_factorize_rotated_representative():
    spec = dinf_spec()
    bc = kb.representatives(spec, 2)
    ball = rab.ChamberBall(spec, 2)
    base = rab.identity_chamber(spec)
    rot = rab.PanelRotation(spec, base, 1, (0, 2, 1))
    st = cox.word_from_names(spec.system, "s t")
    g = rot.compose(bc.rep_for(st)).restrict(ball)
    fact = kb.factorize(g, bc, ball)
    assert fact.w == st
    assert fact.k.exact.image(base) == base
    assert fact.k_prime.exact.image(base) == base


def test_factorize_exhaustive_small():
    # every product (rotation at base) o a_w factors back with label w
    spec = dinf_spec()
    bc = kb.representatives(spec, 2)
    ball = rab.ChamberBall(spec, 2)
    base = rab.identity_chamber(spec)
    rotations = [rab.CompositeAut(spec, ())]
    for t in range(2):
        for sigma in nontrivial_wing_sigmas(3):
            rotations.append(rab.PanelRotation(spec, base, t, sigma))
    for w in cox.enumerate_elements(spec.system, 2):
        for rot in rotations:
            g = rot.compose(bc.rep_for(w)).restrict(ball)
            fact = kb.factorize(g, bc, ball)
            assert fact.w == w


def test_factorize_out_of_range():
    spec = dinf_spec()
    bc = kb.representatives(spec, 1)
    ball = rab.ChamberBall(spec, 2)
    st = cox.word_from_names(spec.system, "s t")
    g = bc_rep = kb.representative_aut(spec, bc.apartment, st).restrict(ball)
    with pytest.raises(CertificationError):
        kb.factorize(g, bc, ball)


def test_double_coset_disjointness():
    spec = dinf_spec()
    bc = kb.representatives(spec, 3)
    report = kb.double_coset_disjointness_check(bc)
    assert report.disjoint
    assert report.checked == 7
    thin = kb.representatives(dinf_spec(2, 2), 3)
    assert kb.double_coset_disjointness_check(thin).disjoint


def test_building_contraction_witness():
    spec = dinf_spec()
    system = spec.system
    ws = [cox.word_from_names(system, "t s " * k) for k in range(1, 4)]
    cert = kb.building_contraction_witness(ws, spec, 8)
    assert isinstance(cert, kb.BuildingContractionCertificate)
    assert cert.generator == "s"
    assert cert.distances == (2, 4, 6)
    assert cert.fixed_ball_radii == (1, 3, 5)
    assert not cert.witness.is_identity_on_ball()


@pytest.mark.parametrize("q", [3, 4, 5])
def test_building_contraction_refuses_a_root_beyond_the_ball_unlisted(q, monkeypatch):
    spec = dinf_spec(q, q)
    ws = [cox.word_from_names(spec.system, "t s " * k) for k in range(1, 3)]   # distances 2 and 4
    # At L = 4, the least radius that holds both roots, the witness moves the base chamber.
    cert = kb.building_contraction_witness(ws, spec, 4)
    assert cert.distances == (2, 4) and not cert.witness.is_identity_on_ball()

    def no_ball(*args, **kwargs):
        raise AssertionError("the chamber ball was listed")

    monkeypatch.setattr(kb, "ChamberBall", no_ball)
    for L in (0, 3):
        with pytest.raises(CertificationError, match="root chambers not represented in the ball"):
            kb.building_contraction_witness(ws, spec, L)


@pytest.mark.parametrize("q", range(3, 9))
def test_witness_sigma_is_the_first_nontrivial_wing_sigma(q):
    assert kb._witness_sigma(q) == nontrivial_wing_sigmas(q)[0]


def test_empty_composite_is_the_identity():
    spec = dinf_spec()
    e = rab.CompositeAut(spec, ())
    assert e.inverse().parts == ()
    assert all(e.image(C) == C for C in rab.ChamberBall(spec, 2).chambers)
    assert kb.representative_aut(spec, rab.ApartmentRef.default(spec), cox.identity(spec.system)).parts == ()


def test_building_contraction_witness_errors():
    spec = dinf_spec()
    system = spec.system
    with pytest.raises(ValueError, match="no growing chain"):
        kb.building_contraction_witness(
            [cox.identity(system), cox.word_from_names(system, "s")], spec, 4)
    thin = dinf_spec(2, 2)
    res = kb.building_contraction_witness(
        [cox.word_from_names(system, "t s " * k) for k in range(1, 3)], thin, 4)
    assert isinstance(res, kb.NoBuildingWitness)
    assert "trivial wing fixator" in res.reason
