import pytest

from tdlc import coxeter_ra as cox
from tdlc import kak_building as kb
from tdlc import rab
from tdlc.errors import CertificationError
from oracles import all_systems, nontrivial_wing_sigmas, scan_contraction_witness


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


def sweep_spec(system, qs):
    return rab.BuildingSpec(system, dict(zip(system.generators, qs)))


def contraction_sweep():
    """(id, spec, L, ws): D_inf with q = 3 at L = 4, 7 and 10 and with
    q = (5, 4) at L = 6, ws = (t s)^k up to length L; path4 with
    q = (3, 4, 3, 4) at L = 5, ws = a, aca and abcda; and every irreducible,
    non-spherical labelled 3-generator system at L = 4 with q = (3, 3, 3) and
    (4, 3, 5), ws every element of length <= 4."""
    dinf = cox.RACoxeterSystem.create(["s", "t"])
    for qs, L in (((3, 3), 4), ((3, 3), 7), ((3, 3), 10), ((5, 4), 6)):
        yield f"dinf_q{qs[0]}{qs[1]}_L{L}", sweep_spec(dinf, qs), L, \
            [cox.word_from_names(dinf, "t s " * k) for k in range(1, L // 2 + 1)]
    path4 = cox.RACoxeterSystem.create(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    yield "path4_q3434_L5", sweep_spec(path4, (3, 4, 3, 4)), 5, \
        [cox.word_from_names(path4, w) for w in ("a", "a c a", "a b c d a")]
    systems = [system for system in all_systems(3)
               if cox.is_irreducible(system) and not cox.is_spherical(system, system.generators)]
    assert len(systems) == 4   # free3 and the three labellings of one commuting pair
    for i, system in enumerate(systems):
        for qs in ((3, 3, 3), (4, 3, 5)):
            yield f"sys3_{i}_q{''.join(map(str, qs))}_L4", sweep_spec(system, qs), 4, \
                cox.enumerate_elements(system, 4)


def outcome(build):
    try:
        return build()
    except AssertionError as exc:
        return str(exc)


SWEEP = {name: case for name, *case in contraction_sweep()}


@pytest.mark.parametrize("spec, L, ws", SWEEP.values(), ids=SWEEP)
def test_contraction_claims_match_the_scan_oracle(spec, L, ws, monkeypatch):
    cert = kb.building_contraction_witness(ws, spec, L)
    want = scan_contraction_witness(ws, spec, L)
    fields = ("generator", "chain_words", "distances", "fixed_ball_radii", "certified_radius")
    assert [getattr(cert, f) for f in fields] == [getattr(want, f) for f in fields]
    # x's view on B(C, 1), the first chambers of B(C, L), is the scan's view cut to them.
    n = len(cert.witness.ball)
    assert cert.witness.ball.radius == 1 and not cert.witness.is_identity_on_ball()
    assert cert.witness.mapping == {i: j for i, j in want.witness.mapping.items() if i < n and j < n}
    # Wing claim: a representative that sends x's moved wing W((s, q_s - 1), s)
    # onto the translated opposite wing fails both at the first chain element.
    s = spec.system.index_of(cert.generator)
    real = kb.representative_aut
    swap = rab.BasePanelPermutation(spec, s, rab.transposition(spec.q(s), 1, spec.q(s) - 1))
    monkeypatch.setattr(kb, "representative_aut", lambda *args: real(*args).compose(swap))
    message = "conjugated witness moves the translated opposite wing"
    assert outcome(lambda: kb.building_contraction_witness(ws, spec, L)) == message
    assert outcome(lambda: scan_contraction_witness(ws, spec, L)) == message


@pytest.mark.parametrize("name", [name for name in SWEEP if "q33_" in name or "q333" in name])
def test_contraction_radius_is_the_scans_nearest_moved_chamber(name, monkeypatch):
    # With one chain element and its distance raised by one, both refuse at the
    # moved chamber nearest C, which lies at distance d_k: the closed radius is
    # the scan's.  Run where the scan is cheap, q = 3 on every panel.
    spec, L, ws = SWEEP[name]
    chain = cox.root_growth_search(ws)
    for w_k, d_k in zip(chain.chain, chain.distances):
        raised = cox.GrowthChain(chain.generator, (w_k,), (d_k + 1,))
        for module in (kb, cox):
            monkeypatch.setattr(module, "root_growth_search", lambda ws: raised)
        message = f"conjugated witness moves B(C,{d_k}) at distance {d_k}"
        assert outcome(lambda: kb.building_contraction_witness(ws, spec, d_k + 1)) == message
        assert outcome(lambda: scan_contraction_witness(ws, spec, d_k + 1)) == message
