"""`depth_value` over k[X] on a free module decides by the depth-dimension
bracket: an independent set S of the reduced basis's leads bounds the depth
above by n - |S|, and a specialized-else-Kronecker sequence of that length
bounds it below.  Both bounds are re-checked (VerificationError, CLI exit
4).  `depth_dim_identity` reports the same bracket, and
`is_completely_secant` reads `depth_value`, so neither runs a failing
Kronecker sequence there.  Off that path the specialized-else-Kronecker
route decides.  The runaway pins bound the wall clock of instances that
the Kronecker route took minutes on.
"""

import time

import pytest

import ffr.depth as depth
import ffr.groebner as gb
from ffr.algebra import AIdeal, AModule, FPAlgebra
from ffr.cli import run
from ffr.complexes import RingMatrix, determinantal_ideal
from ffr.depth import (INFINITY, DepthCertificate, depth_at_least,
                       depth_dim_identity, depth_value, is_completely_secant)
from ffr.ring import CoefField, PolyRing, QQ, VerificationError


def ideal(A, *gens):
    return AIdeal(A, [A.parse(g) for g in gens])


def xyz():
    return FPAlgebra(PolyRing(QQ, ["x", "y", "z"]), [])


def test_independent_set_is_the_dimension_witness():
    A = xyz()
    I = ideal(A, "x*y", "x*z").lifted()
    assert gb.independent_set(I) == (1, 2) and gb.krull_dimension(I) == 2
    assert gb.independent_set(ideal(A, "x", "y", "z").lifted()) == ()
    assert gb.independent_set(ideal(A, "x + 1", "x").lifted()) is None
    assert gb.krull_dimension(ideal(A, "x + 1", "x").lifted()) == -1


# both readers of the bracket: the value, and the identity's report on A
BRACKET_READERS = pytest.mark.parametrize(
    "decide", [depth_value, lambda a, E: depth_dim_identity(a)],
    ids=["depth_value", "depth_dim_identity"])


@BRACKET_READERS
def test_bracket_refuses_an_independent_set_that_meets_a_lead(
        monkeypatch, decide):
    # {x, y} has the size of dim A/(xy, xz) = 2 but carries the lead x*y
    A = xyz()
    monkeypatch.setattr(gb, "independent_set", lambda I: (0, 1))
    with pytest.raises(VerificationError, match="independent set"):
        decide(ideal(A, "x*y", "x*z"), AModule.free(A, 1))


@BRACKET_READERS
def test_bracket_refuses_an_independent_set_smaller_than_the_dimension(
        monkeypatch, decide):
    # {y} and {} carry no lead of (xy, xz) but are smaller than
    # dim A/a = 2: each claims a depth n - |S| > 1 that the lower bound
    # refuses
    A = xyz()
    for S in ((1,), ()):
        monkeypatch.setattr(gb, "independent_set", lambda I, S=S: S)
        with pytest.raises(VerificationError, match="below n - dim"):
            decide(ideal(A, "x*y", "x*z"), AModule.free(A, 1))


def test_depth_value_searches_the_independent_set_once(monkeypatch):
    # one search over k[X]: the bracket reads n - |S| off S itself
    calls = []
    search = gb.independent_set

    def counted(I):
        calls.append(I)
        return search(I)

    def no_dimension(I):
        raise AssertionError("krull_dimension ran")

    monkeypatch.setattr(gb, "independent_set", counted)
    monkeypatch.setattr(gb, "krull_dimension", no_dimension)
    A = xyz()
    assert depth_value(ideal(A, "x*y", "x*z"), AModule.free(A, 1)) == 1
    assert len(calls) == 1


def failed_lower_bound(gens, E, k):
    return DepthCertificate(k, False, fail_stage=1)


def test_depth_value_refuses_a_failed_lower_bound(monkeypatch):
    A = xyz()
    monkeypatch.setattr(depth, "_specialized_else_kronecker",
                        failed_lower_bound)
    with pytest.raises(VerificationError, match="below n - dim"):
        depth_value(ideal(A, "x*y", "x*z"), AModule.free(A, 1))


@pytest.mark.parametrize("fault", ["independent_set", "lower_bound"])
def test_depth_value_bracket_fault_exits_4(monkeypatch, capsys, fault):
    if fault == "independent_set":
        monkeypatch.setattr(gb, "independent_set", lambda I: (0, 1))
    else:
        monkeypatch.setattr(depth, "_specialized_else_kronecker",
                            failed_lower_bound)
    code = run(["depth-value", "--vars", "x,y,z", "--ideal", '["x*y","x*z"]'])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("ffr: internal verification failure: ")


def test_depth_value_reads_infinity_off_the_basis(monkeypatch):
    # on the bracket path a E = E is read off the reduced basis in hand
    def no_second_run(a, E):
        raise AssertionError("ideal_times_module_is_module ran")
    monkeypatch.setattr(depth, "ideal_times_module_is_module", no_second_run)
    A = xyz()
    assert depth_value(ideal(A, "x + 1", "x"), AModule.free(A, 2)) == INFINITY
    assert depth_value(ideal(A, "x"), AModule.free(A, 0)) == INFINITY
    assert depth_value(AIdeal(A, []), AModule.free(A, 1)) == 0


def test_quotient_depth_values_off_the_bracket():
    # quotient modules and algebras keep the specialized-else-Kronecker
    # route of length the generator count: on E = A/(x) the specialized
    # sequence of (y, z) is E-regular; on E = A/(x*y) it is not, and the
    # Kronecker run fails at stage 2
    A = xyz()
    assert depth_value(ideal(A, "y", "z"),
                       AModule(A, 1, [ideal(A, "x").gens])) == 2
    assert depth_value(ideal(A, "y", "z"),
                       AModule(A, 1, [ideal(A, "x*y").gens])) == 1
    B = FPAlgebra(A.ring, [A.parse("x*y")])
    assert depth_value(ideal(B, "x", "y"), AModule.free(B, 1)) == 1
    assert depth_value(ideal(B, "x + y", "z"), AModule.free(B, 1)) == 2


def generic_d2(p, cols):
    names = [f"a{i}{j}" for i in range(2) for j in range(cols)]
    R = PolyRing(CoefField(p), names)
    A = FPAlgebra(R, [])
    X = RingMatrix(A, [[R.var(f"a{i}{j}") for j in range(cols)]
                       for i in range(2)], 2, cols)
    return determinantal_ideal(X, 2), AModule.free(A, 1)


@pytest.mark.parametrize("p", [0, 32003])
def test_generic_2x5_minors_depth_value(p):
    # Gr(D_2) = 5 - 2 + 1 = 4 with 10 minors: the Kronecker run of length 10
    # fails at stage 5 after more than 120 s; the bracket takes about 0.05 s
    t0 = time.perf_counter()
    assert depth_value(*generic_d2(p, 5)) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"


@pytest.mark.parametrize("p", [0, 32003])
def test_generic_2x5_minors_depth_dim_identity(p):
    # the identity's report is the bracket's: more than 120 s when its
    # upper bound was a failing Kronecker run of length 5
    a, _ = generic_d2(p, 5)
    t0 = time.perf_counter()
    rep = depth_dim_identity(a)
    elapsed = time.perf_counter() - t0
    assert (rep.quotient_dim, rep.expected_depth, rep.holds) == (6, 4, True)
    assert elapsed < 10, f"took {elapsed:.1f}s"


def test_generic_2x6_minors_depth_value():
    # about 1.2-1.5 s on a 2-vCPU host
    t0 = time.perf_counter()
    assert depth_value(*generic_d2(32003, 6)) == 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 20, f"took {elapsed:.1f}s"


def no_kronecker(a, k):
    raise AssertionError("kronecker_sequence ran")


def test_depth_dim_identity_reads_the_bracket(monkeypatch):
    # one regular-sequence run of length n - |S|, no failing upper-bound run
    A = xyz()
    a, E = ideal(A, "x", "y"), AModule.free(A, 1)
    stages, regular = [], depth.is_E_regular_sequence
    monkeypatch.setattr(depth, "is_E_regular_sequence", lambda seq, E: (
        stages.append(seq) or regular(seq, E)))
    monkeypatch.setattr(depth, "kronecker_sequence", no_kronecker)
    rep = depth_dim_identity(a)
    assert len(stages) == 1
    assert (rep.quotient_dim, rep.expected_depth, rep.holds) == (1, 2, True)
    S = set(rep.independent_set)
    assert len(S) == 1
    assert not any(all(i in S for i, e in enumerate(g.lm()) if e)
                   for g in a.lifted().groebner().basis)
    assert rep.lower == depth_at_least(a, E, 2)


def test_not_completely_secant_without_a_kronecker_run(monkeypatch):
    # the six minors of the generic 2x4 matrix have height 3 < 6: the
    # bracket's sequence of length 3 holds, so no failing run is needed
    a, E = generic_d2(32003, 4)
    monkeypatch.setattr(depth, "kronecker_sequence", no_kronecker)
    assert len(a.gens) == 6
    assert not is_completely_secant(list(a.gens), E)
