"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete."""

import math
import time

import numpy as np

from twinbeams.criteria import (
    MomentPair,
    conditional_variance,
    duan_separability,
    epr_product,
    gemellity,
    quadrature_moments,
    report_scalars,
    state_moments,
)
from twinbeams.sampling import draw_samples, estimate_criteria
from twinbeams.scenario import parse_scenario, sweep
from twinbeams.states import (
    GaussianTwoModeState,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    make_thermal,
    make_two_mode_squeezed,
    make_vacuum,
)

from oracles import (
    classical_unbalanced_correlation,
    conditional_variance_operational,
    gemellity_operational,
    photon_statistics,
    random_moment_pair,
    random_twin_family_state,
)


def _report(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_closed_form_vs_operational_oracles():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = random_moment_pair(rng)
        worst = max(worst, abs(gemellity(m).value - gemellity_operational(m)))
        for direction in (1, 2):
            f_a = m.f1 if direction == 1 else m.f2
            closed = conditional_variance(f_a, m.f2 if direction == 1 else m.f1,
                                          m.c12).value
            worst = max(worst,
                        abs(closed - conditional_variance_operational(m, direction)))
    elapsed = time.perf_counter() - start
    _report(1, "closed forms match the eigenvalue and optimal-gain oracles",
            worst <= 1e-12 and elapsed < 5.0,
            f"max |diff| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_balanced_identities():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(1000):
        f = rng.uniform(0.01, 30.0)
        c = rng.uniform(0.0, 1.0)
        g = gemellity(MomentPair(f, f, c)).value
        v = conditional_variance(f, f, c).value
        worst = max(worst, abs(v - g * (1.0 + c)), abs(v - (2.0 * g - g * g / f)))
        if not (g - 1e-12 <= v <= 2.0 * g + 1e-12):
            worst = max(worst, 1.0)
    _report(2, "balanced identities V = G(1+C) = 2G - G^2/F with G <= V <= 2G",
            worst <= 1e-12, f"max |diff| = {worst:.2e}")


def test_criterion_3_classical_split_exactness():
    worst_c = worst_g = 0.0
    for f_in in np.linspace(1.0, 100.0, 50):
        out = apply_beamsplitter(make_thermal(f_in, 1.0), math.pi / 4)
        m = quadrature_moments(out, 0.0, 0.0)
        worst_c = max(worst_c, abs(m.c12 - (f_in - 1.0) / (f_in + 1.0)))
        worst_g = max(worst_g, abs(gemellity(m).value - 1.0))
    rng = np.random.default_rng(2026)
    for _ in range(10):
        f_in = rng.uniform(1.5, 50.0)
        theta = rng.uniform(0.15, math.pi / 2 - 0.15)
        out = apply_beamsplitter(make_thermal(f_in, 1.0), theta)
        m = quadrature_moments(out, 0.0, 0.0)
        expected = classical_unbalanced_correlation(m.f1, m.f2)
        worst_c = max(worst_c, abs(abs(m.c12) - expected))
        worst_g = max(worst_g, abs(gemellity(m).value - 1.0))
    _report(3, "classical splits reproduce the correlation formulas with G = 1",
            worst_c <= 1e-12 and worst_g <= 1e-9,
            f"max |dC| = {worst_c:.2e}, max |G-1| = {worst_g:.2e}")


def test_criterion_4_tmsv_family():
    worst = 0.0
    for r in np.linspace(0.0, 2.0, 41):
        dm = state_moments(make_two_mode_squeezed(r))
        worst = max(
            worst,
            abs(gemellity(dm.plus).value - math.exp(-2.0 * r)),
            abs(duan_separability(dm) - 2.0 * math.exp(-2.0 * r)),
            abs(epr_product(dm, 1) - 1.0 / math.cosh(2.0 * r) ** 2),
            abs(epr_product(dm, 2) - 1.0 / math.cosh(2.0 * r) ** 2),
        )
    anchor = gemellity(state_moments(make_two_mode_squeezed(1.103)).plus).value
    _report(4, "squeezed-pair family matches exp(-2r) laws, anchor G = 0.11",
            worst <= 1e-9 and round(anchor, 2) == 0.11,
            f"max |diff| = {worst:.2e}, G(r=1.103) = {anchor:.4f}")


def test_criterion_5_loss_behavior():
    start = time.perf_counter()
    scn = parse_scenario(
        "schema = twinbeams-scenario-1\nsource = tmsv(3.0)\nstep = loss(1.0, 1.0)\n")
    grid = np.linspace(0.001, 0.999, 200)
    rows = sweep(scn, "step1.eta", grid)
    crossing = None
    for prev, row in zip(rows, rows[1:]):
        if (prev["epr_product_12"] - 1.0) * (row["epr_product_12"] - 1.0) <= 0.0:
            crossing = 0.5 * (prev["step1.eta"] + row["step1.eta"])
            break
    s12_ok = all(row["separability"] < 2.0 for row in rows)
    elapsed = time.perf_counter() - start
    _report(5, "EPR product crosses 1 near 50% transmission; S12 stays below 2",
            crossing is not None and abs(crossing - 0.5) <= 0.02
            and s12_ok and elapsed < 5.0,
            f"eta* = {crossing}, {elapsed:.2f} s")


def test_criterion_6_hierarchy_suite():
    rng = np.random.default_rng(2027)
    ok = True
    detail = []
    # implication 1 (any moments): some V < 1 forces G < 1
    for _ in range(10000):
        m = random_moment_pair(rng)
        v_min = min(conditional_variance(m.f1, m.f2, m.c12).value,
                    conditional_variance(m.f2, m.f1, m.c12).value)
        if v_min < 1.0 and not gemellity(m).value < 1.0:
            ok = False
            detail.append("V<1 without G<1")
            break
    # implication 2 (balanced): G < 0.5 forces V < 1
    for _ in range(10000):
        m = random_moment_pair(rng, balanced=True)
        if (gemellity(m).value < 0.5
                and not conditional_variance(m.f1, m.f2, m.c12).value < 1.0):
            ok = False
            detail.append("G<0.5 without V<1")
            break
    # implications 3 and 4 on random physical states of the twin family
    for _ in range(10000):
        dm = state_moments(random_twin_family_state(rng))
        s12 = duan_separability(dm)
        if s12 < 2.0:
            g_min = min(gemellity(dm.plus).value, gemellity(dm.minus).value)
            if not g_min < 1.0:
                ok = False
                detail.append("S12<2 without a twin gemellity")
                break
        if min(epr_product(dm, 1), epr_product(dm, 2)) < 1.0 and not s12 < 2.0:
            ok = False
            detail.append("EPR without S12<2")
            break
    # witness: G < 0.5 with one conditional variance above 1 (unbalanced)
    witness_v = False
    for _ in range(50000):
        m = random_moment_pair(rng)
        if gemellity(m).value < 0.5:
            v_max = max(conditional_variance(m.f1, m.f2, m.c12).value,
                        conditional_variance(m.f2, m.f1, m.c12).value)
            if v_max > 1.0:
                witness_v = True
                break
    # witness: non-separable but not EPR (40% transmission on strong squeezing)
    dm = state_moments(apply_loss(make_two_mode_squeezed(3.0), 0.4, 0.4))
    witness_epr = (duan_separability(dm) < 2.0
                   and epr_product(dm, 1) >= 1.0 and epr_product(dm, 2) >= 1.0)
    if not witness_v:
        detail.append("no unbalanced G/V witness")
    if not witness_epr:
        detail.append("no separability-without-EPR witness")
    _report(6, "hierarchy implications hold with both reverse-failure witnesses",
            ok and witness_v and witness_epr, "; ".join(detail))


def test_criterion_7_fock_counterexample():
    weights = [0.5 ** (n + 1) for n in range(59)]
    weights.append(1.0 - sum(weights))
    stats = photon_statistics(weights)
    ok = (stats.c12 == 1.0 and stats.intensity_gemellity == 0.0
          and stats.v12 == 0.0 and stats.v21 == 0.0)
    _report(7, "separable equal-photon mixture is perfectly intensity-correlated",
            ok, f"C12 = {stats.c12}, G = {stats.intensity_gemellity}")


def test_criterion_8_statistical_path():
    start = time.perf_counter()
    cases = {
        "vacuum": make_vacuum(),
        "tmsv(1.103)": make_two_mode_squeezed(1.103),
        "split thermal(9)": apply_beamsplitter(make_thermal(9.0, 1.0), math.pi / 4),
    }
    checked_keys = (
        "fplus_1", "fplus_2", "cplus", "fminus_1", "fminus_2", "cminus",
        "gemellity", "conditional_variance_12", "conditional_variance_21",
        "separability", "epr_product_12", "epr_product_21",
    )
    ok = True
    detail = []
    for seed, (label, state) in enumerate(cases.items(), start=90):
        est = estimate_criteria(draw_samples(state, 10 ** 6, seed=seed))
        dm = state_moments(state)
        targets = dict(report_scalars(dm))
        targets.update({
            "fplus_1": dm.plus.f1, "fplus_2": dm.plus.f2, "cplus": dm.plus.c12,
            "fminus_1": dm.minus.f1, "fminus_2": dm.minus.f2, "cminus": dm.minus.c12,
        })
        for key in checked_keys:
            e = est.estimates[key]
            tol = max(5.0 * e.stderr, 1e-12)
            if abs(e.value - targets[key]) > tol:
                ok = False
                detail.append(f"{label}/{key}: {e.value:.5f} vs {targets[key]:.5f}")
    elapsed = time.perf_counter() - start
    _report(8, "million-sample estimates agree with analytic values to 5 SE",
            ok and elapsed < 30.0, "; ".join(detail) or f"{elapsed:.1f} s")


def test_criterion_9_classicality_preservation():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(1000):
        b = rng.normal(size=(4, 4))
        s = GaussianTwoModeState(mean=rng.normal(size=4), cov=np.eye(4) + b @ b.T)
        for _ in range(rng.integers(1, 4)):
            s = apply_beamsplitter(
                s, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            s = apply_phase(s, rng.uniform(-math.pi, math.pi),
                            rng.uniform(-math.pi, math.pi))
        worst = min(worst, float(np.linalg.eigvalsh(s.cov - np.eye(4)).min()))
    _report(9, "passive pipelines keep classical states classical (cov >= identity)",
            worst >= -1e-9, f"min eigenvalue of cov - I = {worst:.2e}")
