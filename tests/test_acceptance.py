"""Acceptance battery: eleven go/no-go checks at the reference settings.

Each test covers one numbered criterion, prints exactly one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live), and
asserts on the collected sub-check failures. The reference surface is the
genus-2 pair of handles (-6, -2, 0.09) and (2, 6, 0.09); series run at
word length 10 unless a check needs a different regime.
"""

import json

import numpy as np
import pytest

import schottkycalc.variation as va
from schottkycalc.cli import _random_word_pair
from schottkycalc.cli import main as cli_main
from schottkycalc.contour import contour_nodes, handle_moments, handle_nodes
from schottkycalc.eichler import (
    PolyForm,
    canonical_cocycle,
    coboundary,
    cocycle_eval,
    decompose_coboundary,
    poly_pullback,
)
from schottkycalc.gem import (
    CanonicalGEM,
    SpanningTheta,
    canonical_gem,
    canonical_moment_residuals,
    expected_moment_identity,
    moment_identity,
    select_basis,
)
from schottkycalc.moebius import apply as mob_apply
from schottkycalc.moebius import deriv, inverse, moebius
from schottkycalc.poincare import (
    BersEvaluator,
    NuFamily,
    SeriesConfig,
    ThirdKindEvaluator,
)
from schottkycalc.schottky import (
    HandleParams,
    SchottkyParams,
    from_classical,
    generator,
    to_classical,
    transport,
    validate,
    word_map,
)

STAR = SchottkyParams(
    handles=(HandleParams(-6.0, -2.0, 0.09), HandleParams(2.0, 6.0, 0.09))
)
FULL10 = SeriesConfig(max_len=10, shell_tol=1e-8)
# identical results to full depth within ~1e-11; skips shells that cannot
# contribute at the tolerances below
FAST10 = SeriesConfig(max_len=10, shell_tol=1e-8, stop_tol=1e-11)
TWO_PI_I = 2j * np.pi


def _verdict(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{num:2d}/11] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check(failures: list, label: str, err: float, tol: float):
    if not (err < tol):
        failures.append(f"{label}: {err:.3e} >= {tol:.1e}")


@pytest.fixture(scope="module")
def can10():
    return canonical_gem(STAR, 2, config=FAST10, n_nodes=256)


@pytest.fixture(scope="module")
def theta10(can10):
    return SpanningTheta(can10.base)


# ---------------------------------------------------------------------------


def test_01_surface_validity_and_conversions():
    failures = []
    if validate(STAR):
        failures.append(f"reference surface reported violations: {validate(STAR)}")

    for h in STAR.handles:
        back = from_classical(to_classical(h))
        err = max(
            abs(back.w_plus - h.w_plus),
            abs(back.w_minus - h.w_minus),
            abs(back.rho - h.rho),
        )
        _check(failures, "classical round trip", err, 1e-10)

    rng = np.random.default_rng(0)
    for a in (1, 2):
        h = STAR.handles[a - 1]
        g = generator(STAR, a)
        done = 0
        while done < 10:
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z - h.w_plus) < 0.5:
                continue
            err = abs((mob_apply(g, z) - h.w_minus) * (z - h.w_plus) - h.rho)
            _check(failures, f"sewing identity handle {a}", err, 1e-12)
            done += 1

    _verdict(1, "surface validity, conversions, sewing identity", failures)


def test_02_cocycle_algebra():
    failures = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        w1, w2 = _random_word_pair(rng, STAR.genus)
        a = int(rng.integers(1, STAR.genus + 1))
        k = int(rng.integers(3))
        X = canonical_cocycle(STAR, 2, a, k)
        combined = cocycle_eval(X, tuple(w1) + tuple(w2))
        head = cocycle_eval(X, w1)
        for letter in w2:
            head = poly_pullback(head, X.letter_map(letter))
        rhs = head + cocycle_eval(X, w2)
        worst = max(
            worst, (combined - rhs).norm() / max(1.0, combined.norm(), rhs.norm())
        )
    _check(failures, "composition law over 100 reduced word pairs", worst, 1e-10)

    worst = 0.0
    for k in range(3):
        mono = [0.0] * 3
        mono[k] = 1.0
        P = PolyForm(2, tuple(mono))
        coeffs = decompose_coboundary(STAR, P)
        X_P = coboundary(STAR, P)
        for a in (1, 2):
            rebuilt = PolyForm.zero(2)
            for b in (1, 2):
                for l in range(3):
                    rebuilt = rebuilt + cocycle_eval(
                        canonical_cocycle(STAR, 2, b, l), (a,)
                    ) * complex(coeffs[b - 1, l])
            target = X_P.on_letter(a)
            worst = max(
                worst, (rebuilt - target).norm() / max(1.0, target.norm())
            )
    _check(failures, "coboundary reconstruction", worst, 1e-10)

    _verdict(2, "cocycle composition and coboundary decomposition", failures)


def test_03_bers_series_structure():
    failures = []
    bers = BersEvaluator(STAR, 2, config=FULL10)

    x, y = 0.25 + 0.4j, -0.6 - 0.2j
    worst = 0.0
    for a in (1, 2):
        g = generator(STAR, a)
        lhs = bers.value(mob_apply(g, x), y) * deriv(g, x) ** 2
        rhs = bers.value(x, y)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _check(failures, "x-periodicity as a weight-2 form", worst, 1e-6)

    z, dz = contour_nodes(y, 0.12, 256)
    res = handle_moments(bers.value_grid(z, np.array([y])), z, dz, y, [0], 1e-9)[0, 0]
    _check(failures, "unit residue at coincidence", abs(res - 1.0), 1e-8)

    bers.value(x, y)
    mags = bers.last_shell_magnitudes  # each word length's largest shell total
    for l in range(2, len(mags) - 1):
        if not (mags[l + 1] < mags[l]):
            failures.append(
                f"shell decay not monotone at length {l}: "
                f"{mags[l]:.3e} -> {mags[l + 1]:.3e}"
            )

    _verdict(3, "series periodicity, residue, shell decay", failures)


def test_04_dimension_counts(can10):
    failures = []

    def check_gap(sel, want_dim, label):
        if sel.dim != want_dim:
            failures.append(f"{label} rank {sel.dim} != {want_dim}")
            return
        gap = sel.singular_values[want_dim - 1] / sel.singular_values[want_dim]
        if not (gap >= 1e6):
            failures.append(f"{label} singular gap {gap:.3e} < 1e6")

    check_gap(can10.selection, 3, "(g,N)=(2,2)")

    base23 = BersEvaluator(STAR, 3, config=FAST10)
    check_gap(select_basis(SpanningTheta(base23), n_nodes=128), 5, "(g,N)=(2,3)")

    wide = SchottkyParams(
        handles=(
            HandleParams(-12.0, -8.0, 0.04),
            HandleParams(-4.0, 4.0, 0.04),
            HandleParams(8.0, 12.0, 0.04),
        )
    )
    base32 = BersEvaluator(
        wide, 2, config=SeriesConfig(max_len=6, shell_tol=1e-6, stop_tol=1e-11)
    )
    check_gap(select_basis(SpanningTheta(base32), n_nodes=128), 6, "(g,N)=(3,2)")

    _verdict(4, "differential-space dimensions and rank gaps", failures)


def test_05_duality_and_coboundary_annihilation(can10, theta10):
    failures = []
    sel = can10.selection

    # re-derive the delta matrix by quadrature on fresh contours
    got = np.empty((sel.dim, len(sel.J)), dtype=np.complex128)
    for j, flat in enumerate(sel.J):
        a, k = sel.label(flat)
        z, dz, w_a = handle_nodes(STAR, a, 256)
        vals = can10.dual.values(z)
        got[:, j] = (vals * (z - w_a) ** k * dz).sum(axis=1) / TWO_PI_I
    _check(
        failures,
        "dual-basis delta matrix",
        float(np.max(np.abs(got - np.eye(sel.dim)))),
        1e-8,
    )

    cobs = [
        coboundary(STAR, PolyForm(2, tuple(1.0 if i == k else 0.0 for i in range(3))))
        for k in range(3)
    ]
    totals = np.zeros((len(cobs), 2, 3), dtype=np.complex128)
    for a in (1, 2):
        z, dz, _ = handle_nodes(STAR, a, 256)
        tab = theta10.table(z)  # evaluate every jump row once per contour
        for i, X in enumerate(cobs):
            pz = X.values[a - 1](z) * dz
            for b in (1, 2):
                for l in range(3):
                    totals[i, b - 1, l] += np.sum(tab[b - 1, l] * pz) / TWO_PI_I
    _check(
        failures,
        "coboundary pairing across all monomials",
        float(np.max(np.abs(totals))),
        1e-8,
    )

    _verdict(5, "contour duality and coboundary annihilation", failures)


def test_06_canonical_kernel_normalization(can10):
    failures = []

    ys = np.array([0.4 - 0.6j, -0.3 + 0.8j, 1.2 + 0.3j, -1.0 - 0.5j, 0.1 + 1.1j])
    _check(
        failures,
        "J-indexed moments on 5-point grid",
        canonical_moment_residuals(can10, ys, n_nodes=256),
        1e-8,
    )

    xs = np.array([0.5 + 0.3j, -0.7j, 0.1 + 0.05j])
    tab = SpanningTheta(can10).table(xs).reshape(6, len(xs))
    phi = can10.dual.values(xs)
    worst_on, worst_off = 0.0, 0.0
    for i, j in enumerate(can10.selection.J):
        worst_on = max(worst_on, float(np.max(np.abs(tab[j] + phi[i]))))
    for j in range(6):
        if j not in can10.selection.J:
            worst_off = max(worst_off, float(np.max(np.abs(tab[j]))))
    _check(failures, "quasi-period match on selected indices", worst_on, 1e-7)
    _check(failures, "quasi-period vanishing off selection", worst_off, 1e-7)

    y_in = mob_apply(inverse(generator(STAR, 1)), 0.4 - 0.6j)  # inside first disc
    worst = 0.0
    for flat in can10.selection.J:
        a, k = can10.selection.label(flat)
        X = canonical_cocycle(STAR, 2, a, k)
        got = moment_identity(can10, X, y_in, n_nodes=256)
        want = expected_moment_identity(can10, X, y_in)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _check(failures, "contour identity at a folded point", worst, 1e-7)

    _verdict(6, "canonical kernel moments, jumps, contour identity", failures)


def test_07_third_kind_and_handle_differentials():
    failures = []

    ev = ThirdKindEvaluator(STAR, config=FAST10)
    y = 0.9 + 0.4j

    for pole, want, what in ((y, 1.0, "+1 at the moving"), (0j, -1.0, "-1 at the anchor")):
        z, dz = contour_nodes(pole, 0.15, 256)
        res = handle_moments(ev.value_grid(z, np.array([y])), z, dz, pole, [0], 1e-9)[0, 0]
        _check(failures, f"residue {what} pole", abs(res - want), 1e-8)

    nu = NuFamily(STAR, config=FAST10)
    alt = NuFamily(STAR, config=FAST10, y0=0.8 + 0.3j)
    xs = np.array([0.2 - 0.1j, -0.7 + 0.4j, 1.3 + 0.2j])
    _check(
        failures,
        "base-point independence",
        float(np.max(np.abs(alt.values(xs) - nu.values(xs)))),
        1e-8,
    )

    _check(
        failures,
        "delta normalization over handle circles",
        va.nu_normalization_error(STAR, nu),
        1e-8,
    )

    _verdict(7, "third-kind residues and normalized differentials", failures)


def test_08_period_matrix():
    failures = []

    cfg1 = SeriesConfig(max_len=20, shell_tol=1.0)
    for rho in (0.25, -0.25):
        p1 = SchottkyParams(handles=(HandleParams(-2.0, 2.0, rho),))
        omega = va.period_matrix(p1, config=cfg1).omega[0, 0]
        q = to_classical(p1.handles[0]).q
        _check(
            failures,
            f"genus-1 multiplier match (rho={rho})",
            abs(np.exp(TWO_PI_I * omega) - q) / abs(q),
            1e-8,
        )
        _check(
            failures,
            f"genus-1 modulus match (rho={rho})",
            abs(omega.imag + np.log(abs(q)) / (2 * np.pi)),
            1e-8,
        )

    pm = va.period_matrix(STAR, config=FAST10)
    _check(failures, "genus-2 symmetry", pm.symmetry_error, 1e-7)

    for M in (moebius(1.05 + 0.2j, 0.3 - 0.1j, 0, 1), moebius(1, 0.5j, 0.1, 1)):
        moved = va.period_matrix(transport(STAR, M), config=FAST10)
        _check(
            failures,
            "transport invariance",
            float(np.max(np.abs(moved.omega - pm.omega))),
            1e-6,
        )

    _verdict(8, "period matrix: genus-1 value, symmetry, transport", failures)


def test_09_rauch_variational_identity(can10):
    failures = []
    xs = [0.5 + 0.3j, -0.2 - 0.8j, 1.1 + 0.1j]
    y0 = 0j

    grad = va.period_gradient(STAR, config=FAST10)
    base = va.period_matrix(STAR, config=FAST10, y0=y0)  # certified once, shared below
    rep = va.rauch_check(can10, xs, grad, base)
    _check(failures, "identity with the Cauchy gradient over 3 samples", rep["max_rel_error"], 1e-10)

    # the exact gradient agrees with the Cauchy moments of whole period
    # matrices and leaves only the quadrature and truncation floor in the identity
    exact = va.exact_period_gradient(base)
    _check(
        failures,
        "exact gradient against the Cauchy gradient",
        float(np.max(np.abs(exact - grad)) / np.max(np.abs(exact))),
        1e-11,
    )
    exact_rep = va.rauch_check(can10, xs, exact, base)
    _check(failures, "identity with the exact gradient", exact_rep["max_rel_error"], 1e-11)

    # psi - phi_0(x) P(y) with phi_0 the first dual differential: the
    # canonical kernel with correction row 0 shifted by P's coefficients
    shift = np.zeros_like(can10.corrections)
    shift[0] = (0.3, -0.2, 0.1)
    shifted = CanonicalGEM(
        can10.base, can10.theta, can10.selection, can10.dual, can10.corrections + shift
    )
    scale = float(np.min(np.abs(rep["rhs"])))
    for label, kernel in (("shifted kernel", shifted), ("uncorrected kernel", can10.base)):
        other = va.rauch_check(kernel, xs, grad, base)
        _check(
            failures,
            f"kernel-choice invariance ({label})",
            float(np.max(np.abs(other["lhs"] - rep["lhs"]))) / scale,
            1e-6,
        )

    _verdict(9, "variational identity for the period matrix", failures)


def test_10_punctured_operator(can10):
    failures = []

    z = 0.4 - 0.6j
    worst = 0.0
    for word in [(1,), (2, -1), (1, -2, 1)]:
        m = word_map(STAR, word)
        dz = deriv(m, z)
        for a in (1, 2):
            for l in range(3):
                lhs = va.direction_diff(STAR, a, l, lambda q: mob_apply(word_map(q, word), z))
                rhs = -cocycle_eval(canonical_cocycle(STAR, 2, a, l), word)(z) * dz
                worst = max(worst, abs(lhs - rhs))
    _check(failures, "orbit-derivative identity", worst, 1e-10)

    x, y = 0.5 + 0.3j, 0.4 - 0.6j
    f = lambda q, ys: mob_apply(word_map(q, (1,)), ys[0])
    lhs = va.nabla_punctured_apply(can10, (y,), f, x)
    rhs = can10.value(x, mob_apply(word_map(STAR, (1,)), y))
    _check(failures, "puncture-motion covariance", abs(lhs - rhs), 1e-12)

    _verdict(10, "moduli derivatives with moving punctures", failures)


def _strip_run_metadata(obj):
    """Drop timing fields and the worker-count echo; results stay."""
    if isinstance(obj, dict):
        return {
            k: _strip_run_metadata(v)
            for k, v in obj.items()
            if not k.startswith("wall_time") and k != "workers"
        }
    if isinstance(obj, list):
        return [_strip_run_metadata(v) for v in obj]
    return obj


def test_11_deterministic_reports(tmp_path):
    failures = []
    cfg = {
        "surface": {
            "handles": [
                {"w_plus": [-6.0, 0.0], "w_minus": [-2.0, 0.0], "rho": 0.09},
                {"w_plus": [2.0, 0.0], "w_minus": [6.0, 0.0], "rho": 0.09},
            ]
        },
        "N": 2,
        "max_len": 10,
        "shell_tol": 1e-8,
        "stop_tol": 1e-11,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    payloads = []
    for i, workers in enumerate((1, 2, 4)):
        out = tmp_path / f"report{i}.json"
        code = cli_main(
            [
                "report",
                "--config",
                str(cfg_path),
                "--json",
                str(out),
                "--workers",
                str(workers),
            ]
        )
        if code != 0:
            failures.append(f"report run with {workers} workers exited {code}")
            continue
        data = _strip_run_metadata(json.loads(out.read_text()))
        payloads.append(json.dumps(data, sort_keys=True))

    if len(payloads) == 3:
        if payloads[0] != payloads[1] or payloads[0] != payloads[2]:
            failures.append("payloads differ across worker counts")

    _verdict(11, "bit-identical reports at any worker count", failures)
