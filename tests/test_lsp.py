import numpy as np
import pytest

from auramimo import InvalidScenario, MissingLsp, draw_lsp
from auramimo.lsp import correlated_normals
from conftest import make_scenario, make_two_user_layout


def test_scenario_validates_fields():
    with pytest.raises(InvalidScenario):
        make_scenario(delay_spread_median_s=-1.0)
    with pytest.raises(InvalidScenario):
        make_scenario(clusters_per_user=0)
    with pytest.raises(InvalidScenario):
        make_scenario(r_tau=1.0)  # must exceed 1
    with pytest.raises(InvalidScenario):
        make_scenario(r_tau=float("nan"))
    with pytest.raises(InvalidScenario):
        make_scenario(shadow_std_db=-0.1)


def test_lsp_values_positive_and_deterministic(scenario):
    layout = make_two_user_layout(2.0)
    a = draw_lsp(scenario, layout, seed=3)
    b = draw_lsp(scenario, layout, seed=3)
    for user in (1, 2):
        va, vb = a.of(user, 0), b.of(user, 0)
        assert va.sigma_tau_s > 0
        assert va.sigma_aoa_deg > 0
        assert va.sigma_eod_deg > 0
        assert va == vb  # frozen dataclass, field-wise equality
    c = draw_lsp(scenario, layout, seed=4)
    assert c.of(1, 0).sigma_tau_s != a.of(1, 0).sigma_tau_s


def test_missing_lsp_raises(scenario):
    layout = make_two_user_layout(2.0)
    draw = draw_lsp(scenario, layout, seed=3)
    with pytest.raises(MissingLsp):
        draw.of(99, 0)


def test_zero_log_std_gives_medians():
    scenario = make_scenario(
        delay_spread_log_std=0.0,
        aoa_spread_log_std=0.0,
        aod_spread_log_std=0.0,
        eoa_spread_log_std=0.0,
        eod_spread_log_std=0.0,
    )
    layout = make_two_user_layout(2.0, n_snapshots=20)
    draw = draw_lsp(scenario, layout, seed=9)
    v = draw.of(1, 1)
    assert v.sigma_tau_s == pytest.approx(1e-7, rel=1e-12)
    assert v.sigma_aoa_deg == pytest.approx(40.0, rel=1e-12)
    assert v.sigma_aod_deg == pytest.approx(20.0, rel=1e-12)
    assert v.sigma_eoa_deg == pytest.approx(5.0, rel=1e-12)


def test_infinite_correlation_distance_shares_one_draw():
    scenario = make_scenario(correlation_distance_m=float("inf"))
    layout = make_two_user_layout(300.0, n_snapshots=20)
    draw = draw_lsp(scenario, layout, seed=5)
    ref = draw.of(1, 0)
    for user in (1, 2):
        for seg in range(len(layout.segments)):
            assert draw.of(user, seg) == ref


def test_coincident_points_get_identical_values(scenario):
    layout = make_two_user_layout(0.0)
    draw = draw_lsp(scenario, layout, seed=17)
    assert draw.of(1, 0) == draw.of(2, 0)


def test_distant_users_get_distinct_values(scenario):
    layout = make_two_user_layout(500.0)
    draw = draw_lsp(scenario, layout, seed=17)
    assert draw.of(1, 0).sigma_tau_s != draw.of(2, 0).sigma_tau_s


def test_correlated_normals_distance_law(rng):
    # At separation equal to the correlation distance the correlation of
    # the underlying normals is 1/e.  Monte Carlo over many draws.
    dc = 30.0
    pts = np.array([[0.0, 0.0, 1.5], [dc, 0.0, 1.5]])
    z = correlated_normals(pts, dc, rng, n_draws=20000)
    assert z.shape == (20000, 2)
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert corr == pytest.approx(np.exp(-1.0), abs=0.05)
    # Marginals are standard normal.
    assert z[:, 0].std() == pytest.approx(1.0, abs=0.05)
    assert z[:, 1].mean() == pytest.approx(0.0, abs=0.05)


def test_correlated_normals_degenerate_cases(rng):
    pts = np.array([[1.0, 2.0, 1.5]])
    z = correlated_normals(pts, 50.0, rng)
    assert z.shape == (1, 1)
    z_inf = correlated_normals(
        np.array([[0.0, 0.0, 1.5], [400.0, 0.0, 1.5]]), float("inf"), rng
    )
    assert z_inf[0, 0] == z_inf[0, 1]


def _five_call_draw_lsp(scenario, layout, seed):
    """Reference: the covariance built, factored and sampled once per
    field, one (1, m) draw per call."""
    from auramimo.lsp import _FIELD_SPECS, STREAM_LSP

    keys = [(u, s.index) for u in layout.user_ids for s in layout.segments]
    points = np.array([layout.segment_start_position(u, s) for (u, s) in keys])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAM_LSP,)))
    dc = scenario.correlation_distance_m
    per_field = {}
    for field_name, median_name, std_name in _FIELD_SPECS:
        if np.isinf(dc):
            g = np.repeat(rng.standard_normal((1, 1)), len(points), axis=1)[0]
        else:
            unique, inverse = np.unique(points, axis=0, return_inverse=True)
            dist = np.linalg.norm(unique[:, None, :] - unique[None, :, :], axis=2)
            eigval, eigvec = np.linalg.eigh(np.exp(-dist / dc))
            factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
            z = rng.standard_normal((1, unique.shape[0]))
            g = (z @ factor.T)[:, inverse.ravel()][0]
        median, log_std = getattr(scenario, median_name), getattr(scenario, std_name)
        per_field[field_name] = median * np.exp(log_std * g)
    return {
        key: {name: float(values[i]) for name, values in per_field.items()}
        for i, key in enumerate(keys)
    }


@pytest.mark.parametrize("case", range(8))
def test_draw_lsp_matches_one_factorization_per_field_bit_for_bit(case):
    rng = np.random.default_rng(700 + case)
    # Cases 0 and 1 put both users on one track (every point duplicated);
    # case 2 has an infinite correlation distance.
    separation = 0.0 if case < 2 else float(rng.uniform(0.5, 60.0))
    dc = float("inf") if case == 2 else float(rng.uniform(1.0, 80.0))
    scenario = make_scenario(correlation_distance_m=dc)
    layout = make_two_user_layout(
        separation,
        stationarity_m=float(rng.uniform(0.5, 3.0)),
        n_snapshots=int(rng.integers(1, 40)),
        start_x=float(rng.uniform(5.0, 50.0)),
    )
    seed = int(rng.integers(2**32))
    draw = draw_lsp(scenario, layout, seed)
    expected = _five_call_draw_lsp(scenario, layout, seed)
    assert draw.values.keys() == expected.keys()
    for key, fields in expected.items():
        assert vars(draw.values[key]) == fields
