"""Lower-level solvers: backends, weight updates, AM and DC heuristics."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccpkit.lowerlevel
import ccpkit.lp
import ccpkit.subgrad
from ccpkit import (
    AffineEqualities,
    BackendUnavailable,
    BiAffineEquality,
    BinaryTiny,
    Box,
    Covering,
    DrccpSpec,
    Halfspaces,
    Intersection,
    L1,
    L2,
    LInf,
    LpProblem,
    NoConvergence,
    NormAugmented,
    NonNegOrthant,
    SgdConfig,
    also_x,
    also_x_plus,
    am,
    cvar_solution,
    dc_solve,
    is_feasible,
    pick_backend,
    robustify,
    Simplex,
    solve_lower_level,
    solve_lp,
    violation_probability,
    worst_case_solve,
    z_update,
)
from ccpkit.cli import generate_instance
from ccpkit.geometry import dykstra_project
from ccpkit.covering import _relaxation_lp, _subset_lp
from ccpkit.cvar import _tail_problem
from ccpkit.lowerlevel import HingeStart, Lattice, _dc_pieces, _exact_face_polish, _hinge_lp, engine

from test_lp import certificate_ok
from conftest import (
    FINITE_DOCUMENTS,
    answer_key,
    equiprobable,
    lattice_block_spy,
    load_document,
    make_binary_pair_cover,
    make_equality_pair,
    make_scalar_chain,
    make_two_var_cover,
    random_hinge_problem,
)


def test_backend_dispatch(binary_pair_cover, equality_pair, two_var_cover):
    assert pick_backend(binary_pair_cover) == "enum"
    assert pick_backend(equality_pair) == "lp"
    assert pick_backend(two_var_cover) == "sgd"


@pytest.mark.parametrize("name", FINITE_DOCUMENTS)
def test_one_engine_rule_on_every_demo_document(name):
    # the engine: the lattice on a binary X, the subgradient search on rows
    # whose ball has no LP form (L2), the LP otherwise; the hinge's auto
    # backend is the engine with sgd in place of lp off the equality model
    base = load_document(name)
    variants = {"plain": base}
    for norm in (LInf(), L1(), L2()):
        variants[type(norm).__name__] = robustify(DrccpSpec(base, 0.05, norm))
    for tag, inst in variants.items():
        lattice = inst.x_set.binary
        assert engine(inst) == ("enum" if lattice else "sgd" if tag == "L2" else "lp"), tag
        hinge = "enum" if lattice else "lp" if (name, tag) == ("equality_pair", "plain") else "sgd"
        assert pick_backend(inst) == hinge, tag
    assert (name == "binary_pair_cover") == base.x_set.binary


def _swap_cases():
    """(spec, backend) pairs that an earlier rule answered on another
    backend or another solver family; theta 0 leaves the rows as they are."""
    linear3 = generate_instance("linear", 3, 10, 0.1, 1)
    linear6 = generate_instance("linear", 6, 20, 0.1, 2)
    return {
        "lattice-on-lp": (DrccpSpec(replace(linear3, x_set=BinaryTiny(3)), 0.0, LInf()), "lp"),
        "lattice-on-sgd": (DrccpSpec(replace(linear6, x_set=BinaryTiny(6)), 0.0, LInf()), "sgd"),
        "box-on-enum": (DrccpSpec(linear3, 0.0, LInf()), "enum"),
        "l2-ball-on-lp": (DrccpSpec(make_scalar_chain(), 0.05, L2()), "lp"),
        "power-rows-on-lp": (
            DrccpSpec(generate_instance("nonlinear", 3, 10, 0.1, 1), 0.0, LInf(), mode="shift"), "lp"
        ),
        "unknown-name": (DrccpSpec(linear3, 0.0, LInf()), "bogus"),
    }


_ENTRY_POINTS = {
    "also_x": lambda spec, inst, b: also_x(inst, backend=b),
    "also_x_plus": lambda spec, inst, b: also_x_plus(inst, backend=b),
    "cvar_solution": lambda spec, inst, b: cvar_solution(inst, backend=b),
    "solve_lower_level": lambda spec, inst, b: solve_lower_level(inst, 0.0, backend=b),
    "am": lambda spec, inst, b: am(inst, 0.0, backend=b),
    **{
        f"worst_case_solve-{m}": lambda spec, inst, b, m=m: worst_case_solve(spec, method=m, backend=b)
        for m in ("alsox", "alsoxplus", "cvar")
    },
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(_swap_cases()))
def test_a_backend_the_instance_cannot_take_is_refused_before_any_solve(case, entry, monkeypatch):
    spec, backend = _swap_cases()[case]
    inst = robustify(spec)
    calls = []
    for target in (ccpkit.lp.solve_lp, ccpkit.subgrad.solve_hinge_sgd,
                   ccpkit.subgrad.solve_cvar_lower_sgd):
        for module in [m for k, m in sys.modules.items() if k.startswith("ccpkit")]:
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, lambda *a, _n=attr, **k: calls.append(_n))
    monkeypatch.setattr(Lattice, "_build", lambda self: calls.append("Lattice._build") or iter(()))
    with pytest.raises(BackendUnavailable, match="BinaryTiny|backend"):
        _ENTRY_POINTS[entry](spec, inst, backend)
    assert calls == []


def test_z_update_frozen_values():
    p = np.full(3, 1.0 / 3.0)
    assert np.allclose(z_update(np.array([3.0, 2.0, 1.0]), p, 0.5), [0.0, 0.5, 1.0])
    assert np.allclose(z_update(np.array([0.0, 0.5, 0.0]), p, 1.0 / 3.0), [1.0, 0.0, 1.0])


@given(
    s=st.lists(st.floats(0, 10), min_size=2, max_size=6),
    eps=st.floats(0.05, 0.8),
)
@settings(max_examples=40, deadline=None)
def test_z_update_matches_lp(s, eps):
    s = np.asarray(s)
    count = s.shape[0]
    p = np.full(count, 1.0 / count)
    z = z_update(s, p, eps)
    assert np.all(z >= -1e-12) and np.all(z <= 1.0 + 1e-12)
    assert p @ z >= 1.0 - eps - 1e-9
    lp = solve_lp(
        LpProblem(
            c=p * s,
            A=-p[None, :],
            b=np.array([-(1.0 - eps)]),
            lo=np.zeros(count),
            hi=np.ones(count),
        )
    )
    assert lp.status == "optimal"
    assert float(p @ (z * s)) == pytest.approx(lp.value, abs=1e-9)


def test_lp_and_sgd_backends_agree():
    rng = np.random.default_rng(5)
    for _ in range(6):
        inst, t = random_hinge_problem(rng)
        via_lp = solve_lower_level(inst, t, backend="lp")
        via_sgd = solve_lower_level(
            inst, t, backend="sgd", sgd_config=SgdConfig(max_iter=12000)
        )
        assert via_sgd.value == pytest.approx(via_lp.value, abs=1e-3)
        assert via_lp.backend == "lp" and via_sgd.backend == "sgd"


def test_lower_level_monotone_in_budget():
    inst, _ = random_hinge_problem(np.random.default_rng(17))
    cost = inst.cost
    t_lo = float(np.minimum(cost, 0.0).sum())
    t_hi = float(np.maximum(cost, 0.0).sum())
    grid = np.linspace(t_lo, t_hi, 6)
    vals = [solve_lower_level(inst, float(t), backend="lp").value for t in grid]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_enum_backend_on_binary(binary_pair_cover):
    out = solve_lower_level(binary_pair_cover, 3.0)
    assert out.backend == "enum"
    assert out.value == pytest.approx(0.0)
    assert np.allclose(out.x, [1.0, 1.0])
    # budget 1 only affords x = (1, 0): scenario 2 misses by 1
    tight = solve_lower_level(binary_pair_cover, 1.0)
    assert tight.value == pytest.approx(1.0 / 3.0)


def test_equality_model_solves_via_lp(equality_pair):
    out = solve_lower_level(equality_pair, 0.5)
    assert out.backend == "lp"
    assert out.value >= -1e-12


def test_lp_backend_rejects_l2_augmentation():
    base = make_two_var_cover()
    aug = NormAugmented(base.constraints.mats, base.constraints.offsets, 0.1, L2())
    inst = equiprobable(2, aug, NonNegOrthant(2), [1.0, 1.0], 1.0 / 3.0)
    with pytest.raises(BackendUnavailable):
        solve_lower_level(inst, 1.0, backend="lp")
    # the sup-norm variant has an exact linearization
    aug_ok = NormAugmented(base.constraints.mats, base.constraints.offsets, 0.1, LInf())
    inst_ok = equiprobable(2, aug_ok, NonNegOrthant(2), [1.0, 1.0], 1.0 / 3.0)
    assert solve_lower_level(inst_ok, 1.0, backend="lp").backend == "lp"


def test_am_frozen_trajectory(two_var_cover):
    out = am(two_var_cover, 0.5, z0=np.ones(3))
    assert np.allclose(out.s, [0.0, 0.5, 0.0], atol=1e-3)
    assert np.allclose(out.x, [0.0, 0.5], atol=1e-3)
    assert np.allclose(out.z, [1.0, 0.0, 1.0])
    assert out.rounds == 3
    trace = np.asarray(out.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9)
    assert is_feasible(two_var_cover, out.x)


def test_dc_frozen_trajectory(two_var_cover):
    out = dc_solve(
        two_var_cover, 0.5, x0=np.zeros(2), s0=np.ones(3), z0=np.ones(3)
    )
    assert np.allclose(out.s, [0.0, 0.25, 0.25], atol=1e-2)
    assert violation_probability(two_var_cover, out.x) > two_var_cover.epsilon
    trace = np.asarray(out.objective_trace)
    assert np.all(np.diff(trace) <= 1e-6)


def test_am_traces_monotone_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(5):
        inst, t = random_hinge_problem(rng)
        out = am(inst, t, backend="lp")
        trace = np.asarray(out.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)


def _norm_form(instance, fold=True):
    """(kind, aux coordinates, folded x-row term) of the theta * dual-norm
    term, worked out one coordinate at a time. With fold, a sup-norm ball
    puts +-theta on each coordinate whose box fixes its sign, and u_j only
    on the coordinates that straddle 0; fold=False gives every coordinate
    its u_j (the all-aux form)."""
    model = instance.constraints
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    lo, hi = instance.x_set.polyhedron()[4:]
    folded = np.zeros(instance.n)
    if theta == 0.0:
        return "none", [], folded
    if isinstance(model.norm, L1):
        return "max", list(range(instance.n)), folded
    aux = []
    for j in range(instance.n):
        if fold and lo[j] >= 0.0:
            folded[j] = theta
        elif fold and hi[j] <= 0.0:
            folded[j] = -theta
        else:
            aux.append(j)
    return "sum", aux, folded


def _aux_count(kind, aux):
    return 1 if kind == "max" else len(aux)


def _norm_rows(kind, aux, ncol, aux_col):
    """The dual-norm rows +-x_j - u_j ("sum") or +-x_j - v ("max"), rhs 0."""
    rows = []
    for m, j in enumerate(aux):
        for sign in (1.0, -1.0):
            row = np.zeros(ncol)
            row[j] = sign
            row[aux_col + (m if kind == "sum" else 0)] = -1.0
            rows.append(row)
    return rows


def _row_by_row_hinge_lp(instance, t, z, fold=True):
    """The hinge LP as the earlier row-at-a-time builder assembled it; the
    reference the vectorized builder must reproduce bit for bit."""
    model = instance.constraints
    n, N = instance.n, instance.scenario_count
    if isinstance(model, Covering):
        blocks = [(-model.mats[k], -np.ones(model.mats.shape[1])) for k in range(N)]
    elif isinstance(model, BiAffineEquality):
        blocks = [(np.vstack([model.d[k], -model.d[k]]), np.array([model.e[k], -model.e[k]]))
                  for k in range(N)]
    else:
        blocks = [(model.mats[k], model.offsets[k]) for k in range(N)]
    aux_kind, aux, folded = _norm_form(instance, fold)
    n_aux = _aux_count(aux_kind, aux)
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    xA, xb, xE, xf, lo_x, hi_x = instance.x_set.polyhedron()
    ncol = n + N + n_aux
    rows, rhs = [], []

    def pad(vec_x, vec_s=None, vec_u=None):
        r = np.zeros(ncol)
        r[:n] = vec_x
        if vec_s is not None:
            r[n : n + N] = vec_s
        if vec_u is not None:
            r[n + N :] = vec_u
        return r

    for k, (Rk, rk) in enumerate(blocks):
        for i in range(Rk.shape[0]):
            s_vec = np.zeros(N)
            s_vec[k] = -1.0
            rows.append(pad(Rk[i] + folded, s_vec, np.full(n_aux, theta)))
            rhs.append(float(rk[i]))
    norm = _norm_rows(aux_kind, aux, ncol, n + N)
    rows += norm
    rhs += [0.0] * len(norm)
    if np.isfinite(t):
        rows.append(pad(instance.cost))
        rhs.append(float(t))
    for i in range(xA.shape[0]):
        rows.append(pad(xA[i]))
        rhs.append(float(xb[i]))
    eq_rows = [pad(xE[i]) for i in range(xE.shape[0])]
    eq_rhs = [float(xf[i]) for i in range(xE.shape[0])]
    return LpProblem(
        c=np.concatenate([np.zeros(n), instance.probabilities * z, np.zeros(n_aux)]),
        A=np.array(rows),
        b=np.array(rhs),
        E=np.array(eq_rows) if eq_rows else None,
        f=np.array(eq_rhs) if eq_rhs else None,
        lo=np.concatenate([lo_x, np.zeros(N), np.zeros(n_aux)]),
        hi=np.concatenate([hi_x, np.full(N, np.inf), np.full(n_aux, np.inf)]),
    )


def _row_by_row_blocks(model, keep=None):
    """Per-scenario (R_k, r_k) of an affine-rows model, for the reference builders."""
    N = model.scenario_count
    if isinstance(model, Covering):
        blocks = [(-model.mats[k], -np.ones(model.mats.shape[1])) for k in range(N)]
    elif isinstance(model, BiAffineEquality):
        blocks = [(np.vstack([model.d[k], -model.d[k]]), np.array([model.e[k], -model.e[k]]))
                  for k in range(N)]
    else:
        blocks = [(model.mats[k], model.offsets[k]) for k in range(N)]
    return blocks if keep is None else [blocks[k] for k in keep]


def _row_by_row_subset_lp(instance, keep, fold=True):
    """The subset-cost LP as the earlier row-at-a-time builder assembled it."""
    model = instance.constraints
    n = instance.n
    aux_kind, aux, folded = _norm_form(instance, fold)
    n_aux = _aux_count(aux_kind, aux)
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    xA, xb, xE, xf, lo_x, hi_x = instance.x_set.polyhedron()
    ncol = n + n_aux
    rows = []
    rhs = []
    for Rk, rk in _row_by_row_blocks(model, keep):
        for i in range(Rk.shape[0]):
            row = np.zeros(ncol)
            row[:n] = Rk[i] + folded
            row[n:] = theta
            rows.append(row)
            rhs.append(float(rk[i]))
    norm = _norm_rows(aux_kind, aux, ncol, n)
    rows += norm
    rhs += [0.0] * len(norm)
    for i in range(xA.shape[0]):
        row = np.zeros(ncol)
        row[:n] = xA[i]
        rows.append(row)
        rhs.append(float(xb[i]))
    eq = None
    eqrhs = None
    if xE.shape[0]:
        eq = np.zeros((xE.shape[0], ncol))
        eq[:, :n] = xE
        eqrhs = xf
    return LpProblem(
        c=np.concatenate([instance.cost, np.zeros(n_aux)]),
        A=np.array(rows) if rows else None,
        b=np.array(rhs) if rhs else None,
        E=eq,
        f=eqrhs,
        lo=np.concatenate([lo_x, np.zeros(n_aux)]),
        hi=np.concatenate([hi_x, np.full(n_aux, np.inf)]),
    )


def _row_by_row_tail_lp(instance, t, relaxed, fold=True):
    """The CVaR LP in (x, w, beta, aux) as the earlier row-at-a-time builder assembled it."""
    model = instance.constraints
    n, N = instance.n, instance.scenario_count
    eps = instance.epsilon
    aux_kind, aux, folded = _norm_form(instance, fold)
    n_aux = _aux_count(aux_kind, aux)
    theta = model.theta if isinstance(model, NormAugmented) else 0.0
    xA, xb, xE, xf, lo_x, hi_x = instance.x_set.polyhedron()
    ncol = n + N + 1 + n_aux
    b_col = n + N
    rows = []
    rhs = []
    for k, (Rk, rk) in enumerate(_row_by_row_blocks(model)):
        for i in range(Rk.shape[0]):
            row = np.zeros(ncol)
            row[:n] = Rk[i] + folded
            row[n + k] = -1.0
            row[b_col] = -1.0
            row[b_col + 1 :] = theta
            rows.append(row)
            rhs.append(float(rk[i]))
    norm = _norm_rows(aux_kind, aux, ncol, b_col + 1)
    rows += norm
    rhs += [0.0] * len(norm)
    row = np.zeros(ncol)
    if relaxed:
        row[:n] = instance.cost
        rhs.append(float(t))
    else:
        row[n : n + N] = instance.probabilities / eps
        row[b_col] = 1.0
        rhs.append(0.0)
    rows.append(row)
    for i in range(xA.shape[0]):
        row = np.zeros(ncol)
        row[:n] = xA[i]
        rows.append(row)
        rhs.append(float(xb[i]))
    eq = None
    eqrhs = None
    if xE.shape[0]:
        eq = np.zeros((xE.shape[0], ncol))
        eq[:, :n] = xE
        eqrhs = xf
    if relaxed:
        cost = np.concatenate([np.zeros(n), instance.probabilities, [eps], np.zeros(n_aux)])
    else:
        cost = np.concatenate([instance.cost, np.zeros(N + 1 + n_aux)])
    return LpProblem(
        c=cost,
        A=np.array(rows),
        b=np.array(rhs),
        E=eq,
        f=eqrhs,
        lo=np.concatenate([lo_x, np.zeros(N), [-np.inf], np.zeros(n_aux)]),
        hi=np.concatenate([hi_x, np.full(N, np.inf), [0.0], np.full(n_aux, np.inf)]),
    )


def _row_by_row_relaxation_lp(instance):
    """The covering relaxation LP as the earlier row-at-a-time builder assembled it."""
    model = instance.constraints
    n, N = instance.n, instance.scenario_count
    budget = float(np.floor(N * instance.epsilon))
    xA, xb, xE, xf, lo_x, hi_x = instance.x_set.polyhedron()
    ncol = n + N
    rows = []
    rhs = []
    for k in range(N):
        Ak = model.mats[k]
        for i in range(Ak.shape[0]):
            row = np.zeros(ncol)
            row[:n] = -Ak[i]
            row[n + k] = -1.0
            rows.append(row)
            rhs.append(-1.0)
    row = np.zeros(ncol)
    row[n:] = 1.0
    rows.append(row)
    rhs.append(budget)
    for i in range(xA.shape[0]):
        row = np.zeros(ncol)
        row[:n] = xA[i]
        rows.append(row)
        rhs.append(float(xb[i]))
    eq = None
    eqrhs = None
    if xE.shape[0]:
        eq = np.zeros((xE.shape[0], ncol))
        eq[:, :n] = xE
        eqrhs = xf
    return LpProblem(
        c=np.concatenate([instance.cost, np.zeros(N)]),
        A=np.array(rows),
        b=np.array(rhs),
        E=eq,
        f=eqrhs,
        lo=np.concatenate([np.maximum(lo_x, 0.0), np.zeros(N)]),
        hi=np.concatenate([hi_x, np.ones(N)]),
    )


# boxes on which x_j has a fixed sign in every coordinate, in none, or in some
_SIGN_BOXES = {
    "nonnegative": Box(np.zeros(4), np.ones(4)),
    "nonpositive": Box(-np.ones(4), np.zeros(4)),
    "straddling": Box(-np.ones(4), np.ones(4)),
    "mixed": Box(np.array([0.0, -1.0, -1.0, 0.2]), np.array([1.0, 0.0, 1.0, 0.8])),
}


def _builder_instances():
    linear = generate_instance("linear", 4, 7, 0.2, 3)
    yield linear
    covering = generate_instance("covering", 5, 6, 0.2, 4)
    yield covering
    yield replace(covering, x_set=Simplex(5, 3.0))
    yield robustify(DrccpSpec(linear, 0.05, L1()))
    yield robustify(DrccpSpec(linear, 0.05, LInf()))
    yield robustify(DrccpSpec(replace(linear, x_set=_SIGN_BOXES["mixed"]), 0.05, LInf()))
    cut = Halfspaces(np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]]), np.array([1.5, 2.0]))
    yield replace(linear, x_set=Intersection((linear.x_set, cut)))
    yield replace(linear, x_set=Simplex(4, 2.0))
    yield make_equality_pair()


@pytest.mark.parametrize("t", [-3.5, np.inf])
def test_vectorized_hinge_lp_matches_the_row_by_row_builder(t):
    rng = np.random.default_rng(2)
    for inst in _builder_instances():
        z = rng.uniform(0.0, 1.0, inst.scenario_count)
        new, ref = _hinge_lp(inst, t, z), _row_by_row_hinge_lp(inst, t, z)
        for name in ("c", "A", "b", "E", "f", "lo", "hi"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), name


def test_subset_tail_and_relaxation_lps_match_the_row_by_row_builders():
    rng = np.random.default_rng(2)
    built = 0
    for inst in _builder_instances():
        N = inst.scenario_count
        pairs = [
            ("tail", _tail_problem(inst, None, False), _row_by_row_tail_lp(inst, None, False)),
            ("tail relaxed", _tail_problem(inst, -3.5, True), _row_by_row_tail_lp(inst, -3.5, True)),
        ]
        for keep in ([N - 1], [int(k) for k in rng.permutation(N)[:4]], []):
            pairs.append(("subset", _subset_lp(inst, keep), _row_by_row_subset_lp(inst, keep)))
        if isinstance(inst.constraints, Covering):
            pairs.append(("relaxation", _relaxation_lp(inst), _row_by_row_relaxation_lp(inst)))
        for name, new, ref in pairs:
            for field in ("c", "A", "b", "E", "f", "lo", "hi"):
                assert np.array_equal(getattr(new, field), getattr(ref, field)), (name, field)
            built += 1
    assert built == 9 * 5 + 2            # two covering instances add the relaxation


@pytest.mark.parametrize("box", list(_SIGN_BOXES))
def test_folded_sup_norm_lps_solve_like_the_all_aux_form(box):
    straddling = {"nonnegative": [], "nonpositive": [], "straddling": [0, 1, 2, 3], "mixed": [2]}[box]
    base = generate_instance("linear", 4, 7, 0.2, 3)
    inst = robustify(DrccpSpec(replace(base, x_set=_SIGN_BOXES[box]), 0.05, LInf()))
    n, N = inst.n, inst.scenario_count
    lo, hi = inst.x_set.polyhedron()[4:]
    n_aux = len(straddling)
    # the budgets c'x can meet on the box, from its cheapest corner up
    cheap, dear = np.minimum(inst.cost * lo, inst.cost * hi), np.maximum(inst.cost * lo, inst.cost * hi)
    budgets = list(np.linspace(cheap.sum(), dear.sum(), 5)[1:]) + [np.inf]
    rng = np.random.default_rng(7)
    pairs = [(_tail_problem(inst, None, False), _row_by_row_tail_lp(inst, None, False, fold=False))]
    for t in budgets:
        for z in (np.ones(N), rng.uniform(0.0, 1.0, N)):
            pairs.append((_hinge_lp(inst, t, z), _row_by_row_hinge_lp(inst, t, z, fold=False)))
            assert pairs[-1][0].n == n + N + n_aux and pairs[-1][1].n == n + N + n
        if np.isfinite(t):
            pairs.append((_tail_problem(inst, t, True), _row_by_row_tail_lp(inst, t, True, fold=False)))
    for keep in ([0], [3], [N - 1], [1, 4, 5], list(range(N))):
        folded = _subset_lp(inst, keep)
        # the dual-norm rows touch exactly the coordinates that straddle 0
        assert folded.n == n + n_aux
        assert sorted(set(np.nonzero(folded.A[len(keep):, :n])[1])) == straddling
        pairs.append((folded, _row_by_row_subset_lp(inst, keep, fold=False)))
    solved = 0
    for folded, all_aux in pairs:
        new, ref = solve_lp(folded), solve_lp(all_aux)
        assert new.status == ref.status
        if ref.status == "optimal":
            assert new.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
            assert certificate_ok(folded, new) and certificate_ok(all_aux, ref)
            solved += 1
    assert solved == len(pairs)


def _l1_ball_expanded_lp(instance, kind, keep=None, t=None, z=None):
    """The subset ("subset"), hinge ("hinge") or CVaR ("tail", "tail
    relaxed") LP of a 1-norm ball over a nonnegative box, written with no
    aux column: there theta ||x||_inf = max_j theta x_j, so each scenario row
    R_k[i] x <= r_k[i] becomes the n rows R_k[i] x + theta x_j <= r_k[i]."""
    model = instance.constraints
    n, N, p, eps = instance.n, instance.scenario_count, instance.probabilities, instance.epsilon
    lo_x, hi_x = instance.x_set.polyhedron()[4:]
    assert isinstance(model.norm, L1) and np.all(lo_x >= 0.0)
    ny = {"subset": 0, "hinge": N}.get(kind, N + 1)
    blocks = _row_by_row_blocks(model)
    rows, rhs = [], []
    for k in range(N) if keep is None else keep:
        Rk, rk = blocks[k]
        for i in range(Rk.shape[0]):
            for j in range(n):
                row = np.zeros(n + ny)
                row[:n] = Rk[i]
                row[j] += model.theta
                if ny:
                    row[n + k] = -1.0
                if ny == N + 1:
                    row[n + N] = -1.0
                rows.append(row)
                rhs.append(float(rk[i]))
    if kind == "tail":
        rows.append(np.concatenate([np.zeros(n), p / eps, [1.0]]))
        rhs.append(0.0)
    elif t is not None and np.isfinite(t):
        rows.append(np.concatenate([instance.cost, np.zeros(ny)]))
        rhs.append(float(t))
    cost = {
        "subset": instance.cost,
        "hinge": np.concatenate([np.zeros(n), p * z if z is not None else p]),
        "tail": np.concatenate([instance.cost, np.zeros(N + 1)]),
        "tail relaxed": np.concatenate([np.zeros(n), p, [eps]]),
    }[kind]
    lo_y, hi_y = np.zeros(ny), np.full(ny, np.inf)
    if ny == N + 1:
        lo_y[N], hi_y[N] = -np.inf, 0.0
    return LpProblem(c=cost, A=np.array(rows), b=np.array(rhs),
                     lo=np.concatenate([lo_x, lo_y]), hi=np.concatenate([hi_x, hi_y]))


def test_l1_ball_lps_solve_like_the_expanded_rows():
    inst = robustify(DrccpSpec(generate_instance("linear", 4, 7, 0.2, 3), 0.05, L1()))
    n, N = inst.n, inst.scenario_count
    # the LPs under test carry the one "max" aux column v >= |x_j|
    assert _subset_lp(inst, [0]).n == n + 1 and _hinge_lp(inst, np.inf, np.ones(N)).n == n + N + 1
    lo, hi = inst.x_set.polyhedron()[4:]
    cheap, dear = np.minimum(inst.cost * lo, inst.cost * hi), np.maximum(inst.cost * lo, inst.cost * hi)
    budgets = list(np.linspace(cheap.sum(), dear.sum(), 5)[1:]) + [np.inf]
    rng = np.random.default_rng(11)
    pairs = [(_subset_lp(inst, [k]), _l1_ball_expanded_lp(inst, "subset", keep=[k])) for k in range(N)]
    for t in budgets:
        for z in (np.ones(N), rng.uniform(0.0, 1.0, N)):
            pairs.append((_hinge_lp(inst, t, z), _l1_ball_expanded_lp(inst, "hinge", t=t, z=z)))
    pairs.append((_tail_problem(inst, None, False), _l1_ball_expanded_lp(inst, "tail")))
    for t in budgets[:-1]:
        pairs.append((_tail_problem(inst, t, True), _l1_ball_expanded_lp(inst, "tail relaxed", t=t)))
    for with_aux, expanded in pairs:
        got, want = solve_lp(with_aux), solve_lp(expanded)
        assert got.status == want.status == "optimal"
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-9)
        assert certificate_ok(with_aux, got) and certificate_ok(expanded, want)


def _per_piece_dc_pieces(instance, t):
    """The DC pieces as the earlier builder made them: one lifted piece per
    primitive of X, then the (s, z) box, the budget, scenario and mass rows."""
    n, N = instance.n, instance.scenario_count
    dim = n + 2 * N
    pieces = []
    for piece in instance.x_set.pieces():
        if isinstance(piece, Box):
            lo = np.concatenate([piece.lower, np.full(2 * N, -np.inf)])
            hi = np.concatenate([piece.upper, np.full(2 * N, np.inf)])
            pieces.append(Box(lo, hi))
        elif isinstance(piece, NonNegOrthant):
            lo = np.concatenate([np.zeros(n), np.full(2 * N, -np.inf)])
            pieces.append(Box(lo, np.full(dim, np.inf)))
        elif isinstance(piece, Halfspaces):
            a = np.zeros((piece.a.shape[0], dim))
            a[:, :n] = piece.a
            pieces.append(Halfspaces(a, piece.b))
        elif isinstance(piece, Simplex):
            lo = np.concatenate([np.zeros(n), np.full(2 * N, -np.inf)])
            pieces.append(Box(lo, np.full(dim, np.inf)))
            u = np.zeros((dim, 1))
            u[:n, 0] = 1.0
            pieces.append(AffineEqualities(u, np.array([piece.total])))
        else:
            u = np.zeros((dim, piece.u.shape[1]))
            u[:n] = piece.u
            pieces.append(AffineEqualities(u, piece.h))
    lo = np.concatenate([np.full(n, -np.inf), np.zeros(2 * N)])
    hi = np.concatenate([np.full(n + N, np.inf), np.ones(N)])
    pieces.append(Box(lo, hi))
    if np.isfinite(t):
        row = np.zeros((1, dim))
        row[0, :n] = instance.cost
        pieces.append(Halfspaces(row, np.array([t])))
    scen, rhs = [], []
    for k, (Rk, rk) in enumerate(_row_by_row_blocks(instance.constraints)):
        for i in range(Rk.shape[0]):
            row = np.zeros(dim)
            row[:n] = Rk[i]
            row[n + k] = -1.0
            scen.append(row)
            rhs.append(float(rk[i]))
    pieces.append(Halfspaces(np.array(scen), np.array(rhs)))
    row = np.zeros((1, dim))
    row[0, n + N :] = -instance.probabilities
    pieces.append(Halfspaces(row, np.array([-(1.0 - instance.epsilon)])))
    return pieces


def _dykstra_point(pieces, u):
    try:
        return dykstra_project(pieces, u, max_iter=2000)
    except NoConvergence as exc:      # dc_solve keeps the best iterate too
        return exc.best


@pytest.mark.parametrize("family", ["linear", "covering"])
def test_dc_pieces_read_as_polyhedron_and_project_like_the_per_piece_builder(family):
    n = 4
    unit = Box(np.zeros(n), np.ones(n))
    cut = Halfspaces(np.ones((1, n)), np.array([2.5]))
    sets = [
        ("box", unit, 0.0),
        ("simplex", Simplex(n, 2.0), 0.0),
        ("equalities", AffineEqualities(np.ones((n, 1)), np.array([1.5])), 0.0),
        ("halfspaces then box", Intersection((cut, unit)), 1e-9),
    ]
    base = generate_instance(family, n, 12, 0.1, 1)
    rng = np.random.default_rng(5)
    for name, x_set, tol in sets:
        inst = replace(base, x_set=x_set)
        t = float(inst.cost @ np.full(n, 0.5))
        new, ref = _dc_pieces(inst, t), _per_piece_dc_pieces(inst, t)
        assert len(new) == (3 if name in ("simplex", "equalities") else 2)
        for _ in range(3):
            u = rng.normal(0.0, 2.0, n + 2 * inst.scenario_count)
            a, b = _dykstra_point(new, u), _dykstra_point(ref, u)
            if tol == 0.0:
                assert np.array_equal(a, b), name
            else:
                assert np.max(np.abs(a - b)) <= tol, name


def test_dc_pieces_reject_a_binary_set(binary_pair_cover):
    with pytest.raises(BackendUnavailable):
        _dc_pieces(binary_pair_cover, 1.0)


def test_an_empty_face_never_reaches_dykstra(monkeypatch):
    calls = []

    def spy(pieces, y, *args, **kwargs):
        calls.append(len(pieces))
        return dykstra_project(pieces, y, *args, **kwargs)

    monkeypatch.setattr("ccpkit.lowerlevel.dykstra_project", spy)
    inst = generate_instance("linear", 4, 12, 0.1, 1)
    x = np.full(4, 0.5)
    # no point of [0, 1]^4 reaches c'x <= sum(c) - 1: the feasibility LP says
    # so, and the polish returns None before any sweep
    empty_t = float(inst.cost.sum()) - 1.0
    assert _exact_face_polish(inst, empty_t, np.ones(12), x) is None
    assert calls == []
    # a face with points still goes to Dykstra
    got = _exact_face_polish(inst, np.inf, np.zeros(12), x)
    assert calls == [1] and np.array_equal(got, x)


def test_a_lattice_serves_only_its_own_instance(
    binary_pair_cover, two_var_cover, monkeypatch
):
    first = solve_lower_level(binary_pair_cover, 3.0)
    assert isinstance(first.start, Lattice) and first.start.instance is binary_pair_cover
    sizes = lattice_block_spy(monkeypatch)
    again = solve_lower_level(binary_pair_cover, 1.0, start=first.start)
    assert sizes == [] and again.start is first.start
    # the same data in another instance object: rebuilt, not reused
    twin = replace(binary_pair_cover)
    other = solve_lower_level(twin, 1.0, start=first.start)
    assert sizes == [4] and other.start.instance is twin
    assert (other.x.tobytes(), other.value) == (again.x.tobytes(), again.value)
    # a start of the other backend is ignored, on either side
    lp = solve_lower_level(two_var_cover, 1.0, backend="lp")
    ignored = solve_lower_level(binary_pair_cover, 1.0, start=lp.start)
    assert ignored.x.tobytes() == again.x.tobytes()
    assert sizes == [4, 4]
    crossed = solve_lower_level(two_var_cover, 1.0, backend="lp", start=first.start)
    assert (crossed.x.tobytes(), crossed.value) == (lp.x.tobytes(), lp.value)


def test_a_kept_lattice_holds_at_most_n_hinge_columns(monkeypatch):
    inst = replace(generate_instance("linear", 6, 12, 0.2, 3), x_set=BinaryTiny(6))
    N, t = inst.scenario_count, float(inst.cost.sum()) / 2.0
    weights = np.random.default_rng(0).uniform(size=(N + 3, N))
    lattice = Lattice(inst)
    # no score can write into a kept lattice
    assert not any(a.flags.writeable for block in lattice.blocks for a in block)
    for z in weights:
        got = solve_lower_level(inst, t, z, start=lattice)
        fresh = solve_lower_level(inst, t, z, start=Lattice(inst))
        assert got.start is lattice
        assert (got.x.tobytes(), got.value) == (fresh.x.tobytes(), fresh.value)
    # N + 3 weight vectors leave the N last used; the first ones are dropped
    assert len(lattice._hinges) == N
    computed = []
    column = ccpkit.lowerlevel._hinge_column

    def spy(w, losses):
        computed.append(w.tobytes())
        return column(w, losses)

    monkeypatch.setattr(ccpkit.lowerlevel, "_hinge_column", spy)
    for z in weights[3:]:
        solve_lower_level(inst, t, z, start=lattice)
    assert computed == []
    solve_lower_level(inst, t, weights[0], start=lattice)
    assert computed == [(inst.probabilities * weights[0]).tobytes()]
    assert len(lattice._hinges) == N


def test_a_lattice_over_the_memory_bound_streams_every_solve(monkeypatch):
    # a dim-20 lattice is never kept, whatever N
    assert 2**20 * (1 + 20 + 1) > ccpkit.lowerlevel._LATTICE_KEEP
    inst = replace(generate_instance("linear", 6, 12, 0.2, 3), x_set=BinaryTiny(6))
    methods = (also_x, also_x_plus)
    kept = [answer_key(solve, inst) for solve in methods]
    monkeypatch.setattr(ccpkit.lowerlevel, "_LATTICE_KEEP", 2**6 * (12 + 6 + 1) - 1)
    sizes = lattice_block_spy(monkeypatch)
    start = solve_lower_level(inst, np.inf).start
    assert isinstance(start, Lattice) and start.blocks is None
    assert sizes == [64]
    solves = []
    enum = ccpkit.lowerlevel._solve_hinge_enum

    def counted(*args):
        solves.append(args[1])
        return enum(*args)

    monkeypatch.setattr(ccpkit.lowerlevel, "_solve_hinge_enum", counted)
    for solve, want in zip(methods, kept):
        sizes.clear()
        solves.clear()
        assert answer_key(solve, inst) == want
        # the quantile and CVaR passes, then every enum solve builds anew
        assert len(solves) >= want[2]
        assert sizes == [64] * (2 + len(solves))


def _hinge_solve_spy(monkeypatch):
    """(t, z, solution) of every lp hinge solve from now on."""
    solves = []
    solve = ccpkit.lowerlevel._solve_hinge_lp

    def spy(instance, t, z, start=None):
        sol = solve(instance, t, z, start)
        solves.append((t, np.array(z), sol))
        return sol

    monkeypatch.setattr(ccpkit.lowerlevel, "_solve_hinge_lp", spy)
    return solves


@pytest.mark.parametrize("make", [
    lambda: generate_instance("linear", 6, 30, 0.1, 1),
    lambda: robustify(DrccpSpec(generate_instance("linear", 4, 12, 0.2, 3), 0.05, L1())),
    # X's rows sit below the budget row
    lambda: replace(generate_instance("linear", 4, 12, 0.2, 3), x_set=Intersection((
        Box(np.zeros(4), np.ones(4)),
        Halfspaces(np.array([[1.0, 1.0, 0.0, 0.0]]), np.array([1.5])),
    ))),
])
def test_every_probe_and_am_round_derives_the_hinge_lp_a_fresh_build_gives(monkeypatch, make):
    inst = make()
    solves = _hinge_solve_spy(monkeypatch)
    also_x_plus(inst, backend="lp")
    # probes at several budgets and AM rounds at several weightings
    assert len({t for t, _, _ in solves}) > 2 and len({z.tobytes() for _, z, _ in solves}) > 2
    first = solves[0][2].start.problem
    for t, z, sol in solves:
        derived, fresh = sol.start.problem, _hinge_lp(inst, t, z)
        for name in ("c", "A", "b", "E", "f", "lo", "hi"):
            got, want = getattr(derived, name), getattr(fresh, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        # derived, not built: the matrices are the first probe's
        assert derived.A is first.A and derived.lo is first.lo
        assert sol.start.outcome.problem is derived


def test_an_lp_start_serves_only_its_own_instance(two_var_cover, monkeypatch):
    first = solve_lower_level(two_var_cover, 1.0, backend="lp")
    assert isinstance(first.start, HingeStart) and first.start.instance is two_var_cover
    again = solve_lower_level(two_var_cover, 0.8, backend="lp", start=first.start)
    assert again.start.problem.A is first.start.problem.A
    derived = []
    derive = LpProblem.derive
    monkeypatch.setattr(
        LpProblem, "derive", lambda self, *a, **k: derived.append(1) or derive(self, *a, **k)
    )
    # the same data in another instance object: built anew, never derived
    twin = replace(two_var_cover)
    other = solve_lower_level(twin, 0.8, backend="lp", start=first.start)
    assert derived == [] and other.start.instance is twin
    assert other.start.problem.A is not first.start.problem.A
    # and solved cold: the answer of a solve with no start, not the warm one
    cold = solve_lower_level(twin, 0.8, backend="lp")
    key = (cold.x.tobytes(), cold.value, cold.iterations)
    assert (other.x.tobytes(), other.value, other.iterations) == key
    assert again.iterations < cold.iterations
    # an infinite budget has no budget row to move: built anew
    unbounded = solve_lower_level(two_var_cover, np.inf, backend="lp", start=first.start)
    assert derived == [] and unbounded.start.budget is None
