"""The channel model's rate written out as functions: the oracle of the generated held step.

``net_outlet_flow`` is the net mass flow into the outlet and
``pressure_rate`` the outlet pressure rate; nothing in the package calls
either.  ``plant.rk4_hold`` inlines ``pressure_rate`` into each generated
step, keeping its association order, so four ``pressure_rate`` evaluations
combined by the classic RK4 weights give a held step bit for bit
(``tests/test_exactness.py``), and RK4 of it at a fine step bounds the held
step's error (``tests/test_held_step_accuracy.py``).
"""

from typing import Optional

from pneuctrl.plant import _DOMAIN_SLACK, LoadModel, Mode, PlantParams, shape_factor


def net_outlet_flow(x_bar: float, p: float, m: Mode, params: PlantParams) -> float:
    """Net mass flow into the outlet, kg/s.

    The delivery valve passes the main branch scaled by the spool fraction
    ``x_bar`` while its complement leaks through the atmospheric path; the
    active pair of branches depends on the mode and on which side of
    atmosphere the outlet sits.
    """
    if not (-1e-12 <= x_bar <= 1.0 + 1e-12):
        raise ValueError(f"spool fraction {x_bar!r} outside [0, 1]")
    if not (params.p_neg * (1.0 - _DOMAIN_SLACK) <= p <= params.p_pos * (1.0 + _DOMAIN_SLACK)):
        raise ValueError(f"outlet pressure {p!r} Pa outside [{params.p_neg}, {params.p_pos}]")
    b = params.b
    if m == Mode.INFLATION:
        main = x_bar * params._k_po * shape_factor(p / params.p_pos, b)
    else:
        main = -x_bar * params._k_on * p * shape_factor(params.p_neg / p, b)
    if p >= params.p_atm:
        leak = -(1.0 - x_bar) * params._k_oa * p * shape_factor(params.p_atm / p, b)
    else:
        leak = (1.0 - x_bar) * params._k_ao * shape_factor(p / params.p_atm, b)
    return main + leak


def pressure_rate(
    p: float,
    x_bar: float,
    m: Mode,
    params: PlantParams,
    load: Optional[LoadModel] = None,
) -> float:
    """Outlet pressure rate dp/dt, Pa/s, with the load volume evaluated at p."""
    if p < params.p_neg:
        p = params.p_neg
    elif p > params.p_pos:
        p = params.p_pos
    volume = params.volume if load is None else load.volume_at(p, params.p_atm)
    return params.gas_energy / volume * net_outlet_flow(x_bar, p, m, params)
