"""Far-field grating-diffraction feasibility calculus.

Every limit that decides whether a grating diffraction experiment with heavy
particles can work is expressed as an auditable check: surface-attraction
cutoff and slit clogging, collimation-vs-mass limit, gravitational and
Coriolis dephasing of velocity classes, transverse coherence, source flux,
free fall. `feasibility_report` aggregates them into ConstraintReport rows and
never aborts on a single failed check; feasibility is a full audit.

Conventions that matter here:

* The velocity-selection criterion against Coriolis dephasing is reported
  two ways. The closed form as usually printed is kept verbatim:
  h H/(m v^2 d) over the bracket eps2 sin(lat) (v + g t)/(v - g t)
  + eps3 cos(lat). Its eps2:eps3 coefficient ratio is the robust content;
  the prefactor is dimensionally a time, so its absolute value should not
  be over-read. The derived bound demands |dy_c/dv| * dv <= fringe period
  h H/(d m v); it is dimensionless, and the feasibility verdict uses it.
  Since the flight time has dt/dv = -t/(v - g t), dy_c/dv is exactly
  Omega t^2 times the printed bracket: the derived bound is the printed
  one over Omega t^2.
* The symbol L in the gravity criterion is ambiguous between the
  grating-to-screen distance and the full machine length;
  gravity_velocity_criterion has no argument for it and fixes L = L2.
"""

import math
from dataclasses import dataclass

from .config import ConstraintReport
from .constants_units import CONST
from .interaction import cutoff_distance


@dataclass(frozen=True)
class FarFieldSetup:
    """Geometry and operating point of a far-field grating experiment."""

    D: float                 # collimation slit width, m
    Y: float                 # slit height, m
    L1: float                # source to grating, m
    L2: float                # grating to screen, m
    d: float                 # grating period, m
    b: float                 # grating thickness, m
    Theta: float = None      # collimation half-angle, rad (default D/(2 L1))
    eps1: float = 0.0        # grating bars vs gravity, rad
    eps2: float = 0.0        # beam vs gravity plane, rad
    eps3: float = 0.0        # grating bars vs x axis, rad
    latitude: float = 0.0    # geographic latitude, rad
    H: float = 1.0           # vertical flight height, m
    T_source: float = 300.0  # source temperature, K
    eta_trans: float = 1.0   # grating transmission
    tau: float = 1.0         # accumulation time, s
    N_target: float = 1000.0  # detected-particle target
    d_open: float = None     # open slit width, m (default d/2)

    def __post_init__(self):
        for name in ("D", "Y", "L1", "L2", "d", "b", "H", "T_source", "tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0 < self.eta_trans <= 1:
            raise ValueError("eta_trans must lie in (0, 1]")
        if not self.N_target > 0:
            raise ValueError("N_target must be positive")
        for name in ("eps1", "eps2", "eps3", "latitude"):
            val = getattr(self, name)
            if not 0 <= val < math.pi / 2:
                raise ValueError(f"{name} must lie in [0, pi/2)")
        if self.Theta is not None and not 0 <= self.Theta < math.pi / 2:
            raise ValueError("Theta must lie in [0, pi/2)")
        if self.d_open is not None and not 0 < self.d_open <= self.d:
            raise ValueError("d_open must lie in (0, d]")

    @property
    def theta_eff(self):
        """Collimation half-angle: explicit value or D/(2 L1)."""
        return self.Theta if self.Theta is not None else self.D / (2 * self.L1)

    @property
    def open_width(self):
        """Open slit width used by the clogging check (default d/2)."""
        return self.d_open if self.d_open is not None else 0.5 * self.d


def mass_limit(d, T, Theta):
    """Largest diffractable mass (kg) for grating period d at collimation Theta.

    Resolving the diffraction kick h/d against the transverse thermal spread
    requires m v_T d <= h with v_T = Theta * sqrt(2 kB T / m), which solves to
    m <= h^2 / (2 d^2 kB T Theta^2). (Beware the commonly printed one-line
    version of this bound that drops one power of Theta; it is ~1e5 too small
    at microradian collimation.)
    """
    if not (d > 0 and T > 0 and Theta > 0):
        raise ValueError("mass_limit requires positive inputs")
    return CONST.h ** 2 / (2.0 * d * d * CONST.kB * T * Theta * Theta)


def gravity_velocity_criterion(setup, particle):
    """Velocity spread bound Delta v / v <= v L2 h / (m d g L^2 eps1).

    Two velocity classes fall by different amounts over the flight; if the
    grating bars are misaligned with gravity by eps1 the differential droop
    moves the pattern by a fringe unless Delta v / v stays below this bound.
    L is the flight length entering the fall. The paper leaves it ambiguous
    (L2 alone, or L1 + L2); L = L2 is taken here, and L1 + L2 would tighten
    the bound by ((L1 + L2)/L2)^2. eps1 = 0 returns +inf
    (criterion vacuous).
    """
    if setup.eps1 == 0.0:
        return math.inf
    L = setup.L2
    m = particle.mass_kg
    v = particle.v_long
    return v * setup.L2 * CONST.h / (m * setup.d * CONST.g * L * L * setup.eps1)


def coriolis_shift(v_L, t, eps2, eps3, latitude):
    """Transverse Coriolis displacement y_c (m) after flight time t.

    y_c = -2 w (v_L t^2 eps2 sin(lat) / 2 + (v_L t^2 / 2 - g t^3 / 3)
    eps3 cos(lat)) with w the Earth rotation rate. Vanishes for t = 0 or
    perfect alignment eps2 = eps3 = 0.
    """
    if t < 0:
        raise ValueError("flight time must be non-negative")
    w = CONST.omega_earth
    g = CONST.g
    return -2.0 * w * (v_L * t * t * eps2 * math.sin(latitude) / 2.0
                       + (v_L * t * t / 2.0 - g * t ** 3 / 3.0)
                       * eps3 * math.cos(latitude))


def ballistic_rise_time(v_L, H):
    """Time to climb to height H on a ballistic arc launched at v_L upward."""
    g = CONST.g
    disc = v_L * v_L / (g * g) - 2.0 * H / g
    if disc < 0:
        raise ValueError(
            f"particle at v_L={v_L} m/s never reaches height H={H} m")
    return v_L / g - math.sqrt(disc)


@dataclass(frozen=True)
class CoriolisCriterion:
    """Velocity-selection bound against Coriolis dephasing, both routes."""

    literal_bound: float      # printed closed form, taken verbatim
    derived_bound: float      # from |dy_c/dv| * dv <= fringe period
    literal_coeffs: tuple     # (eps2 coeff, eps3 coeff) of the printed bracket
    derived_coeffs: tuple     # bound = 1/(A2 eps2 + A3 eps3), dimensionless
    flight_time: float


def coriolis_velocity_criterion(setup, particle):
    """Velocity spread bound from the Coriolis fringe shift; see module docs.

    Returns a CoriolisCriterion carrying the literal closed-form value and
    the derived bound, literal / (Omega t^2). Both are +inf when
    eps2 = eps3 = 0. Raises ValueError if the beam cannot climb to H, or
    reaches it only at its apex, where dy_c/dv diverges.
    """
    v_L = particle.v_long
    m = particle.mass_kg
    g = CONST.g
    t = ballistic_rise_time(v_L, setup.H)
    lat = setup.latitude

    # dt/dv = -t/(v - g t) diverges at the apex, v = g t
    if not v_L > g * t:
        raise ValueError(f"particle at v_L={v_L} m/s reaches height "
                         f"H={setup.H} m at its apex")
    lit_c2 = (v_L + g * t) / (v_L - g * t) * math.sin(lat)
    lit_c3 = math.cos(lat)
    pref = CONST.h * setup.H / (m * v_L * v_L * setup.d)
    bracket = lit_c2 * setup.eps2 + lit_c3 * setup.eps3
    literal = math.inf if bracket == 0.0 else pref / bracket

    # dy_c/dv = Omega t^2 * bracket, so the derived coefficients are the
    # printed ones over the prefactor, times Omega t^2
    scale = CONST.omega_earth * t * t / pref
    A2, A3 = lit_c2 * scale, lit_c3 * scale
    denom = A2 * setup.eps2 + A3 * setup.eps3
    derived = math.inf if denom == 0.0 else 1.0 / denom

    return CoriolisCriterion(literal, derived, (lit_c2, lit_c3), (A2, A3), t)


def coherence_width(lam, L1, D):
    """Transverse coherence width lam * L1 / D at distance L1 behind a slit D."""
    if not (lam > 0 and L1 > 0 and D > 0):
        raise ValueError("coherence_width requires positive inputs")
    return lam * L1 / D


def collimation_check(Theta, lam, d):
    """Diffraction orders resolvable: requires Theta < diffraction angle lam/d."""
    if not (Theta > 0 and lam > 0 and d > 0):
        raise ValueError("collimation_check requires positive inputs")
    theta_d = lam / d
    return ConstraintReport(
        name="collimation",
        value=Theta,
        bound=theta_d,
        satisfied=Theta < theta_d,
        note=f"collimation half-angle vs diffraction angle {theta_d:.3e} rad "
             f"(must stay below)")


def required_flux(setup, particle):
    """Source flux (m^-2 s^-1 sr^-1) needed to detect N_target particles.

    N L1^2 v / (D^2 Y^2 eta tau Delta v) with Delta v = dv_rel * v; the solid
    angle and velocity acceptance of the collimated, velocity-selected beam
    eat everything else.
    """
    if particle.dv_rel <= 0:
        raise ValueError("required_flux needs a positive velocity spread")
    dv = particle.dv_rel * particle.v_long
    return (setup.N_target * setup.L1 ** 2 * particle.v_long
            / (setup.D ** 2 * setup.Y ** 2 * setup.eta_trans * setup.tau * dv))


def free_fall_distance(L_total, v_L):
    """Gravitational sag g (L/v)^2 / 2 over a horizontal flight of length L."""
    if not (L_total > 0 and v_L > 0):
        raise ValueError("free_fall_distance requires positive inputs")
    return CONST.g * (L_total / v_L) ** 2 / 2.0


def _guarded(rows, name, fn):
    try:
        rows.append(fn())
    except Exception as exc:  # keep auditing, report the failure in-row
        rows.append(ConstraintReport(name, math.nan, math.nan, False,
                                     f"error: {exc}"))


def feasibility_report(setup, particle):
    """All far-field checks for one setup/particle pair, as report rows.

    Individual failures (bad kinematics, zero spread) become per-row error
    notes; the audit always returns the full list.
    """
    lam = particle.wavelength()
    theta = setup.theta_eff
    rows = []

    def size_row():
        size = 2.0 * particle.alpha ** (1.0 / 3.0) if particle.alpha > 0 else 0.0
        return ConstraintReport(
            "particle_size", size, setup.d, size < setup.d,
            "particle diameter estimated as 2 alpha^(1/3) (metallic-cluster "
            "volume scaling); must be smaller than the grating period")
    _guarded(rows, "particle_size", size_row)

    _guarded(rows, "collimation",
             lambda: collimation_check(theta, lam, setup.d))

    def clog_row():
        if particle.alpha == 0.0:
            return ConstraintReport(
                "slit_clogging", 0.0, setup.open_width, True,
                "no surface attraction (alpha = 0)")
        x_c = cutoff_distance(particle.C4, setup.b, particle.mass,
                              particle.v_long)
        return ConstraintReport(
            "slit_clogging", 2.0 * x_c, setup.open_width,
            2.0 * x_c < setup.open_width,
            f"cutoff distance x_c = {x_c:.3e} m eats the slit from both "
            f"sides; effective opening {setup.open_width - 2 * x_c:.3e} m")
    _guarded(rows, "slit_clogging", clog_row)

    def mass_row():
        limit = mass_limit(setup.d, setup.T_source, theta)
        return ConstraintReport(
            "mass_limit", particle.mass_kg, limit,
            particle.mass_kg <= limit,
            f"largest diffractable mass {limit / CONST.amu:.3e} amu at this "
            f"period, temperature and collimation")
    _guarded(rows, "mass_limit", mass_row)

    def gravity_row():
        bound = gravity_velocity_criterion(setup, particle)
        return ConstraintReport(
            "gravity_dephasing", particle.dv_rel, bound,
            particle.dv_rel <= bound,
            "velocity spread vs differential gravitational droop "
            "(grating-to-screen length convention)")
    _guarded(rows, "gravity_dephasing", gravity_row)

    def coriolis_row():
        crit = coriolis_velocity_criterion(setup, particle)
        return ConstraintReport(
            "coriolis_dephasing", particle.dv_rel, crit.derived_bound,
            particle.dv_rel <= crit.derived_bound,
            f"derived bound 1/({crit.derived_coeffs[0]:.4g} eps2 + "
            f"{crit.derived_coeffs[1]:.4g} eps3); literal closed form gives "
            f"{crit.literal_bound:.4g} with bracket coefficient ratio "
            f"{crit.literal_coeffs[0] / crit.literal_coeffs[1]:.4g}; "
            f"flight time {crit.flight_time:.4g} s")
    _guarded(rows, "coriolis_dephasing", coriolis_row)

    def coherence_row():
        width = coherence_width(lam, setup.L1, setup.D)
        return ConstraintReport(
            "coherence", width, setup.d, width >= setup.d,
            "transverse coherence width at the grating; must cover at least "
            "one period (larger is better)")
    _guarded(rows, "coherence", coherence_row)

    def transit_row():
        t_tot = (setup.L1 + setup.L2) / particle.v_long
        return ConstraintReport(
            "transit_time", t_tot, math.inf, True,
            "total source-to-screen transit time, s (informational)")
    _guarded(rows, "transit_time", transit_row)

    def fall_row():
        drop = free_fall_distance(setup.L1 + setup.L2, particle.v_long)
        return ConstraintReport(
            "free_fall", drop, setup.H, drop <= setup.H,
            "gravitational sag over the full flight vs available height")
    _guarded(rows, "free_fall", fall_row)

    def flux_row():
        flux = required_flux(setup, particle)
        return ConstraintReport(
            "required_flux", flux, math.inf, True,
            f"source brightness needed for N = {setup.N_target:.0f} detected "
            f"in tau = {setup.tau:.0f} s, m^-2 s^-1 sr^-1 (informational)")
    _guarded(rows, "required_flux", flux_row)

    return rows
