"""Reference formulas that only the tests use."""


def spot_radius(params):
    """Estimated bright-spot radius 0.4/k (units of R).

    The first dark ring sits near the first zero of J0, at
    2.40483/(2 pi k) = 0.383/k; 0.4/k is the conventional round number.
    """
    return 0.4 / params.k
