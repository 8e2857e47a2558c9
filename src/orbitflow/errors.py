"""Exception and warning types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or non-square shapes."""


class TransversalityError(ValueError):
    """Line and hyperplane are too close to incidence to define a chart point."""


class MembershipError(ValueError):
    """Matrix spectrum is not {n (simple), -1 (multiplicity n)} within tolerance."""


class UnsupportedOrbitError(ValueError):
    """Requested orbit data for a non-minimal diagonal generator."""


class TangencyError(ValueError):
    """Vector has a component outside the tangent space beyond tolerance."""


class NotCriticalError(ValueError):
    """Operation requires a critical point but the gradient field is nonzero."""


class StepSizeError(RuntimeError):
    """A retraction or an integrator step moved a point too far, or off the chart."""


class LevelRangeError(ValueError):
    """Requested level value lies outside the attracting range of the flag maximum."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


class ParityError(ValueError):
    """Torus involution is undefined for this index at odd rank."""


class GraphIntegrityError(RuntimeError):
    """A traced flow drifted off its Lagrangian graph beyond tolerance."""


class NearCriticalError(ValueError):
    """Point is too close to a singularity for the requested construction."""


class ConfigError(ValueError):
    """Invalid run configuration."""
