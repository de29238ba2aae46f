"""Special-relativity kinematics for point particles.

All velocities live in lab-frame coordinates with a finite speed of light
``c`` carried by :class:`PhysicsConfig`.  Crossing the speed limit is a hard
:class:`~form_lab.errors.SpeedLimitError`, never a clamp: a clamp would turn
an integration bug into a silently wrong dataset.

Every function accepts a single 2-vector ``(2,)`` or a batch ``(..., 2)`` and
broadcasts elementwise, so batched code paths produce bit-identical numbers
to the single-particle ones.  Three formulas also come in row form, for the
loops that hold vectors as ``(2, ...)`` component rows so that every operation
runs on contiguous rows: :func:`velocity_rows`, :func:`lab_force_rows` and
:func:`acceleration_rows` write into ``out`` and take the operations of the
function each names in its order, so the bits are that function's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVelocityError, FieldError, NonFiniteError, ShapeError, SpeedLimitError

# Below this speed a velocity direction is numerically meaningless and
# direction-dependent operations refuse to guess.
EPS_V = 1e-12


@dataclass(frozen=True)
class PhysicsConfig:
    """Speed of light and particle mass, in working units (du, s).

    The default ``c = 10`` corresponds to measuring distance in units of
    0.1 light-seconds: one du is 3e7 m, so light covers 10 du each second.
    """

    c: float = 10.0
    m: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and 0.0 < float(self.c) * float(self.c) < np.inf):  # every formula divides by c**2
            raise FieldError(PhysicsConfig, "c",
                             f"speed of light c must be positive with a finite, nonzero square, got {self.c}")
        if not (self.m > 0.0 and np.isfinite(self.m)):
            raise FieldError(PhysicsConfig, "m", f"mass must be positive and finite, got {self.m}")


DEFAULT_PHYSICS = PhysicsConfig()


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``<a, b>`` over the trailing axis of 2-vectors.

    Written out as two products and two sums, without numpy's per-row
    reduction loop.  ``np.sum(a * b, axis=-1)`` starts its sum from ``+0.0``,
    which turns ``-0.0 + -0.0`` into ``+0.0``; the trailing ``+ 0.0`` does the
    same, so the bits are ``np.sum``'s.
    """
    if a.shape[-1] != 2 or b.shape[-1] != 2:
        raise ShapeError(f"expected 2-vectors, got trailing dims {a.shape[-1]} and {b.shape[-1]}")
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + 0.0


def _column(x) -> np.ndarray:
    """Append a trailing axis so scalars/batches broadcast against vectors."""
    return np.asarray(x, dtype=np.float64)[..., None]


def speed(v) -> float | np.ndarray:
    """Euclidean norm of the velocity, elementwise over a batch."""
    v = _as_float_array(v)
    return np.sqrt(_dot(v, v))


def lorentz_factor(v, physics: PhysicsConfig = DEFAULT_PHYSICS) -> float | np.ndarray:
    """gamma = 1 / sqrt(1 - |v|^2 / c^2); raises if any |v| >= c."""
    v = _as_float_array(v)
    return lorentz_factor_from_speed_sq(_dot(v, v), physics)


def lorentz_factor_from_speed_sq(s2: np.ndarray, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """:func:`lorentz_factor` from the squared speeds ``|v|^2``; raises if any is ``>= c^2`` or not finite."""
    c2 = physics.c**2
    if np.any(s2 >= c2) or not np.all(np.isfinite(s2)):
        worst = float(np.sqrt(np.max(s2)))
        raise SpeedLimitError(f"speed {worst!r} >= c = {physics.c!r}")
    return 1.0 / np.sqrt(1.0 - s2 / c2)


def momentum(v, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """Relativistic momentum p = m * gamma * v."""
    v = _as_float_array(v)
    g = lorentz_factor(v, physics)
    return physics.m * _column(g) * v


def relativistic_force(v, a, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """Lab-frame force producing acceleration ``a`` at velocity ``v``.

    f = m * (gamma * a + gamma^3 * <v, a> / c^2 * v).  This is the time
    derivative of the momentum ``m * gamma * v`` along the trajectory.
    """
    v = _as_float_array(v)
    a = _as_float_array(a)
    g = lorentz_factor(v, physics)
    coef = (g**3) * _dot(v, a) / physics.c**2
    return physics.m * (_column(g) * a + _column(coef) * v)


def acceleration_from_force(v, f, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """Invert :func:`relativistic_force`: a = (f - <v, f> v / c^2) / (m gamma)."""
    v = _as_float_array(v)
    f = _as_float_array(f)
    g = lorentz_factor(v, physics)
    reduced = f - _column(_dot(v, f) / physics.c**2) * v
    return reduced / (physics.m * _column(g))


def speed_sq_derivative(v, f, physics: PhysicsConfig = DEFAULT_PHYSICS) -> float | np.ndarray:
    """d(|v|^2/2)/dt under force f: <f, v> (1 - |v|^2/c^2) / (m gamma).

    The factor ``1 - |v|^2/c^2`` encodes the speed limit: the push toward c
    vanishes as the speed approaches it, so a perpendicular force
    (<f, v> = 0) changes direction only, never speed.
    """
    v = _as_float_array(v)
    f = _as_float_array(f)
    g = lorentz_factor(v, physics)
    s2 = _dot(v, v)
    return _dot(f, v) * (1.0 - s2 / physics.c**2) / (physics.m * g)


def rotate90(u, handedness: int = 1) -> np.ndarray:
    """Rotate 2-D vectors by 90 degrees; +1 = counter-clockwise, -1 = clockwise."""
    u = _as_float_array(u)
    if u.shape[-1] != 2:
        raise ShapeError(f"rotate90 needs 2-D vectors, got trailing dim {u.shape[-1]}")
    if handedness not in (1, -1):
        raise ValueError(f"handedness must be +1 or -1, got {handedness!r}")
    out = np.empty(u.shape)
    np.negative(u[..., 1], out=out[..., 0])
    out[..., 1] = u[..., 0]
    if handedness != 1:
        out *= handedness
    return out


def decompose_parallel_perp(f, v, handedness: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Project a lab-frame 2-D force onto the co-moving frame of ``v``: (f_par, f_perp).

    Raises :class:`DegenerateVelocityError` when any speed is <= EPS_V,
    because the frame orientation is undefined at rest.
    """
    f = _as_float_array(f)
    v = _as_float_array(v)
    s = speed(v)
    if np.any(s <= EPS_V):
        raise DegenerateVelocityError(
            f"velocity direction undefined at speed <= {EPS_V} (min speed {float(np.min(s))!r})"
        )
    vhat = v / _column(s)
    return _dot(f, vhat), _dot(f, rotate90(vhat, handedness))


def compose_lab_force(f_par, f_perp, v, handedness: int = 1) -> np.ndarray:
    """Rebuild the lab-frame force from co-moving components along ``v``.

    The inverse of :func:`decompose_parallel_perp`, but tolerant of resting
    particles: rows where the speed is <= EPS_V are only an error when their
    components are nonzero; a zero force needs no direction and composes to
    zero.  Integrators rely on this, because a force schedule may
    legitimately pass through exact zero.
    """
    v = _as_float_array(v)
    f_par = np.broadcast_to(np.asarray(f_par, dtype=np.float64), v.shape[:-1])
    f_perp = np.broadcast_to(np.asarray(f_perp, dtype=np.float64), v.shape[:-1])
    s = speed(v)
    degenerate = s <= EPS_V
    if degenerate.any():
        if np.any(degenerate & ((f_par != 0.0) | (f_perp != 0.0))):
            raise DegenerateVelocityError(
                "nonzero co-moving force at (numerically) zero speed: direction undefined"
            )
        vhat = np.where(_column(degenerate), 0.0, v / _column(np.where(degenerate, 1.0, s)))
    else:
        vhat = v / _column(s)
    return _column(f_par) * vhat + _column(f_perp) * rotate90(vhat, handedness)


# --- celerity (proper velocity) coordinates -------------------------------
#
# w = gamma(v) * v is unbounded while |v| < c always; integrating dynamics in
# w makes the speed limit structural instead of something to monitor.


def celerity_from_velocity(v, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """w = gamma * v.  Raises if |v| >= c."""
    v = _as_float_array(v)
    return _column(lorentz_factor(v, physics)) * v


def velocity_from_celerity(w, physics: PhysicsConfig = DEFAULT_PHYSICS) -> np.ndarray:
    """v = w / sqrt(1 + |w|^2 / c^2).

    The exact map satisfies |v| < c for every finite w; float64 does not.
    From about |w| ~ c / sqrt(eps) (gamma ~ 1e7) the derived ``speed(v)``
    rounds to c, and for some directions to 1 or 2 ulp above it: over
    random celerities with |w| / c from 1e9 to 1e14, above c for about
    0.5 % of them at c = 1, 10 % at c = 10 and 6 % at c = 3e8.  The
    celerity itself keeps the limit; a caller that needs |v| < c in
    float64 checks the derived speed with :func:`require_below_c`, as
    ``simulate_batch`` and ``force_path`` do.  A
    celerity that is not finite, or whose ``|w|^2 / c^2`` overflows (about
    1e154 and up), raises.
    """
    w = _as_float_array(w)
    gamma = np.sqrt(1.0 + _dot(w, w) / physics.c**2)
    _require_finite_gamma(w, gamma)
    return w / _column(gamma)


def _require_finite_gamma(w: np.ndarray, gamma: np.ndarray) -> None:
    """Refuse a non-finite celerity, or one whose ``w / gamma`` would read 0 because gamma overflows."""
    if np.count_nonzero(np.isfinite(gamma)) != gamma.size:
        if not np.isfinite(w).all():
            raise NonFiniteError("celerity must be finite")
        raise NonFiniteError("celerity overflows float64: |w|^2 / c^2 is not finite")


# --- component rows (see the module docstring) --------------------------------
#
# A sum of squares is never -0.0, so _dot's trailing ``+ 0.0`` is left out
# after one, not after <v, f>.


def velocity_rows(w: np.ndarray, physics: PhysicsConfig, out: np.ndarray) -> np.ndarray:
    """:func:`velocity_from_celerity` of the rows ``w``, written into ``out``; returns ``|w|^2``."""
    ww = w * w
    sq = ww[0] + ww[1]
    gamma = np.sqrt(1.0 + sq / physics.c**2)
    _require_finite_gamma(w, gamma)
    np.divide(w, gamma, out=out)
    return sq


def require_below_c(v: np.ndarray, physics: PhysicsConfig, what: str) -> None:
    """Refuse the velocity rows ``v`` (``(2, ...)``, any strides) if any ``|v|^2`` is not below ``c^2``, as
    :func:`acceleration_rows` would: a velocity derived from a celerity beyond gamma ~ 1e7 rounds to c."""
    vv = v * v
    if (np.add(vv[0], vv[1], out=vv[0]) >= physics.c**2).any():  # summed in place: one temporary of v's size
        raise SpeedLimitError(f"a {what} speed rounds to c = {physics.c!r} in float64 (gamma beyond about 1e7)")


def lab_force_rows(f_par, f_perp, v: np.ndarray, handedness: int, out: np.ndarray) -> np.ndarray:
    """:func:`compose_lab_force` along the rows ``v``, written into ``out``; returns ``|v|^2``.

    ``f_par`` and ``f_perp`` are scalars or arrays that broadcast to
    ``v[0]``.  If any point rests (speed ``<= EPS_V``), the rows go through
    ``compose_lab_force`` itself, which lets a zero force act there and
    refuses a nonzero one.
    """
    if handedness not in (1, -1):
        raise ValueError(f"handedness must be +1 or -1, got {handedness!r}")
    vv = v * v
    s2 = vv[0] + vv[1]
    s = np.sqrt(s2)
    if (s <= EPS_V).any():
        np.moveaxis(out, 0, -1)[...] = compose_lab_force(f_par, f_perp, np.moveaxis(v, 0, -1), handedness)
        return s2
    vhat_x, vhat_y = v[0] / s, v[1] / s
    f_rot = handedness * f_perp  # f_perp along rotate90(vhat) = handedness * (-vhat_y, vhat_x)
    np.subtract(f_par * vhat_x, f_rot * vhat_y, out=out[0])
    np.add(f_par * vhat_y, f_rot * vhat_x, out=out[1])
    return s2


def acceleration_rows(v: np.ndarray, f: np.ndarray, s2: np.ndarray, physics: PhysicsConfig, out: np.ndarray) -> None:
    """:func:`acceleration_from_force` of the rows ``v`` and ``f``, written into ``out``.

    ``s2`` is ``|v|^2`` as :func:`lab_force_rows` returns it.  Raises
    ``SpeedLimitError`` for a speed at or above ``c``.
    """
    gamma = lorentz_factor_from_speed_sq(s2, physics)
    along = (v[0] * f[0] + v[1] * f[1] + 0.0) / physics.c**2
    m_gamma = physics.m * gamma
    np.divide(f[0] - along * v[0], m_gamma, out=out[0])
    np.divide(f[1] - along * v[1], m_gamma, out=out[1])
