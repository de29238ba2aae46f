"""form_lab: force matching under special relativity.

Generative modeling on 2-D point clouds where trajectories obey relativistic
kinematics.  The package simulates the three toy datasets (onedot,
halfmoons, spiral), trains first-order (o1), first-plus-second-order (o1o2),
and co-moving force (form) regressors, samples each with its matching
integrator, and scores endpoint losses.

See the README for the CLI walkthrough; the module layout mirrors the
pipeline: relativity -> interpolants/dynamics -> datasets -> neural ->
training -> sampling -> evaluate -> pipeline, with formats/figures/cli
around it.
"""

__version__ = "0.1.0"

from .relativity import (  # noqa: F401
    DEFAULT_PHYSICS,
    EPS_V,
    PhysicsConfig,
    acceleration_from_force,
    lorentz_factor,
    momentum,
    relativistic_force,
)
from .datasets import DatasetSpec, generate, holdout_split  # noqa: F401
from .training import TrainConfig, TrainedModel, train  # noqa: F401
from .sampling import SamplerConfig, sample_form, sample_o1, sample_o1o2  # noqa: F401
from .evaluate import euclidean_distance_loss  # noqa: F401
