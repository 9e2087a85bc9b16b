"""Overshoot functionals and exit identities for spectrally negative Levy processes.

Layers:

* ``models`` - Levy triplets, Laplace exponents, the fixture catalog;
* ``scale`` - scale functions W^(q)/Z^(q) (closed forms and Laplace inversion);
* ``generator`` - penalty extensions and the compensated generator (A - q);
* ``identities`` - two-sided exit, resolvent, creeping and the overshoot
  functionals in their general / simplified / zero-extension forms;
* ``reflected_refracted`` - the same functional for reflected and refracted
  modifications of the process;
* ``montecarlo`` - the simulation oracle (first passage, reflection,
  refraction, occupation histograms);
* ``cli`` - the ``levyfluct`` command.
"""

from .errors import (ConditionNotMetError, HypothesisViolationError, LevyFluctError,
                     ModelError, NumericalAccuracyError, RootFindingError, SpecError,
                     UnsupportedCaseError)
from .models import (LevyMeasureSpec, LevyTriplet, brownian_motion, canonical_models,
                     cramer_lundberg, exponential_jumps, jump_diffusion,
                     laplace_exponent, laplace_exponent_derivative, model_from_dict,
                     no_jumps, path_variation, right_inverse_phi, table_jumps,
                     tempered_stable_jumps, tempered_stable_process)
from .scale import ScaleFunction, euler_inversion, invert_laplace, transform_roundtrip
from .generator import (ExtendedPenalty, ExtensionRecipe, MembershipReport,
                        apply_generator, check_membership, extend_penalty)
from .identities import (ExitProblem, GerberShiuValue, boundary_start,
                         creeping_transform, mass_balance_gap,
                         overshoot_functional_general, overshoot_functional_simple,
                         overshoot_of_scale_function, overshoot_zero_extension,
                         resolvent_density, two_sided_exit_up)
from .montecarlo import (MCEstimate, SimScheme, estimate_creeping,
                         estimate_exit_transform, estimate_overshoot_functional,
                         estimate_resolvent, simulate_first_passage,
                         simulate_reflected, simulate_refracted)
from .reflected_refracted import (ClosedFormProvider, MonteCarloProvider,
                                  RefractedSpec, ReflectedSpec, reflected_overshoot,
                                  refracted_overshoot)
from .expressions import compile_expression

__version__ = "0.1.0"
