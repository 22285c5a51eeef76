"""Discrete probability kernels for multivariate binomial distributions.

Exact-rational multisets, distributions, and channels; bivariate binomials
as pushforwards of multinomials along the marginal heads function; Laplace
succession rules; and Expectation Maximisation for mixtures of bivariate
binomials.
"""

from .kernel import (
    BitossError,
    DegenerateObservation,
    Dist,
    DomainMismatch,
    EmptyMultiset,
    FLOAT,
    Infeasible,
    ModeMismatch,
    Multiset,
    NotNormalized,
    OutOfRange,
    RATIONAL,
    ResourceLimit,
    SupportMismatch,
    WrongSpace,
    convolve,
    dist_map,
    enumerate_msets,
    flrn,
    is_entwined,
    kl_divergence,
    moments,
    mset_coefficient,
    mset_map,
    sample,
    tensor,
    to_float,
    validity,
)
from .channels import Channel, dagger, push
from .binomials import (
    Coin,
    GridDist,
    binomial,
    bivbin,
    bivbin_direct,
    bivbin_tails,
    fiber,
    flip,
    heads,
    multinomial,
    mvbin_functorial,
    recover_coin,
    two_coin,
)
from .em import EMConfig, EMState, EMTrace, em_init, em_run, em_step
from .succession import (
    BetaParams,
    DirichletParams,
    beta_succession_mean,
    beta_update,
    binomial_poisson_mean,
    bivbin_dirichlet_mean,
    bivbin_dirichlet_mean_oracle,
    bivbin_poisson_mean,
    dirichlet_succession_mean,
    dirichlet_update,
    poisson_pmf,
)

__version__ = "0.1.0"
