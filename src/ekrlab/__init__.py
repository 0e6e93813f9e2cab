"""ekrlab: exact and Monte Carlo laboratory for the Erdos-Ko-Rado property
of random k-uniform hypergraphs."""

from .analytics import (AlphaBeta, BetaStar, DerivedQuantities, ModelParams,
                        RegimeParams, ThresholdEstimate, beta_star_bound,
                        chernoff_lower, chernoff_mult, chernoff_mult_relaxed,
                        chernoff_upper, compute_alpha_beta, derive,
                        intersection_probability, lambda_peak, lambda_prime_t,
                        lambda_t, perturbed_intersection_bound, regime_params,
                        threshold_estimate)
from .errors import DomainError, EkrLabError, ParseError, ResourceLimitError
from .hypergraph import (DegreeStats, EventRReport, Hypergraph, check_event_r,
                         degree_stats, dump_hypergraph, parse_hypergraph,
                         read_hypergraph, sample_bernoulli, sample_conditioned,
                         sample_independent, write_hypergraph)
from .montecarlo import (NandSSummary, SweepRow, SweepTable, TrialRecord,
                         estimate_condition_nands, estimate_delta_law,
                         estimate_ekr_curve, run_trials, wilson_interval)
from .verifier import (EkrVerdict, brute_force_ekr, is_trivial_clique,
                       max_intersecting_family, max_nontrivial_clique,
                       verify_ekr)
from .witnesses import (CliqueProfile, HMWitness, classify_nontrivial_clique,
                        clique_profile, find_generic_clique,
                        find_hilton_milner, hm_count_bound, is_generic_clique)

__version__ = "0.1.0"
