"""Rates, zero-forcing beamforming and power allocation for the two-user
interference channel assisted by a two-antenna decode-and-forward relay."""

from .errors import (BadBlockCount, DegenerateAntenna, DegenerateRelayChannel,
                     ImrcError, InfeasibleRadicand, LinearizationInfeasible,
                     NegativePower, NoFeasiblePoint, NoFeasibleRho, NonFinite,
                     NoSignChange)
from .model import (ChannelSetup, FeasibilityReport, PowerAllocation,
                    example_channel, feasibility, load_channel,
                    parse_channel_text, resolve_channel, validate)
from .beamforming import (BeamVectors, EffectiveChannel, approx_beam_vector,
                          beam_vector, beam_vectors, boundary_beam_vector,
                          effective_gains, zero_forcing_residual)
from .rates import (MacRates, RatePoint, RateRegion, SchemeRates,
                    abundant_power_rates, block_penalty, hull2d, ic_rates,
                    mac_rates, mac_sum_expanded, scheme_rate_point)
from .lowpower import (ApproxCoeffs, ClosedFormPowers, LinearizedRates,
                       RhoRegion, best_sign_powers, closed_form_phat,
                       full_region, linearized_rates, region_rho,
                       sum_rate_allocation, taylor_coeffs)
from .search import (GridSpec, SearchResult, SweepPolicy, SweepRow, SweepTable,
                     bisect_intersection, grid_search_sum_rate, sweep_P)

__version__ = "0.1.0"
