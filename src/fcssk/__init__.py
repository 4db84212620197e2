"""Fractional chirp-slope-shift-keying (FCSSK) baseband modem.

Transmitter, channel model, blind timing synchronization, two
instantaneous-frequency estimators (DPLL, sliding-window LLS), one codec
and one template-bank detector for two constant-weight codes, closed-form
performance bounds, a Monte-Carlo BER engine and its CLI.
"""

from .channel import apply_awgn, apply_delay, derived_rng
from .codec import (B6B8, CODE_NAMES, MANCHESTER, CodedFrame, CodeSpec,
                    build_6b8b_codebook, encode, get_code_spec)
from .detect import decide, template_bank
from .errors import (AliasingError, ConfigError, FcsskError, FileFormatError,
                     FramingError, NonFiniteSampleError, SyncError)
from .ifest import (DpllParams, LlsParams, default_cutoff, default_dpll, default_f_nat,
                    design_lowpass, downconvert, dpll_response, dpll_track,
                    lls_track, make_dpll_params)
from .sigcore import ChirpParams, IqBuffer, derive_params, reference_chirp
from .sync import SyncEstimate, align, estimate_timing
from .theory import (bit_energy, crb_variance, pe_crb, q_function, snr_at_pe,
                     theory_curve)
from .txmod import (ModParams, ideal_deviation_track, make_mod_params,
                    modulate, peak_deviation)

__version__ = "0.1.0"
