"""turbochannel: a covert-channel laboratory built on core-count turbo scaling.

Layers, bottom up: ``turbo`` models the shared turbo frequency and background
noise, ``phy`` simulates the transmit/sample channel, ``modem`` does on-off
keying with edge detection, ``link`` adds framing, CRC-16, and stop-and-wait
reliability, ``fec`` analyses error-correction trade-offs, and ``harness``
runs seeded experiment scenarios from config files (also via the
``turbochannel`` CLI).
"""

from .fec import (FecModel, PacketOutcome, byte_errors, estimate_goodput,
                  rs_correctable)
from .harness import (Scenario, ScenarioReport, emit_csv, load_scenario,
                      noise_change_histogram, run_scenario)
from .link import (ACK_BITS, FRAME_BITS, PAYLOAD_BYTES, SYNC_WORD, ArqReceiver,
                   ArqSender, LinkConfig, TransferFailed, TransferStats, crc16,
                   decode_frame, encode_frame, listen, next_frame,
                   pad_payload, run_transfer, scan_ack)
from .modem import (ModemConfig, StreamAssembler, classify_array,
                    default_threshold, modulate)
from .phy import ChannelEndpoint, SampleSeries, SimulatedChannel
from .turbo import (ActivityTrace, DomainError, FrequencyTrace, NoiseProfile,
                    TurboPolicy, apply_policy, builtin_policy, generate_noise,
                    turbo_frequency)

__version__ = "0.1.0"
