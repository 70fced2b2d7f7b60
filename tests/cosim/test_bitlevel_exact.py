"""Exactness pin for the bit-level Figure 6 reference.

The Table 3 golden pins the packet-level model only.  The bit-level
model (``repro.hw``) is the reference that model is scaled against, so
its simulated timing is pinned here to the last bit: any change to the
delta-cycle kernel or the PHY that moves an event by one ulp fails.
"""

import pytest

from repro.cosim import ValidationScenario

#: packets -> (elapsed_seconds, tx_frames, rx_frames, packets_delivered,
#: final sim.now), as ``repr`` strings for the floats.
BIT_LEVEL = {
    1: ("0.38644054697807145", 23, 22, 1, "0.39999999999999997"),
    5: ("2.017386140676208", 116, 115, 5, "2.0500000000000007"),
    30: ("12.320862257230173", 690, 690, 30, "12.35000000000004"),
}


@pytest.mark.parametrize("n_packets", sorted(BIT_LEVEL))
def test_bit_level_run_is_bit_exact(n_packets):
    scenario = ValidationScenario(bit_level=True)
    result = scenario.run(n_packets)
    assert (
        repr(result.elapsed_seconds),
        result.tx_frames,
        result.rx_frames,
        result.packets_delivered,
        repr(scenario.sim.now),
    ) == BIT_LEVEL[n_packets]
