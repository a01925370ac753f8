"""Discretized event volumes: from a stream to a (B, H, W) tensor.

Networks want dense tensors, so a window of events is accumulated into B
time bins. Three modes are supported -- count (unsigned), signed
(polarity sums), and bilinear (each event splits its polarity between
the two nearest bin centers). Volumes serialize to the EVOL binary
format.
"""
import numpy as np

from evanom import io
from evanom.events import EventStream
from evanom.representation import discretize, normalize, window_block
from evanom.simulate import render_scene, walking_scene

# --- one event, three modes ---------------------------------------------
# A single negative event at t = 1750 us with 1000 us bins lands at
# fractional bin 1.75: bilinear gives 0.25 to bin 1 and 0.75 to bin 2.
s = EventStream.from_arrays(4, 4, [1], [2], [1750], [-1])
for mode in ("count", "signed", "bilinear"):
    vol = discretize(s, t0=0, bin_dt=1_000, bins=4, mode=mode)
    print(f"{mode:>8}: per-bin values at the pixel =",
          vol.data[:, 2, 1])

# --- conservation on real data ------------------------------------------
stream, _ = render_scene(walking_scene(seed=1))
vol = discretize(stream, 0, 25_000, 8, "count")
print("\ncount-mode total", vol.data.sum(), "== events in [0, 200ms):",
      len(stream.t[stream.t < 8 * 25_000]))

# --- normalization and windows ------------------------------------------
# Training uses sliding windows of B+1 bins: B input bins, then the
# target bin the GAN learns to predict. All windows come from one binning
# pass, as the rows of one (n, B+1, H, W) array.
windows = window_block(stream, bin_dt=25_000, bins=8, stride=2)
print("windows:", len(windows), "window shape", windows[0].shape,
      "input shape", windows[0][:-1].shape, "target shape", windows[0][-1].shape)
norm = normalize(windows[0][:-1], cap=5.0)
print("normalized range: [%.3f, %.3f]" % (norm.min(), norm.max()))

# --- EVOL round trip -----------------------------------------------------
blob = io.write_evol(vol)
back = io.read_evol(blob)
print("\nEVOL:", len(blob), "bytes; payload bit-identical:",
      bool((back.data == vol.data).all()))
