"""Event-camera anomaly detection at desk scale.

Subpackages: events (data model), simulate (synthetic scenes),
representation (event volumes; a window is one (B+1,H,W) array of B
input bins and the target bin), autodiff (tensor engine), msnet
(memory-surface autoencoder), gan (dual-discriminator cGAN), oracle
(exact objective checks), pipeline (settings, scoring and evaluation),
io (file formats), cli.
"""
from .events import Event, EventStream, parse_event_csv, slice_time, write_event_csv
from .representation import DiscretizedVolume, discretize
from .simulate import LabelTrack, ObjectSpec, SceneConfig, render_scene

__all__ = [
    "Event", "EventStream", "parse_event_csv", "write_event_csv",
    "slice_time", "DiscretizedVolume", "discretize",
    "SceneConfig", "ObjectSpec", "LabelTrack", "render_scene",
]

__version__ = "0.1.0"
