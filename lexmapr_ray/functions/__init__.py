# A Ray-facing package: importing it applies the engine's Ray Data defaults.
from lexmapr_ray import _configure_data_context

_configure_data_context()
