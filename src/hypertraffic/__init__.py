"""Traffic simulation and phase-transition analysis on hyperbolic graphs.

The API lives in the submodules (graphs, generators, tessellation, traffic,
analysis, serialize, errors); `hypertraffic.cli` is the command-line front
end and imports every module it uses.
"""

__version__ = "0.1.0"
