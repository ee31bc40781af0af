"""twincal: twin-beam frame simulation and sub-shot-noise detector calibration.

Simulate CCD frame stacks of pairwise-correlated twin beams with known
ground-truth channel efficiencies, then recover those efficiencies from the
noise reduction factor of conjugate detection regions, with a full Type A
uncertainty budget.
"""

__version__ = "0.1.0"
