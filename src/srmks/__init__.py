"""Structural risk minimisation over kernel smoothers.

Compares a data-driven squared-exponential kernel against a
physics-informed oscillator kernel on noisy impulse-response regression,
scoring candidates by capacity-penalised guaranteed-risk bounds.
"""

__version__ = "0.1.0"
