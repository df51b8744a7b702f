"""Jamming-policy analysis against AoII-based remote monitoring.

Closed-form threshold policies for a single monitored source, priority-index
policies for budgeted multi-channel jamming, independent numeric oracles for
every closed form, and a seeded ground-truth simulator.
"""

__version__ = "0.1.0"
