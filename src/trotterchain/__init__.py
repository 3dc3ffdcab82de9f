"""Classical laboratory for the integrably-Trotterized Heisenberg XXX chain.

The package is organized as a numpy library:

- :mod:`trotterchain.pauli` -- bit-packed Pauli strings and their letters
- :mod:`trotterchain.charges` -- exact conserved charges and transfer matrices
- :mod:`trotterchain.circuit` -- gate-level circuits (init / brickwork / rotations)
- :mod:`trotterchain.sim` -- statevector and density-matrix engines
- :mod:`trotterchain.noise` -- Kraus channels
- :mod:`trotterchain.measure` -- Pauli-word estimation protocol
- :mod:`trotterchain.spectral` -- one-step channel superoperators and spectra
- :mod:`trotterchain.tomo` -- Pauli-basis state tomography
- :mod:`trotterchain.mitigate` -- readout correction and zero-noise extrapolation
- :mod:`trotterchain.analysis` -- decay fits and benchmark verdicts
- :mod:`trotterchain.cli` -- experiment runner
"""

__version__ = "0.1.0"
