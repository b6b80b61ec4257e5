"""Hardware device models for the OCSTrx transceiver.

This subpackage models the Silicon-Photonics OCS transceiver (OCSTrx) described
in section 4.1 and section 5.1 of the paper at the behavioural level:

* :mod:`repro.hardware.mzi` -- Mach-Zehnder interferometer switch elements and
  the NxN cross-lane switch matrix.
* :mod:`repro.hardware.ocstrx` -- the transceiver itself: three optical paths
  (two external, one cross-lane loopback), time-division path activation and
  the 60-80 microsecond reconfiguration latency.
* :mod:`repro.hardware.optics` -- statistical models of insertion loss, power
  consumption and bit error rate versus temperature/OMA used to regenerate
  Figures 10, 11 and 12.
"""
