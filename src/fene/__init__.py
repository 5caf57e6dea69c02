"""Compressible Navier-Stokes / Fokker-Planck FENE dumbbell simulator."""
