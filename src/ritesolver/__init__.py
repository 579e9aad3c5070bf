"""Radiative exchange solver for gray diffuse enclosures with a
participating medium.

Every public name lives only in the module that defines it, for example
ritesolver.assembly.Assembler; the package root holds just the version.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
