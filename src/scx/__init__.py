"""Exact f/h/e-vector and exponential Hilbert series toolkit for abstract
simplicial complexes, with Dehn-Sommerville and related structural checks."""

from .complexes import *
from .errors import *
from .hilbert import *
from .properties import *
from .vectors import *

__version__ = "0.1.0"
