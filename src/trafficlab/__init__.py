"""Desk-scale lab for traffic signal control under partial vehicle detection."""

__version__ = "0.1.0"
