"""Byte-for-byte expected output of the command line; see regen.py."""
