"""A fixed set-up that uses no relbc code, timed beside each setup probe.

A fresh interpreter imports numpy and some large stdlib packages, then
prints one line so that the parent can stop its clock.  Like relbc's own
set-up it is interpreter start, module loading and module execution, so it
slows down and speeds up with the host in the same way; run.py divides each
set-up time by it.

    python3 perfbench/setup_reference.py
"""

import argparse  # noqa: F401
import asyncio  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import inspect  # noqa: F401
import json  # noqa: F401
import logging  # noqa: F401
import sqlite3  # noqa: F401
import unittest  # noqa: F401
import xml.dom.minidom  # noqa: F401

import numpy  # noqa: F401
import numpy.fft  # noqa: F401
import numpy.linalg  # noqa: F401
import numpy.polynomial  # noqa: F401
import numpy.random  # noqa: F401

print("ready", flush=True)
