#!/usr/bin/env python3
"""External explainer that writes its process id to the file named by its
argument, then neither reads a request nor answers one.  It starts no
process."""

import os
import sys
import time

with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
time.sleep(3600)
