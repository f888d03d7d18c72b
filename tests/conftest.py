"""Suite-wide set-up: the suite writes no bytecode, in this process or in the interpreters it starts.

Python still reads bytecode it finds, so a checkout that had run the suite
would import faster than a clean one; keeping ``src`` free of it keeps
timings of the two comparable.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
