"""Run the command line as a module: python -m projpair <command> ..."""

import sys

from .cli import main

sys.exit(main())
