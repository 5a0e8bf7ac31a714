"""``python -m repro.cli``: run the command-line interface."""

from repro.cli import main

raise SystemExit(main())
