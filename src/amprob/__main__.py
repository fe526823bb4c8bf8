"""`python -m amprob` runs the `amprob` command-line tool."""

from .cli import entry

entry()
