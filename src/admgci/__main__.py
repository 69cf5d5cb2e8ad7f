"""Entry point for ``python -m admgci``."""

from .cli import console_main

console_main()
