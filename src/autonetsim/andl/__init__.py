"""ANDL: parser, validator, and compiler for network descriptions."""

from .compiler import CompileError, compile_network, compile_with_warnings, validate
from .nodes import AndlFile, Diagnostic, has_errors, print_file
from .parser import parse
from .tdma import CycleTooLong, ScheduleInfeasible, TtFlow, generate_tdma_schedule

__all__ = [
    "AndlFile",
    "CompileError",
    "CycleTooLong",
    "Diagnostic",
    "ScheduleInfeasible",
    "TtFlow",
    "compile_network",
    "compile_with_warnings",
    "generate_tdma_schedule",
    "has_errors",
    "parse",
    "print_file",
    "validate",
]
