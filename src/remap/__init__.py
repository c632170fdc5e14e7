"""remap: method-level code mappings between original and redesigned codebases.

The names below are what the command-line parser and ``cli.main`` need
before a command runs. They live here, not in the modules that use them,
so that ``--version``, ``--help`` and usage errors load no pipeline module.
"""

__version__ = "0.1.0"

TASK_GENUINE_CLONE = "genuine_clone"
TASK_CODE_MAPPING = "code_mapping"

# ALL keeps every signal; EXR1 disables renaming during normalization;
# EXR2 zeroes simLocalVar and simMethodHeader; EXR3 zeroes simMethodDoc and
# simClassDoc; EXR4 zeroes simComment
ABLATION_MODES = ("ALL", "EXR1", "EXR2", "EXR3", "EXR4")


class PipelineError(RuntimeError):
    """A runtime failure of a pipeline step. The CLI reports it under the
    subclass's own name and exits 1."""
