"""No function under ``src/`` takes a campaign knob as a parameter of its own.

Every engine entry point takes one
:class:`~repro.experiments.config.CampaignConfig`, so a knob is declared
once, validated once, and removed by deleting one field and its uses.
Before the config existed, ``state_backend`` was a parameter of 17
functions and ``trace_derive`` of 15, each re-threading and re-checking
it by hand.  This test keeps those two from coming back as parameters.
The exceptions are the core reference layer, which takes its settings
directly (``harden()`` uses it too), and ``run_app_campaign``, whose
keywords are the campaign's public spelling of the knobs.

Deliberately a source scan, not an import hook: it catches parameters
in modules that are never imported by the test run.
"""

import ast
import os

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)

#: Knobs that only a CampaignConfig may carry.
KNOBS = ("state_backend", "trace_derive")

#: ``module path: qualified function names`` allowed to declare a knob.
ALLOWED = {
    os.path.join("core", "injection.py"): {"InjectionCampaign.__init__"},
    os.path.join("core", "detector.py"): {
        "profile_program",
        "Detector.__init__",
    },
    os.path.join("experiments", "campaign.py"): {"run_app_campaign"},
}


def _functions(tree):
    """``(qualified name, node)`` of every function in *tree*."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            stack.extend((f"{prefix}{node.name}.", n) for n in node.body)
        elif isinstance(node, ast.ClassDef):
            stack.extend((f"{prefix}{node.name}.", n) for n in node.body)


def _violations():
    found = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, SRC_ROOT)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for name, node in _functions(tree):
                args = node.args
                declared = {
                    arg.arg
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                }
                for knob in KNOBS:
                    if knob in declared and name not in ALLOWED.get(rel, ()):
                        found.append(f"{rel}:{node.lineno}: {name}({knob}=)")
    return found


def test_knobs_reach_the_engines_only_through_the_config():
    violations = _violations()
    assert not violations, (
        "campaign knobs declared as parameters (take a CampaignConfig "
        "instead):\n" + "\n".join(violations)
    )


def test_the_allowed_functions_still_exist():
    # an allowance outlives its function only by mistake: when the knob
    # goes (or the function does), the allowance goes with it
    for rel, names in ALLOWED.items():
        with open(os.path.join(SRC_ROOT, rel), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        assert names <= {name for name, _ in _functions(tree)}, rel
