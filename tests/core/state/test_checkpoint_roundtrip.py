"""Checkpoint and restore round-trip every graph the live diff is tested on.

The checkpoint walks the reachable state with its own traversal, not with
``list_children``, so nothing but this test ties the two together: after
``restore()``, the live objects must equal a graph captured before the
checkpoint, under random mutations of the random graphs of
:mod:`object_pools` (a ``defaultdict``'s factory and a tuple subclass's
attributes included, and the ``_repro_*`` attributes both skip).
"""

from hypothesis import given, settings

from repro.core.state import capture_frame, checkpoint, graph_diff_live

from .object_pools import Pool, mutate, mutations, recipes, root_picks


@given(recipes, root_picks, mutations)
@settings(max_examples=300, deadline=None)
def test_restore_returns_the_captured_state(recipe, picks, changes):
    pool = Pool(recipe)
    labels = ["self"] + [("arg", i) for i in range(len(picks) - 1)]
    roots = [(label, pool.resolve((True, i))) for label, i in zip(labels, picks)]
    values = [value for _, value in roots]
    before = capture_frame(roots)
    saved = checkpoint(*values)
    for change in changes:
        if change[0] != "root":  # rebinds a frame slot, not object state
            mutate(pool, roots, *change)
    saved.restore()
    assert graph_diff_live(before, roots) is None
    assert all(kept is value for kept, value in zip(saved.roots, values))
